//! The deadline-aware serving runtime: a discrete-event simulation of a
//! sharded, batching worker pool scheduling EMG + visual requests against
//! a per-request deadline, degrading along per-device TRN ladders under
//! load.
//!
//! The simulation advances virtual time request by request, entirely in
//! integer microseconds — no floats, no wall-clock reads — so a run is a
//! pure function of `(shards, requests, config)` and its summary is
//! bit-identical across `--jobs` settings and host machines. A run is
//! serial from first arrival to last projection; physical parallelism
//! lives upstream, in scenario set-up (ladder construction on
//! `EvalContext`'s scoped-thread pool).
//!
//! Scheduling policy, per arrival:
//!
//! 1. **Candidates** — every shard offers a *solo* dispatch (its
//!    earliest-free worker, stalled workers held until their window ends)
//!    and, when dynamic batching is on, a *join* of its open batch — the
//!    shard's most recent dispatch, joinable while its start is still in
//!    the future, it is below `batch_max`, and the [`Batcher`] finds a
//!    rung whose batched latency fits the tightest member's deadline
//!    within the per-batch slack budget.
//! 2. **Routing** — [`ShardRouter`]: least predicted completion time,
//!    admissible candidates first (spill), joins preferred on ties. The
//!    loop routes as the shards price: it keeps the best candidate so
//!    far under [`ShardRouter::key`].
//! 3. **Drop fault** — if the chosen shard's fault plan loses the
//!    request, it is counted and never queued.
//! 4. **Admission control** — if the winning candidate's queue delay
//!    alone already reaches the deadline, the request is rejected
//!    immediately (backpressure: the client hears "no" at arrival
//!    instead of a late answer).
//! 5. **Exit selection** — a visual request runs the most accurate exit
//!    of *its shard's* exit table whose predicted (batch-aware) latency
//!    still fits the remaining slack; EMG requests have a fixed cost and
//!    never batch. With degradation off, visual requests always run the
//!    top exit; with `exit_pin` set they always run that exit (a free
//!    choice at dispatch — the exits are heads of one resident network,
//!    not separate models to swap in).
//! 6. **Outcome** — read off the request's batch row once the sweep ends
//!    (members share the batch's finish time); completion after the
//!    deadline is a miss; the result still ships (the prosthesis fuses
//!    stale frames rather than none).
//!
//! Batches execute as one kernel, so one noise draw — the leader's — and
//! the fault factor sampled at dispatch apply to the whole batch.
//!
//! # One run, one ledger
//!
//! The event loop only appends: a row per dispatch to `BatchSoa`, the
//! batch each request started in (a `u32`, or a small `Refusal` record
//! in arrival order for a request rejected or dropped), and each
//! controller hot-swap to a swap log. `BatchSoa` is the only result
//! ledger: a started request's queue delay, rung, service, batch size,
//! generation, degraded flag and status are read off its batch's row.
//! Everything the run reports is a projection of that `RunLedger`, taken
//! in one arrival-order pass over the requests (`RunLedger::settle`) that
//! feeds the [`Timeline`]'s cells, the `obs` flush and the
//! [`RequestOutcome`] records together; the batch starts and the residual
//! fold are read off the batch rows before it. A batch is priced where
//! the loop prices its candidate: a solo dispatch stores its service, and
//! each join overwrites it with the larger batch's. The request pass, the
//! controller's watermark fold and the timeline read that stored service,
//! and the fold and the timeline derive a ladder batch's prediction from
//! its ladder-table entry (`BatchSoa::predicted_us`).
//!
//! # Hot-path layout
//!
//! The loop runs at millions of simulated requests per second, so its
//! bookkeeping is structured for raw throughput without touching the
//! decision logic:
//!
//! * **Struct-of-arrays ledger** — parallel column vectors indexed by
//!   batch id, room for one row per request reserved up front (a run
//!   dispatches at most one batch per request) and the unused capacity
//!   given back before the projection. A request records only its batch
//!   id, 4 B, so a join is a few index writes, never an allocation, and
//!   membership needs no list. A batch row keeps only what outlives its
//!   dispatch: the worker and the tightest deadline live in the shard's
//!   open-batch slot, the only place a join reads them, and so do the
//!   leader's noise draw and the fault factor a join reprices with. A
//!   row is 32 B.
//! * **Ladder generation table** — hot-swaps append to a table of
//!   ladders and their generations; batches hold a `u32` index into it,
//!   so admission under any generation is an index copy, not an `Arc`
//!   clone, and in-flight batches still price on their admission ladder.
//! * **Sorted pending list** — the controller's batches awaiting a
//!   watermark are a `(start, batch)` vector: each watermark stable-sorts
//!   it on start, folds the due prefix and keeps the rest, so the fold
//!   runs in `(start, dispatch order)` and its memory scales with the
//!   batches waiting, not with the run's virtual duration.
//! * **Earliest-worker index** — every shard's worker free times sit in a
//!   min segment tree, all shards' trees in one flat array
//!   (`WorkerIndex`), so a shard's earliest start is one root read
//!   without a stall (O(log W) with one) and updating a worker after a
//!   dispatch or join is O(log W) instead of a scan of the pool; the
//!   update carries the new minimum up in a register. Only the winning
//!   solo dispatch descends the tree to name its worker, exactly the
//!   worker the scan picked: the leftmost with the earliest start, the
//!   stalled prefix held to its release.
//! * **Fault cursors** — each shard reads its compiled fault table
//!   through a [`FaultCursor`] that follows the nondecreasing arrivals:
//!   the stall and the drop threshold at the arrival are one read, and
//!   the service factor at a later start a short walk forward.
//! * **Batch-latency table** — each ladder evaluates its rungs' batched
//!   latencies once, when the curves are attached
//!   ([`TrnLadder::with_batch_curves`]), so batch admission and pricing
//!   read a table instead of a 128-bit multiply and divide per rung. A
//!   solo dispatch reuses the price, noise draw and fault factor its
//!   candidate already computed, and outside jitter windows
//!   `scaled_service` skips the identity fault factor.
//! * **Admission lists** — whether a rung's batching overhead fits
//!   `batch_slack_us` depends only on the ladder and the batch size, so
//!   every ladder-table entry gets its [`AdmissionLists`] when it is
//!   pushed, hot-swapped ladders included: per size, the rungs that pass,
//!   most accurate first. A join compares only those rungs' batched
//!   latencies with its slack — on the stress scenario 0.67 rungs per join
//!   instead of the scan's 12.3.
use crate::batch::{AdmissionLists, Batcher};
use crate::faults::{FaultCursor, FaultPlan, FaultTable};
use crate::ladder::TrnLadder;
use crate::recalib::{RecalibConfig, Recalibrator};
use crate::request::{Request, RequestKind, PPM};
use crate::shard::{Candidate, Shard, ShardRouter};
use crate::timeline::{ResidualSample, Swap, Timeline, TimelineBuilder, TimelineConfig};
use netcut_estimate::refit_scale_ppm;
use netcut_obs as obs;
use obs::ResidualTracker;

/// Final disposition of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Completed within the deadline.
    Served,
    /// Completed, but after the deadline.
    Missed,
    /// Refused at admission: queueing alone would bust the deadline.
    Rejected,
    /// Lost to an injected drop fault before reaching the queue.
    Dropped,
}

/// Everything the runtime decided about one request: 48 bytes. The
/// narrow fields hold what the server bounds: at most
/// [`Server::MAX_SHARDS`] shards, batches of at most
/// [`Server::MAX_BATCH`], ladders of at most [`TrnLadder::MAX_RUNGS`]
/// rungs, and generations below `u32::MAX` (every hot-swap appends to a
/// `u32`-indexed ladder table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Id of the request this outcome belongs to.
    pub id: u64,
    /// Request kind, copied from the input.
    pub kind: RequestKind,
    /// Arrival time, microseconds.
    pub arrival_us: u64,
    /// Time spent waiting for a worker (0 for dropped).
    pub queue_delay_us: u64,
    /// Ladder rung served (`None` for EMG, rejected, and dropped).
    pub rung: Option<u16>,
    /// Actual service time after noise and jitter faults (0 if never
    /// started). Batch members share the whole batch's service time.
    pub service_us: u64,
    /// Shard the request was routed to (the reject/drop shard for
    /// requests that never started).
    pub shard: u16,
    /// Size of the batch the request was served in (1 = solo, 0 if never
    /// started).
    pub batch_size: u16,
    /// Ladder generation of the request's shard at admission (0 until the
    /// closed-loop controller hot-swaps). Requests finish on the
    /// generation they were admitted under, even across a swap.
    pub generation: u32,
    /// Disposition.
    pub status: Status,
}

impl RequestOutcome {
    /// Arrival-to-completion latency, microseconds: queue delay plus
    /// service for a request that started, 0 for one rejected or dropped.
    pub fn latency_us(&self) -> u64 {
        match self.status {
            Status::Served | Status::Missed => self.queue_delay_us + self.service_us,
            Status::Rejected | Status::Dropped => 0,
        }
    }
}

/// Serving runtime parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-request deadline, microseconds.
    pub deadline_us: u64,
    /// Total worker pool size (partitioned across shards).
    pub workers: usize,
    /// `false` pins visual requests to the top rung (`--no-degrade`).
    pub degrade: bool,
    /// Fixed service time of an EMG request, microseconds.
    pub emg_service_us: u64,
    /// Largest batch dynamic batching may form (1 = batching off).
    pub batch_max: usize,
    /// Per-batch slack budget, microseconds: the most extra latency
    /// batching may add over serving the same rung unbatched.
    pub batch_slack_us: u64,
    /// `Some(k)` pins every visual request to exit `k` of its shard's exit
    /// table (clamped to the table top), overriding `degrade` — the
    /// `--exit-table N` operating mode. `None` serves the full table.
    pub exit_pin: Option<usize>,
}

impl Default for ServerConfig {
    /// Paper-calibrated defaults: the 900 µs visual budget and 0.8 ms EMG
    /// cost from the §III-A control loop, two workers, degradation on,
    /// batching off (the real-time control loop runs at batch 1; batching
    /// is the explicit throughput trade-off, opted into per run).
    fn default() -> Self {
        let budget = netcut_hand::LoopBudget::paper();
        ServerConfig {
            deadline_us: budget.visual_budget_us(),
            workers: 2,
            degrade: true,
            emg_service_us: budget.emg_us(),
            batch_max: 1,
            batch_slack_us: 300,
            exit_pin: None,
        }
    }
}

/// Column sentinel for "no rung" / "no batch" in the run ledger.
const NONE_U32: u32 = u32::MAX;

/// Struct-of-arrays ledger of scheduled executions, and the run's only
/// result ledger: column `b` describes batch `b` (a solo dispatch is a
/// batch of one; joins grow it until its virtual start passes), and every
/// request that started reads its result off the row of its batch. A row
/// holds only what the projections read, 32 B; what only a join needs
/// lives in the shard's [`OpenBatch`] slot.
#[derive(Debug)]
struct BatchSoa {
    shard: Vec<u32>,
    start_us: Vec<u64>,
    /// Rung of the shard's ladder ([`NONE_U32`] = EMG).
    rung: Vec<u32>,
    /// Service time, µs, as the dispatch or the latest join priced it:
    /// the rung's batched latency on the admission ladder, scaled by the
    /// leader's noise draw and the fault factor at the batch's start.
    service_us: Vec<u64>,
    /// Index into the run's ladder table: the admission ladder, which
    /// the batch's prediction and generation are read from, so a
    /// hot-swap never touches in-flight work.
    ladder_idx: Vec<u32>,
    /// Member count.
    members: Vec<u32>,
}

impl BatchSoa {
    /// Room for `rows` batches, so the columns never grow past it.
    fn with_capacity(rows: usize) -> Self {
        BatchSoa {
            shard: Vec::with_capacity(rows),
            start_us: Vec::with_capacity(rows),
            rung: Vec::with_capacity(rows),
            service_us: Vec::with_capacity(rows),
            ladder_idx: Vec::with_capacity(rows),
            members: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.start_us.len()
    }

    fn push_solo(
        &mut self,
        shard: u32,
        start_us: u64,
        rung: u32,
        service_us: u64,
        ladder_idx: u32,
    ) -> usize {
        let b = self.len();
        self.shard.push(shard);
        self.start_us.push(start_us);
        self.rung.push(rung);
        self.service_us.push(service_us);
        self.ladder_idx.push(ladder_idx);
        self.members.push(1);
        b
    }

    /// Gives back the capacity past the last row.
    fn shrink_to_fit(&mut self) {
        self.shard.shrink_to_fit();
        self.start_us.shrink_to_fit();
        self.rung.shrink_to_fit();
        self.service_us.shrink_to_fit();
        self.ladder_idx.shrink_to_fit();
        self.members.shrink_to_fit();
    }

    /// Ladder batch `b`'s predicted latency, µs: its rung's batched
    /// latency under its admission ladder's calibration — identical to
    /// the raw curve at generation 0, corrected after a hot-swap so OBS002
    /// sees the recovery.
    fn predicted_us(&self, b: usize, ladders: &[TrnLadder]) -> u64 {
        ladders[self.ladder_idx[b] as usize]
            .predicted_batch_latency_us(self.rung[b] as usize, self.members[b] as usize)
    }
}

/// A shard's joinable batch: its [`BatchSoa`] row plus the state only a
/// join reads. The slot is the one way a join reaches a batch, so this
/// state ends with it.
#[derive(Debug, Clone, Copy)]
struct OpenBatch {
    batch: usize,
    worker: usize,
    /// Tightest absolute deadline across members.
    tightest_abs_us: u64,
    /// The leader's noise draw: one kernel, one draw.
    leader_noise_ppm: u64,
    /// Fault service factor at the batch's start.
    fault_ppm: u64,
}

/// A request that never started — refused at admission or lost to a drop
/// fault — as the loop recorded it. Refusals are kept in arrival order.
#[derive(Debug, Clone, Copy)]
struct Refusal {
    queue_delay_us: u64,
    /// The shard's ladder generation at the request's arrival.
    generation: u32,
    shard: u16,
    status: Status,
}

/// Everything one run decided, as the event loop appended it. Outcomes,
/// the timeline and the registry flush are projections of this ledger;
/// none of them feeds back into a run.
struct RunLedger<'a> {
    server: &'a Server,
    requests: &'a [Request],
    /// `batch_of[i]`: the batch request `i` started in, or [`NONE_U32`]
    /// if it never started and has a [`Refusal`] instead.
    batch_of: Vec<u32>,
    refusals: Vec<Refusal>,
    batches: BatchSoa,
    /// The run's ladder table, which `BatchSoa::ladder_idx` indexes: every
    /// shard's starting ladder, then each hot-swapped one.
    ladders: Vec<TrnLadder>,
    /// Each ladder-table entry's generation.
    generations: Vec<u32>,
    /// Hot-swaps in the order the controller made them.
    swaps: Vec<Swap>,
    /// Controller triggers, including those whose refit or swap declined.
    triggers: u64,
}

impl RunLedger<'_> {
    /// The outcomes and the windowed [`Timeline`] under `cfg`. Each
    /// shard's ladder batches feed the residual fold in (start, dispatch
    /// order). A shard's batches start in dispatch order unless
    /// overlapping stall windows release a worker before their merged
    /// release instant, so each shard's stable sort is mostly one run
    /// check.
    fn project(self, cfg: &TimelineConfig) -> (Vec<RequestOutcome>, Timeline) {
        let b = &self.batches;
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); self.server.shards.len()];
        for i in 0..b.len() {
            if b.rung[i] != NONE_U32 {
                by_shard[b.shard[i] as usize].push(ledger_u32(i));
            }
        }
        for list in &mut by_shard {
            list.sort_by_key(|&i| b.start_us[i as usize]);
        }
        self.project_in(cfg, by_shard.into_iter().flatten())
    }

    /// [`Self::project`], folding the ladder batches' residual samples in
    /// `order`: every ladder batch once, each shard's in (start, dispatch
    /// order). The fold runs before the request pass, so `order`'s
    /// buffers are freed before the outcome records are allocated.
    fn project_in(
        self,
        cfg: &TimelineConfig,
        order: impl IntoIterator<Item = u32>,
    ) -> (Vec<RequestOutcome>, Timeline) {
        let server = self.server;
        let mut tb = TimelineBuilder::new(*cfg, &server.shards, server.config.deadline_us);
        for &swap in &self.swaps {
            tb.recalibrated(swap);
        }
        let b = &self.batches;
        for i in 0..b.len() {
            tb.batch(b.start_us[i], b.shard[i] as usize);
        }
        tb.fold_residuals(
            self.requests.last().map(|r| r.arrival_us),
            order.into_iter().map(|i| {
                let i = i as usize;
                ResidualSample {
                    start_us: b.start_us[i],
                    shard: b.shard[i] as usize,
                    rung: b.rung[i] as usize,
                    predicted_us: b.predicted_us(i, &self.ladders),
                    observed_us: b.service_us[i],
                }
            }),
        );
        let outcomes = self.settle(Some(&mut tb));
        (outcomes, tb.finish())
    }

    /// The one pass over the requests, in arrival order: settles each
    /// from its batch row — a member's queue delay, rung, service, batch
    /// size, generation and status are its batch's, and its latency is
    /// queue delay plus service — or from its refusal record, feeds `tb`
    /// if there is one, and builds the outcome records, narrowing the
    /// row's shard, rung and member count to the record's widths. Then
    /// flushes the run to the global `obs` registry: one `counter_add` or
    /// `histogram_merge` per series. Counters sum and histograms fold
    /// order-independently, so this leaves the registry exactly as
    /// per-event updates would. Zero counters are skipped (as are empty
    /// histograms, by `histogram_merge`), so no series appears that
    /// per-event updates would not have created.
    fn settle(self, mut tb: Option<&mut TimelineBuilder>) -> Vec<RequestOutcome> {
        let (b, deadline) = (&self.batches, self.server.config.deadline_us);
        let mut refusals = self.refusals.iter();
        let mut by_status = [0u64; 4];
        let mut degraded = 0u64;
        let mut latency_us = obs::Histogram::default();
        let mut queue_delay_us = obs::Histogram::default();
        let mut outcomes = Vec::with_capacity(self.requests.len());
        for (req, &batch) in self.requests.iter().zip(&self.batch_of) {
            let (outcome, below_top) = if batch == NONE_U32 {
                let r = refusals.next().expect("every refused request has a record");
                let outcome = RequestOutcome {
                    id: req.id,
                    kind: req.kind,
                    arrival_us: req.arrival_us,
                    queue_delay_us: r.queue_delay_us,
                    rung: None,
                    service_us: 0,
                    shard: r.shard,
                    batch_size: 0,
                    generation: r.generation,
                    status: r.status,
                };
                (outcome, false)
            } else {
                let i = batch as usize;
                let (rung, entry) = (b.rung[i], b.ladder_idx[i] as usize);
                let queue_delay = b.start_us[i] - req.arrival_us;
                let latency = queue_delay + b.service_us[i];
                latency_us.observe(latency);
                queue_delay_us.observe(queue_delay);
                let outcome = RequestOutcome {
                    id: req.id,
                    kind: req.kind,
                    arrival_us: req.arrival_us,
                    queue_delay_us: queue_delay,
                    rung: (rung != NONE_U32).then(|| {
                        u16::try_from(rung).expect("a ladder has at most MAX_RUNGS rungs")
                    }),
                    service_us: b.service_us[i],
                    shard: u16::try_from(b.shard[i])
                        .expect("a server has at most MAX_SHARDS shards"),
                    batch_size: u16::try_from(b.members[i])
                        .expect("a batch has at most MAX_BATCH members"),
                    generation: self.generations[entry],
                    status: if latency > deadline {
                        Status::Missed
                    } else {
                        Status::Served
                    },
                };
                (
                    outcome,
                    rung != NONE_U32 && (rung as usize) < self.ladders[entry].top(),
                )
            };
            by_status[outcome.status as usize] += 1;
            degraded += u64::from(below_top);
            if let Some(tb) = tb.as_deref_mut() {
                tb.request(
                    outcome.arrival_us,
                    usize::from(outcome.shard),
                    outcome.status,
                    below_top,
                    outcome.queue_delay_us,
                );
            }
            outcomes.push(outcome);
        }
        let mut batch_size = obs::Histogram::default();
        for &members in &b.members {
            batch_size.observe(u64::from(members));
        }
        let [served, missed, rejected, dropped] = by_status;
        // Literal names at the call sites so the repo-level registry-check
        // lint keeps scanning them.
        if served > 0 {
            obs::counter_add("serve.served", served);
        }
        if missed > 0 {
            obs::counter_add("serve.missed", missed);
        }
        if rejected > 0 {
            obs::counter_add("serve.rejected", rejected);
        }
        if dropped > 0 {
            obs::counter_add("serve.dropped", dropped);
        }
        if degraded > 0 {
            obs::counter_add("serve.degraded", degraded);
        }
        obs::histogram_merge("serve.batch_size", &batch_size);
        obs::histogram_merge("serve.latency_us", &latency_us);
        obs::histogram_merge("serve.queue_delay_us", &queue_delay_us);
        if self.triggers > 0 {
            obs::counter_add("recalib.triggers", self.triggers);
        }
        if !self.swaps.is_empty() {
            obs::counter_add("recalib.swaps", self.swaps.len() as u64);
        }
        for swap in &self.swaps {
            obs::gauge_set("recalib.scale_ppm", swap.calib_ppm as i64);
        }
        outcomes
    }
}

/// Emits one `serve.request` span per started request: batch by batch in
/// dispatch order, each batch's members in arrival order. A counting pass
/// over `members` places each batch's members, so the order is rebuilt
/// only when a trace sink is installed.
fn trace_requests(requests: &[Request], batch_of: &[u32], b: &BatchSoa) {
    // next[k]: where batch k's next member goes in `order`.
    let mut next = Vec::with_capacity(b.len());
    let mut started = 0usize;
    for &members in &b.members {
        next.push(started);
        started += members as usize;
    }
    let mut order = vec![0usize; started];
    for (i, &batch) in batch_of.iter().enumerate() {
        if batch != NONE_U32 {
            let slot = &mut next[batch as usize];
            order[*slot] = i;
            *slot += 1;
        }
    }
    for i in order {
        let (req, k) = (&requests[i], batch_of[i] as usize);
        let queue_delay = b.start_us[k] - req.arrival_us;
        let mut span = obs::span("serve.request");
        span.field("id", req.id);
        span.field("shard", b.shard[k] as usize);
        span.field("batch_size", b.members[k] as usize);
        span.field("queue_delay_us", queue_delay);
        span.field("service_us", b.service_us[k]);
        span.field("latency_us", queue_delay + b.service_us[k]);
        if b.rung[k] != NONE_U32 {
            span.field("rung", b.rung[k] as usize);
        }
    }
}

/// The closed-loop controller's per-run state: its own residual window,
/// the next watermark, batches awaiting fold, and per-shard cooldowns.
struct Controller<'a> {
    cfg: RecalibConfig,
    recalibrator: &'a dyn Recalibrator,
    tracker: ResidualTracker,
    next_check_us: u64,
    /// `(start_us, batch)` of every batch not yet folded into the tracker,
    /// drained at each watermark by [`drain_due`].
    pending: Vec<(u64, u32)>,
    /// Watermark of each shard's last trigger, swap or decline: the
    /// cooldown runs from here.
    last_trigger_us: Vec<Option<u64>>,
}

/// Calls `fold` on every pending batch that started at or before
/// `watermark_us`, in `(start, dispatch order)`, and keeps the rest.
///
/// The sort is stable, so ties on start keep vector order. That is
/// dispatch order: entries are pushed in dispatch order, and every entry
/// a watermark leaves behind was dispatched before every entry pushed
/// after it.
fn drain_due(pending: &mut Vec<(u64, u32)>, watermark_us: u64, mut fold: impl FnMut(u32)) {
    pending.sort_by_key(|&(start_us, _)| start_us);
    let due = pending.partition_point(|&(start_us, _)| start_us <= watermark_us);
    for &(_, b) in &pending[..due] {
        fold(b);
    }
    pending.drain(..due);
}

/// Every shard's worker free times under one leftmost-minimum index: a
/// min segment tree per shard, all in one flat array. Shard `s`'s tree
/// has `cap` leaves (its worker count rounded up to a power of two); node
/// `k` lives at `tree[base + k]` for `k` in `1..2 * cap`, its children are
/// `2k` and `2k + 1`, and worker `w` is leaf `cap + w`. Padding leaves
/// hold `u64::MAX`, so they never win a minimum, and sit right of every
/// worker, so they never win a tie. Queries and updates are O(log W), and
/// a free time may move either way: a join that moves its batch to a
/// faster rung lowers its worker's.
struct WorkerIndex {
    /// `(base, cap, workers)` per shard.
    shards: Vec<(usize, usize, usize)>,
    tree: Vec<u64>,
}

impl WorkerIndex {
    /// Every worker free at time 0.
    fn new(workers: impl IntoIterator<Item = usize>) -> Self {
        let mut shards = Vec::new();
        let mut len = 0;
        for w in workers {
            let cap = w.next_power_of_two();
            shards.push((len, cap, w));
            len += 2 * cap;
        }
        let mut tree = vec![u64::MAX; len];
        for &(base, cap, w) in &shards {
            let t = &mut tree[base..base + 2 * cap];
            t[cap..cap + w].fill(0);
            for k in (1..cap).rev() {
                t[k] = t[2 * k].min(t[2 * k + 1]);
            }
        }
        WorkerIndex { shards, tree }
    }

    /// The earliest start shard `s` offers a request arriving at `now`,
    /// and the first worker [`Self::worker`] searches from: the start is
    /// the least `max(free, now)` over the workers, where the first
    /// `stall_count` are also held until `stall_until`. Stall faults hold
    /// a prefix of the pool, so the worker is the leftmost one reaching
    /// that start; any other tie-break changes outcomes. With
    /// `T = max(now, stall_until)` and `h` held workers, the held prefix
    /// can start at `p = max(min free[..h], T)` and the rest at
    /// `q = max(min free[h..], now)`; the prefix wins ties because it
    /// lies left, and within either part the leftmost worker whose free
    /// time is at most the part's start is the scan's pick. Without a
    /// stall this is one root read.
    fn earliest(&self, s: usize, now: u64, stall_count: u64, stall_until: u64) -> (u64, usize) {
        let (base, cap, workers) = self.shards[s];
        let t = &self.tree[base..base + 2 * cap];
        let held = stall_count.min(workers as u64) as usize;
        let release = stall_until.max(now);
        if held == 0 || release == now {
            return (t[1].max(now), 0);
        }
        let p = range_min(t, cap, 0, held).max(release);
        let q = range_min(t, cap, held, workers).max(now);
        if p <= q {
            (p, 0)
        } else {
            (q, held)
        }
    }

    /// The worker behind [`Self::earliest`]'s `(start, from)`: the
    /// leftmost worker of shard `s` at or right of `from` free by
    /// `start`. It names the scan's pick while no [`Self::set`] ran in
    /// between.
    fn worker(&self, s: usize, from: usize, start: u64) -> usize {
        let (base, cap, _) = self.shards[s];
        leftmost_at_most(&self.tree[base..base + 2 * cap], cap, from, start)
    }

    /// Sets worker `w` of shard `s` free at `free_us`. The new minimum
    /// of each subtree on the way up stays in a register: an ancestor is
    /// the smaller of it and the sibling's, so no node stored on the walk
    /// is read back.
    fn set(&mut self, s: usize, w: usize, free_us: u64) {
        let (base, cap, _) = self.shards[s];
        let t = &mut self.tree[base..base + 2 * cap];
        let (mut k, mut m) = (cap + w, free_us);
        t[k] = m;
        while k > 1 {
            m = m.min(t[k ^ 1]);
            k >>= 1;
            t[k] = m;
        }
    }

    /// Workers of shard `s` still busy at `now` — O(W), for the `obs`
    /// gauges only.
    fn busy(&self, s: usize, now: u64) -> usize {
        let (base, cap, workers) = self.shards[s];
        let leaves = base + cap;
        self.tree[leaves..leaves + workers]
            .iter()
            .filter(|&&f| f > now)
            .count()
    }
}

/// Minimum over leaves `lo..hi` of one shard's tree (`u64::MAX` if empty).
fn range_min(t: &[u64], cap: usize, lo: usize, hi: usize) -> u64 {
    let (mut l, mut r) = (cap + lo, cap + hi);
    let mut m = u64::MAX;
    while l < r {
        if l & 1 == 1 {
            m = m.min(t[l]);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            m = m.min(t[r]);
        }
        l >>= 1;
        r >>= 1;
    }
    m
}

/// The leftmost leaf at or right of `lo` holding at most `x`, in one
/// shard's tree. The caller guarantees one exists.
fn leftmost_at_most(t: &[u64], cap: usize, lo: usize, x: u64) -> usize {
    // From the root when every leaf is in range; otherwise walk right
    // along the subtrees tiling `lo..` until one holds a hit. Then descend
    // into that subtree's leftmost hit.
    let mut k = if lo == 0 { 1 } else { cap + lo };
    while t[k] > x {
        while k & 1 == 1 {
            k >>= 1;
        }
        k += 1;
    }
    while k < cap {
        k = 2 * k + usize::from(t[2 * k] > x);
    }
    k - cap
}

/// The serving runtime: device shards and a configuration.
#[derive(Debug, Clone)]
pub struct Server {
    shards: Vec<Shard>,
    config: ServerConfig,
}

/// Service scaling: `base × noise × fault`, both factors in ppm,
/// truncating after each multiply, floor 1 µs. Runs in `u64` while both
/// products fit (the same quotients, without a 128-bit divide), in
/// `u128` otherwise. Outside jitter windows the fault factor is exactly
/// `PPM`, whose multiply and divide give back their operand, so they are
/// skipped.
fn scaled_service(base_us: u64, noise_ppm: u64, fault_ppm: u64) -> u64 {
    if let Some(product) = base_us.checked_mul(noise_ppm) {
        let noisy = product / PPM;
        if fault_ppm == PPM {
            return noisy.max(1);
        }
        if let Some(product) = noisy.checked_mul(fault_ppm) {
            return (product / PPM).max(1);
        }
    }
    let noisy = u128::from(base_us) * u128::from(noise_ppm) / u128::from(PPM);
    (noisy * u128::from(fault_ppm) / u128::from(PPM)).max(1) as u64
}

impl Server {
    /// Most shards a server takes: an outcome record names its shard in
    /// a `u16`.
    pub const MAX_SHARDS: usize = u16::MAX as usize;

    /// Largest `batch_max` a server takes: an outcome record carries its
    /// batch size in a `u16`.
    pub const MAX_BATCH: usize = u16::MAX as usize;

    /// Builds a single-shard server — the unsharded path, bit-compatible
    /// with runs from before sharding existed. Its shard has zero jitter,
    /// so every service-noise draw is exactly `PPM`.
    ///
    /// # Panics
    /// Panics if the configuration has zero workers or a zero deadline.
    pub fn new(ladder: TrnLadder, config: ServerConfig, faults: FaultPlan) -> Self {
        let shard = Shard {
            name: "default".to_owned(),
            ladder,
            workers: config.workers,
            faults,
            noise_seed: 0,
            jitter_ppm: 0,
        };
        Server::with_shards(vec![shard], config)
    }

    /// Builds a sharded server. Shard worker counts must sum to
    /// `config.workers`.
    ///
    /// # Panics
    /// Panics on zero shards or more than [`Self::MAX_SHARDS`], a shard
    /// with zero workers, a worker-count mismatch, a zero deadline, or a
    /// `batch_max` of zero or above [`Self::MAX_BATCH`].
    pub fn with_shards(shards: Vec<Shard>, config: ServerConfig) -> Self {
        assert!(
            (1..=Self::MAX_SHARDS).contains(&shards.len()),
            "a server takes 1 to {} shards",
            Self::MAX_SHARDS
        );
        assert!(
            shards.iter().all(|s| s.workers > 0),
            "every shard needs at least one worker"
        );
        assert_eq!(
            shards.iter().map(|s| s.workers).sum::<usize>(),
            config.workers,
            "shard workers must sum to the configured pool size"
        );
        assert!(config.deadline_us > 0, "deadline must be positive");
        assert!(
            (1..=Self::MAX_BATCH).contains(&config.batch_max),
            "batch_max must be 1 to {}",
            Self::MAX_BATCH
        );
        Server { shards, config }
    }

    /// The ladder of shard 0 (the only ladder for unsharded servers).
    pub fn ladder(&self) -> &TrnLadder {
        &self.shards[0].ladder
    }

    /// All shards, routing order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Runs the simulation over `requests` (must be sorted by arrival
    /// time) and returns one outcome per request, in arrival order.
    ///
    /// # Panics
    /// Panics if `requests` is not sorted by `arrival_us`, or holds
    /// `u32::MAX` requests or more (the run ledger's batch ids are `u32`).
    pub fn run(&self, requests: &[Request]) -> Vec<RequestOutcome> {
        self.simulate(requests, None).settle(None)
    }

    /// Runs the simulation and additionally records the windowed
    /// [`Timeline`] under `cfg`: per-(window, shard) disposition counts,
    /// queue quantiles, residual EWMAs, burn rates, and `OBS0xx` alerts.
    /// The outcomes are byte-identical to [`Server::run`]'s — the
    /// timeline is projected from the finished run, it never steers it.
    ///
    /// # Panics
    /// Panics if `requests` is not sorted by `arrival_us`, or holds
    /// `u32::MAX` requests or more.
    pub fn run_with_timeline(
        &self,
        requests: &[Request],
        cfg: &TimelineConfig,
    ) -> (Vec<RequestOutcome>, Timeline) {
        self.simulate(requests, None).project(cfg)
    }

    /// Runs the simulation with the closed-loop controller armed: at
    /// every `recalib.watermark_us` of virtual time the controller folds
    /// closed batches into its own residual window, and when a shard's
    /// drift crosses `recalib.drift_ppm` (with `min_samples` accumulated
    /// and the cooldown expired) it refits the calibration factor from
    /// the recent-sample window, asks `recalibrator` for the corrected
    /// ladder, and hot-swaps it under a bumped generation. Queued and
    /// in-flight requests finish on their admission generation; the
    /// timeline gains an OBS005 alert per swap.
    ///
    /// # Panics
    /// Panics if `requests` is not sorted by `arrival_us`, holds
    /// `u32::MAX` requests or more, or `recalib` fails
    /// [`RecalibConfig::validate`].
    pub fn run_recalibrating(
        &self,
        requests: &[Request],
        cfg: &TimelineConfig,
        recalib: &RecalibConfig,
        recalibrator: &dyn Recalibrator,
    ) -> (Vec<RequestOutcome>, Timeline) {
        self.simulate(requests, Some((recalib, recalibrator)))
            .project(cfg)
    }

    /// The event loop: records the batch each request started in (or a
    /// [`Refusal`]), one [`BatchSoa`] row per dispatch and one swap-log
    /// entry per hot-swap. Everything a run reports is projected from the
    /// returned ledger.
    fn simulate<'a>(
        &'a self,
        requests: &'a [Request],
        recalib: Option<(&RecalibConfig, &dyn Recalibrator)>,
    ) -> RunLedger<'a> {
        // Batch ids are `u32`s below the `NONE_U32` sentinel, and a run
        // dispatches at most one batch per request.
        assert!(
            requests.len() < u32::MAX as usize,
            "a run takes fewer than u32::MAX requests"
        );
        assert!(
            requests
                .windows(2)
                .all(|p| p[0].arrival_us <= p[1].arrival_us),
            "requests must arrive in nondecreasing time order"
        );
        let mut run_span = obs::span("serve.run");
        run_span.field("requests", requests.len());
        run_span.field("workers", self.config.workers);
        run_span.field("shards", self.shards.len());
        run_span.field("batch_max", self.config.batch_max);
        run_span.field("degrade", self.config.degrade);

        let deadline = self.config.deadline_us;
        // Labeled per-shard busy-gauge names, built once per run so every
        // shard reports — there is no fixed-size name table to fall off.
        let busy_gauges: Vec<String> = if obs::enabled() {
            (0..self.shards.len())
                .map(|s| obs::labeled("serve.shard.busy", "shard", s))
                .collect()
        } else {
            Vec::new()
        };
        let batcher = Batcher {
            batch_max: self.config.batch_max,
            slack_us: self.config.batch_slack_us,
        };
        // When each shard's workers next idle, indexed for the earliest.
        let mut free_at = WorkerIndex::new(self.shards.iter().map(|s| s.workers));
        // Fault plans compiled to segment tables, each read through a
        // cursor that moves with the arrivals: the stall, the drop
        // threshold and the service factor cost a comparison or two and
        // match the plan's window scans bit for bit (see [`FaultTable`]).
        let fault_tables: Vec<FaultTable> = self.shards.iter().map(|s| s.faults.table()).collect();
        let mut faults: Vec<FaultCursor<'_>> =
            fault_tables.iter().map(FaultTable::cursor).collect();
        // open[s]: shard s's joinable batch, if any.
        let mut open: Vec<Option<OpenBatch>> = vec![None; self.shards.len()];
        // A run dispatches at most one batch per request.
        let mut batches = BatchSoa::with_capacity(requests.len());
        let mut batch_of: Vec<u32> = Vec::with_capacity(requests.len());
        let mut refusals: Vec<Refusal> = Vec::new();
        // The generation-tagged serving state: admission reads the shard's
        // current ladder and generation through `cur_ladder`; hot-swaps
        // append to both tables and repoint the index, so in-flight
        // batches keep pricing on their admission entry.
        let mut ladder_table: Vec<TrnLadder> =
            self.shards.iter().map(|s| s.ladder.clone()).collect();
        let mut ladder_gen: Vec<u32> = vec![0; self.shards.len()];
        // Batch admission lists, one per ladder-table entry, built as the
        // entry is pushed (none when batching is off).
        let degrade = self.config.degrade;
        let mut admission: Vec<AdmissionLists> = if batcher.enabled() {
            ladder_table
                .iter()
                .map(|l| batcher.lists(l, degrade))
                .collect()
        } else {
            Vec::new()
        };
        let mut cur_ladder: Vec<u32> = (0..self.shards.len()).map(ledger_u32).collect();
        let mut swaps: Vec<Swap> = Vec::new();
        let mut triggers = 0u64;
        let mut controller = recalib.map(|(cfg, recalibrator)| {
            cfg.validate();
            let lens: Vec<usize> = self.shards.iter().map(|s| s.ladder.len()).collect();
            Controller {
                cfg: *cfg,
                recalibrator,
                tracker: ResidualTracker::new(&lens, obs::DEFAULT_ALPHA_PPM)
                    .with_window(cfg.window),
                next_check_us: cfg.watermark_us,
                pending: Vec::new(),
                last_trigger_us: vec![None; self.shards.len()],
            }
        });

        for req in requests {
            let now = req.arrival_us;
            // Saturating: a deadline near `u64::MAX` means "never late",
            // not a wrapped instant in the past.
            let abs_deadline = now.saturating_add(deadline);

            // Closed-loop control, strictly at virtual-time watermarks:
            // fold batches that can no longer grow into the controller's
            // residual window, then trigger any due recalibrations.
            if let Some(ctl) = controller.as_mut() {
                while now >= ctl.next_check_us {
                    let watermark = ctl.next_check_us;
                    ctl.next_check_us += ctl.cfg.watermark_us;
                    // Virtual-time order, dispatch order on ties — the
                    // fold is a pure function of the run.
                    let tracker = &mut ctl.tracker;
                    drain_due(&mut ctl.pending, watermark, |b| {
                        let b = b as usize;
                        let (r, s) = (batches.rung[b], batches.shard[b] as usize);
                        if r != NONE_U32 && (r as usize) < tracker.rungs(s) {
                            let predicted = batches.predicted_us(b, &ladder_table);
                            tracker.observe(s, r as usize, predicted, batches.service_us[b]);
                        }
                    });
                    for s in 0..self.shards.len() {
                        if ctl.tracker.shard_samples(s) < ctl.cfg.min_samples
                            || ctl.tracker.max_drift_ppm(s) < ctl.cfg.drift_ppm
                            || ctl.last_trigger_us[s]
                                .is_some_and(|t| watermark < t + ctl.cfg.cooldown_us)
                        {
                            continue;
                        }
                        triggers += 1;
                        // Every trigger arms the cooldown, swap or decline;
                        // a decline leaves tracker, generation and ladder.
                        ctl.last_trigger_us[s] = Some(watermark);
                        let Some(scale) = refit_scale_ppm(ctl.tracker.recent_samples(s)) else {
                            continue;
                        };
                        let calib = ladder_table[cur_ladder[s] as usize].calib_ppm();
                        let new_calib = ((u128::from(calib) * u128::from(scale)) / u128::from(PPM))
                            .max(1) as u64;
                        // A generation never exceeds its entry's table index,
                        // so the new entry's index bounds the bumped one.
                        let entry = u32::try_from(ladder_table.len())
                            .expect("ladder-table indices stay below u32::MAX");
                        let generation = ladder_gen[cur_ladder[s] as usize] + 1;
                        let Some(swapped) =
                            ctl.recalibrator
                                .recalibrate(s, u64::from(generation), new_calib)
                        else {
                            continue;
                        };
                        if batcher.enabled() {
                            admission.push(batcher.lists(&swapped, degrade));
                        }
                        ladder_table.push(swapped);
                        ladder_gen.push(generation);
                        cur_ladder[s] = entry;
                        swaps.push(Swap {
                            t_us: watermark,
                            shard: s,
                            generation: u64::from(generation),
                            calib_ppm: new_calib,
                        });
                        ctl.tracker.reset_shard(s);
                        // The open batch was admitted under the old
                        // generation: close it so no batch spans a swap.
                        open[s] = None;
                    }
                }
            }

            // Batches whose virtual start has passed can no longer grow.
            for slot in &mut open {
                if slot.is_some_and(|o| batches.start_us[o.batch] <= now) {
                    *slot = None;
                }
            }

            // One solo candidate per shard, plus a join candidate where an
            // open batch can legally absorb this request, each routed as
            // it is priced: only the best so far is kept.
            let mut best: Option<(Candidate, DispatchPlan)> = None;
            for (s, shard) in self.shards.iter().enumerate() {
                let ladder = &ladder_table[cur_ladder[s] as usize];
                let fault = &mut faults[s];
                fault.advance(now);
                let (stall_count, stall_until) = fault.stall();
                let (start, from) = free_at.earliest(s, now, stall_count, stall_until);
                let queue_delay = start - now;
                let (rung, base_us) = match req.kind {
                    RequestKind::Emg => (None, self.config.emg_service_us),
                    RequestKind::Visual => {
                        let r = match self.config.exit_pin {
                            Some(pin) => pin.min(ladder.top()),
                            None if degrade => ladder.select(queue_delay, deadline),
                            None => ladder.top(),
                        };
                        (Some(r), ladder.rung(r).latency_us)
                    }
                };
                let noise_ppm = shard.draw_noise_ppm(req.id);
                let fault_ppm = fault.service_factor_ppm(start);
                let service = scaled_service(base_us, noise_ppm, fault_ppm);
                route(
                    &mut best,
                    Candidate {
                        shard: s,
                        join: false,
                        start_us: start,
                        completion_us: start + service,
                        admissible: queue_delay < deadline,
                    },
                    DispatchPlan::Solo {
                        from,
                        rung,
                        service,
                        noise_ppm,
                        fault_ppm,
                    },
                );

                if req.kind == RequestKind::Visual && batcher.enabled() {
                    if let Some(o) = open[s] {
                        let b = o.batch;
                        let size = batches.members[b] as usize + 1;
                        let batch_start = batches.start_us[b];
                        let tightest = o.tightest_abs_us.min(abs_deadline);
                        let admitted = match self.config.exit_pin {
                            Some(pin) => {
                                batcher.admit_pinned(ladder, batch_start, tightest, size, pin)
                            }
                            None => admission[cur_ladder[s] as usize].admit(
                                ladder,
                                batch_start,
                                tightest,
                                size,
                            ),
                        };
                        if let Some(r) = admitted {
                            let service = scaled_service(
                                ladder.batch_latency_us(r, size),
                                o.leader_noise_ppm,
                                o.fault_ppm,
                            );
                            route(
                                &mut best,
                                Candidate {
                                    shard: s,
                                    join: true,
                                    start_us: batch_start,
                                    completion_us: batch_start + service,
                                    admissible: true,
                                },
                                DispatchPlan::Join {
                                    rung: r,
                                    tightest_abs_us: tightest,
                                    service,
                                },
                            );
                        }
                    }
                }
            }

            let (cand, plan) = best.expect("at least one shard offers a candidate");
            let s = cand.shard;
            let generation = ladder_gen[cur_ladder[s] as usize];

            if faults[s].should_drop(req.id) {
                refusals.push(Refusal {
                    queue_delay_us: 0,
                    generation,
                    shard: u16::try_from(s).expect("a server has at most MAX_SHARDS shards"),
                    status: Status::Dropped,
                });
                batch_of.push(NONE_U32);
                continue;
            }

            if obs::enabled() {
                let busy: usize = (0..self.shards.len()).map(|t| free_at.busy(t, now)).sum();
                obs::gauge_set("serve.queue_depth", busy as i64);
                obs::gauge_set(busy_gauges[s].clone(), free_at.busy(s, now) as i64);
            }

            if !cand.admissible {
                refusals.push(Refusal {
                    queue_delay_us: cand.start_us - now,
                    generation,
                    shard: u16::try_from(s).expect("a server has at most MAX_SHARDS shards"),
                    status: Status::Rejected,
                });
                batch_of.push(NONE_U32);
                continue;
            }

            let batch = match plan {
                DispatchPlan::Solo {
                    from,
                    rung,
                    service,
                    noise_ppm,
                    fault_ppm,
                } => {
                    // The tree is as the candidate saw it: same worker.
                    let worker = free_at.worker(s, from, cand.start_us);
                    free_at.set(s, worker, cand.start_us + service);
                    let b = batches.push_solo(
                        ledger_u32(s),
                        cand.start_us,
                        rung.map_or(NONE_U32, ledger_u32),
                        service,
                        cur_ladder[s],
                    );
                    if let Some(ctl) = controller.as_mut() {
                        ctl.pending.push((cand.start_us, ledger_u32(b)));
                    }
                    // Every dispatch supersedes the shard's open batch: the
                    // open batch must stay the last thing scheduled on its
                    // worker, or a later join would overlap its successor.
                    open[s] = (req.kind == RequestKind::Visual
                        && batcher.enabled()
                        && cand.start_us > now)
                        .then_some(OpenBatch {
                            batch: b,
                            worker,
                            tightest_abs_us: abs_deadline,
                            leader_noise_ppm: noise_ppm,
                            fault_ppm,
                        });
                    b
                }
                DispatchPlan::Join {
                    rung,
                    tightest_abs_us,
                    service,
                } => {
                    let o = open[s]
                        .as_mut()
                        .expect("a join extends its shard's open batch");
                    let batch = o.batch;
                    // Open batches close at a swap, so a member's admission
                    // generation is always its batch's generation.
                    assert_eq!(
                        ladder_gen[batches.ladder_idx[batch] as usize], generation,
                        "batch spans a hot-swap"
                    );
                    o.tightest_abs_us = tightest_abs_us;
                    batches.members[batch] += 1;
                    batches.rung[batch] = ledger_u32(rung);
                    batches.service_us[batch] = service;
                    free_at.set(s, o.worker, batches.start_us[batch] + service);
                    if batches.members[batch] as usize >= batcher.batch_max {
                        open[s] = None;
                    }
                    batch
                }
            };
            // A later join can still move the batch's finish time, so the
            // request's result is read off the batch row after the loop.
            batch_of.push(ledger_u32(batch));
        }

        if obs::enabled() {
            trace_requests(requests, &batch_of, &batches);
        }
        run_span.field("outcomes", batch_of.len());
        run_span.field("batches", batches.len());
        batches.shrink_to_fit();
        refusals.shrink_to_fit();
        RunLedger {
            server: self,
            requests,
            batch_of,
            refusals,
            batches,
            ladders: ladder_table,
            generations: ladder_gen,
            swaps,
            triggers,
        }
    }
}

/// `x` as a run-ledger entry: a shard index, a rung or a batch id, each
/// bounded below `u32::MAX` by [`Server::with_shards`],
/// [`TrnLadder::from_rungs`] and the request-count check in
/// [`Server::simulate`].
fn ledger_u32(x: usize) -> u32 {
    u32::try_from(x).expect("run-ledger entries stay below u32::MAX")
}

/// Keeps `(cand, plan)` if it routes strictly before the best so far
/// under [`ShardRouter::key`], so of equal candidates the first offered
/// stands, as in [`ShardRouter::pick`].
fn route(best: &mut Option<(Candidate, DispatchPlan)>, cand: Candidate, plan: DispatchPlan) {
    if best
        .as_ref()
        .is_none_or(|(b, _)| ShardRouter::key(&cand) < ShardRouter::key(b))
    {
        *best = Some((cand, plan));
    }
}

/// What taking a candidate would actually do — precomputed alongside it,
/// so dispatch reuses the candidate's price, noise draw and fault factor.
#[derive(Debug, Clone, Copy)]
enum DispatchPlan {
    Solo {
        /// Where [`WorkerIndex::worker`] starts its search.
        from: usize,
        rung: Option<usize>,
        service: u64,
        noise_ppm: u64,
        fault_ppm: u64,
    },
    Join {
        rung: usize,
        tightest_abs_us: u64,
        service: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultWindow};
    use crate::ladder::Rung;
    use crate::request::Workload;

    fn test_ladder() -> TrnLadder {
        TrnLadder::from_rungs(vec![
            rung("cut3", 100, 0.60),
            rung("cut2", 300, 0.70),
            rung("cut1", 600, 0.80),
            rung("cut0", 750, 0.85),
        ])
    }

    fn curved_ladder() -> TrnLadder {
        test_ladder().with_batch_curves(vec![
            vec![PPM, 1_300_000, 1_500_000, 1_700_000],
            vec![PPM, 1_250_000, 1_450_000, 1_600_000],
            vec![PPM, 1_200_000, 1_400_000, 1_550_000],
            vec![PPM, 1_200_000, 1_350_000, 1_500_000],
        ])
    }

    fn rung(name: &str, latency_us: u64, accuracy: f64) -> Rung {
        Rung {
            name: name.to_string(),
            cutpoint: 0,
            latency_us,
            accuracy,
        }
    }

    fn visual(id: u64, arrival_us: u64) -> Request {
        Request {
            id,
            arrival_us,
            kind: RequestKind::Visual,
        }
    }

    fn config() -> ServerConfig {
        ServerConfig {
            deadline_us: 900,
            workers: 1,
            degrade: true,
            emg_service_us: 800,
            batch_max: 1,
            batch_slack_us: 300,
            exit_pin: None,
        }
    }

    fn shard(name: &str, ladder: TrnLadder, workers: usize, faults: FaultPlan) -> Shard {
        Shard {
            name: name.to_owned(),
            ladder,
            workers,
            faults,
            noise_seed: 0,
            jitter_ppm: 0,
        }
    }

    /// The watermark fold's order contract, against the reference a
    /// `BinaryHeap<Reverse<(start, seq)>>` pops: seeded random pushes over
    /// a narrow start range (ties and out-of-order starts are common),
    /// nondecreasing watermarks, and leftovers carried across watermarks.
    #[test]
    fn drain_due_folds_in_start_then_dispatch_order() {
        use crate::request::splitmix64;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..32u64 {
            let mut draws = 0u64;
            let mut draw = |n: u64| {
                draws += 1;
                splitmix64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ draws) % n
            };
            let mut pending: Vec<(u64, u32)> = Vec::new();
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let (mut seq, mut watermark) = (0u32, 0u64);
            let mut carried = 0usize;
            for round in 0..64 {
                for _ in 0..draw(96) {
                    let start = watermark + draw(48);
                    pending.push((start, seq));
                    heap.push(Reverse((start, seq)));
                    seq += 1;
                }
                watermark += draw(24);
                if round == 63 {
                    watermark = u64::MAX;
                }
                let mut got = Vec::new();
                drain_due(&mut pending, watermark, |b| got.push(b));
                let mut want = Vec::new();
                while let Some(&Reverse((start, b))) = heap.peek() {
                    if start > watermark {
                        break;
                    }
                    heap.pop();
                    want.push(b);
                }
                assert_eq!(got, want, "seed {seed} round {round}");
                // Everything not yet due stays queued for a later watermark.
                assert_eq!(pending.len(), heap.len(), "seed {seed} round {round}");
                assert!(pending.iter().all(|&(start, _)| start > watermark));
                carried += pending.len();
            }
            assert!(pending.is_empty(), "the last watermark drains everything");
            assert!(carried > 0, "seed {seed} never carried a leftover");
        }
    }

    /// The linear earliest-worker scan [`WorkerIndex::earliest`]
    /// replaced, kept as its reference: the leftmost worker with the least
    /// `max(free, now)`, the first `stall_count` also held to
    /// `stall_until`.
    fn scan_earliest(
        free_at: &[u64],
        now: u64,
        stall_count: u64,
        stall_until: u64,
    ) -> (usize, u64) {
        let mut worker = 0usize;
        let mut start = u64::MAX;
        for (w, &f) in free_at.iter().enumerate() {
            let mut avail = f.max(now);
            if (w as u64) < stall_count {
                avail = avail.max(stall_until);
            }
            if avail < start {
                start = avail;
                worker = w;
            }
        }
        (worker, start)
    }

    /// Every internal node of shard `s`'s tree is the smaller of its
    /// children.
    fn assert_min_tree(index: &WorkerIndex, s: usize) {
        let (base, cap, _) = index.shards[s];
        let t = &index.tree[base..base + 2 * cap];
        for k in 1..cap {
            assert_eq!(t[k], t[2 * k].min(t[2 * k + 1]), "shard {s} node {k}");
        }
    }

    /// The index offers exactly the scan's start, and a dispatch's
    /// descent from `earliest`'s search start names exactly the scan's
    /// worker: pools of 1–70 sharing
    /// one flat array with two neighbour shards, free times from a narrow
    /// range (ties are common), updates that raise and lower them
    /// interleaved with the queries, `now` below, among and above the free
    /// times, stall prefixes of 0, 1, W−1, W and more than W workers, and
    /// stall releases before, at and after `now`. After every update each
    /// internal node is the smaller of its children.
    #[test]
    fn worker_index_matches_the_linear_scan() {
        use crate::request::splitmix64;
        for pool in 1..=70usize {
            let mut draws = 0u64;
            let mut draw = |n: u64| {
                draws += 1;
                splitmix64((pool as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ draws) % n
            };
            let sizes = [1 + pool % 3, pool, 2 + pool % 5];
            let mut index = WorkerIndex::new(sizes);
            let mut mirror: Vec<Vec<u64>> = sizes.iter().map(|&w| vec![0; w]).collect();
            for round in 0..60 {
                for _ in 0..=draw(2 * pool as u64) {
                    let s = draw(3) as usize;
                    let w = draw(sizes[s] as u64) as usize;
                    // Base 100, spread 40: lowering updates and ties abound.
                    let f = 100 + draw(40);
                    index.set(s, w, f);
                    mirror[s][w] = f;
                    assert_min_tree(&index, s);
                }
                for s in 0..3 {
                    let w = sizes[s] as u64;
                    for now in [0, 95, 100 + draw(40), 120, 139, 140, 200] {
                        for stall_count in [0, 1, w.saturating_sub(1), w, w + 3, draw(w + 2)] {
                            for stall_until in
                                [now.saturating_sub(7), now, now + 1, now + draw(50), 130]
                            {
                                // The start first, the worker as a dispatch
                                // names it.
                                let (start, from) =
                                    index.earliest(s, now, stall_count, stall_until);
                                assert_eq!(
                                    (index.worker(s, from, start), start),
                                    scan_earliest(&mirror[s], now, stall_count, stall_until),
                                    "pool {pool} round {round} shard {s} now {now} \
                                     stall ({stall_count}, {stall_until}) free {:?}",
                                    mirror[s]
                                );
                            }
                        }
                        let busy = mirror[s].iter().filter(|&&f| f > now).count();
                        assert_eq!(index.busy(s, now), busy);
                    }
                }
            }
        }
    }

    /// How many ladder batches of `ledger` start before a ladder batch
    /// their shard dispatched earlier.
    fn residual_inversions(ledger: &RunLedger<'_>) -> usize {
        let b = &ledger.batches;
        let mut latest = vec![0u64; ledger.server.shards.len()];
        let mut inversions = 0;
        for i in (0..b.len()).filter(|&i| b.rung[i] != NONE_U32) {
            let (s, start) = (b.shard[i] as usize, b.start_us[i]);
            inversions += usize::from(start < latest[s]);
            latest[s] = latest[s].max(start);
        }
        inversions
    }

    /// Overlapping stall windows release a worker before their merged
    /// release instant, so a ladder batch can start before one its shard
    /// dispatched earlier. The per-shard order must still fold each shard
    /// in (start, dispatch order): the timeline equals the one folded in
    /// the global stable sort on start the projection used to make.
    #[test]
    fn residual_order_survives_overlapping_stalls() {
        let stall = |from_ms: u64, to_ms: u64, count: u64| FaultWindow {
            kind: FaultKind::Stall,
            start_us: from_ms * 1_000,
            end_us: to_ms * 1_000,
            magnitude: count,
        };
        let stalled = FaultPlan {
            windows: vec![stall(100, 300, 1), stall(150, 200, 2)],
            seed: 0,
        };
        // Noisy service, so residual samples differ and their fold order
        // shows in the EWMAs.
        let noisy = |name, workers, faults, seed| Shard {
            noise_seed: seed,
            jitter_ppm: 30_000,
            ..shard(name, test_ladder(), workers, faults)
        };
        let cfg = TimelineConfig { window_us: 10_000 };
        for seed in 0..20 {
            let server = Server::with_shards(
                vec![
                    noisy("a", 4, stalled.clone(), seed),
                    noisy("b", 2, FaultPlan::none(), seed),
                ],
                // A deadline long enough for the stalled shard to queue
                // into the release at 200 ms.
                ServerConfig {
                    workers: 6,
                    deadline_us: 5_000,
                    ..config()
                },
            );
            let reqs = Workload {
                rps: 6_000,
                duration_us: 400_000,
                emg_share_ppm: 100_000,
                seed,
            }
            .generate();
            let ledger = server.simulate(&reqs, None);
            assert!(
                residual_inversions(&ledger) > 0,
                "seed {seed}: no inversion"
            );
            let b = &ledger.batches;
            let mut global: Vec<u32> = (0..b.len() as u32)
                .filter(|&i| b.rung[i as usize] != NONE_U32)
                .collect();
            global.sort_by_key(|&i| b.start_us[i as usize]);
            let (_, per_shard) = server.simulate(&reqs, None).project(&cfg);
            assert_eq!(per_shard, ledger.project_in(&cfg, global).1, "seed {seed}");
        }
    }

    /// Runs every reference-matrix leg at seeds 11 and 13, the closed
    /// loop armed where the leg arms it, and the stress scenario cut to
    /// 0.1 s, and hands `check` each leg's name, requests and ledger.
    fn for_each_reference_ledger(mut check: impl FnMut(&str, &[Request], &RunLedger<'_>)) {
        use crate::splane::{reference_matrix, stress_scenario};
        use crate::{Scenario, ScenarioConfig};
        let mut legs: Vec<(String, ScenarioConfig)> = Vec::new();
        for seed in [11, 13] {
            for (leg, cfg) in reference_matrix() {
                legs.push((format!("{leg}@{seed}"), ScenarioConfig { seed, ..cfg }));
            }
        }
        let (_, stress) = stress_scenario();
        legs.push((
            "stress@0.1s".to_owned(),
            ScenarioConfig {
                duration_us: 100_000,
                ..stress
            },
        ));
        for (leg, cfg) in legs {
            let scenario = Scenario::build(cfg);
            let (recalib, recalibrator) = (scenario.recalib_config(), scenario.recalibrator());
            let armed = scenario.config().recalibrate;
            let ledger = scenario.server().simulate(
                &scenario.requests,
                armed.then_some((&recalib, &recalibrator as &dyn Recalibrator)),
            );
            check(&leg, &scenario.requests, &ledger);
        }
    }

    /// Without overlapping stalls a shard's ladder batches start in
    /// dispatch order, so the projection's per-shard sort finds one run:
    /// every reference-matrix leg at two seeds and the stress scenario cut
    /// to 0.1 s.
    #[test]
    fn shards_start_their_ladder_batches_in_dispatch_order() {
        for_each_reference_ledger(|leg, _, ledger| {
            assert!(ledger.batches.rung.iter().any(|&r| r != NONE_U32), "{leg}");
            assert_eq!(residual_inversions(ledger), 0, "{leg}");
        });
    }

    /// The batch column is the run's result ledger, so it must name each
    /// batch's members exactly: a batch counts as many members as requests
    /// name it, every member arrived by its batch's start, batches are
    /// numbered in their leaders' arrival order, and every request that
    /// names no batch has one refusal record, rejected or dropped. Every
    /// reference leg at seeds 11 and 13, closed loop included, and the
    /// stress scenario cut to 0.1 s.
    #[test]
    fn the_batch_column_names_each_batch_exactly() {
        let (mut joined, mut refused) = (0usize, 0usize);
        for_each_reference_ledger(|leg, requests, ledger| {
            let (b, batch_of) = (&ledger.batches, &ledger.batch_of);
            assert_eq!(batch_of.len(), requests.len(), "{leg}");
            let mut named = vec![0u32; b.len()];
            let mut leaders = Vec::with_capacity(b.len());
            for (r, &k) in batch_of.iter().enumerate() {
                if k == NONE_U32 {
                    continue;
                }
                let k = k as usize;
                assert!(
                    requests[r].arrival_us <= b.start_us[k],
                    "{leg}: request {r} arrives after batch {k} starts"
                );
                if named[k] == 0 {
                    leaders.push(k);
                }
                named[k] += 1;
            }
            if let Some(k) = (0..b.len()).find(|&k| named[k] != b.members[k]) {
                panic!(
                    "{leg}: batch {k} counts {} members, {} requests name it",
                    b.members[k], named[k]
                );
            }
            assert!(
                leaders.iter().enumerate().all(|(n, &k)| n == k),
                "{leg}: batch ids out of their leaders' arrival order"
            );
            let unstarted = batch_of.iter().filter(|&&k| k == NONE_U32).count();
            assert_eq!(ledger.refusals.len(), unstarted, "{leg}: refusal records");
            assert!(ledger
                .refusals
                .iter()
                .all(|r| matches!(r.status, Status::Rejected | Status::Dropped)));
            joined += b.members.iter().filter(|&&m| m > 1).count();
            refused += unstarted;
        });
        assert!(joined > 0, "no leg joined a batch");
        assert!(refused > 0, "no leg refused a request");
    }

    /// `base × noise × fault` with both truncating quotients taken in
    /// `u128`, floor 1 µs: what [`scaled_service`] computes on every path.
    fn scaled_in_u128(base_us: u64, noise_ppm: u64, fault_ppm: u64) -> u64 {
        let ppm = u128::from(PPM);
        let noisy = u128::from(base_us) * u128::from(noise_ppm) / ppm;
        (noisy * u128::from(fault_ppm) / ppm).max(1) as u64
    }

    #[test]
    fn scaled_service_takes_the_u128_quotients() {
        // Products that overflow `u64` at either multiply, none that
        // overflow `u128`.
        let bases = [0, 1, 750, 18_446_744_073_709, 1 << 40, u64::MAX / 3];
        let noises = [0, 1, 970_000, PPM, 1_030_000, 2 * PPM];
        let faults = [0, 1, 970_000, PPM, 1_300_000, u64::MAX];
        for base in bases {
            for noise in noises {
                for fault in faults {
                    assert_eq!(
                        scaled_service(base, noise, fault),
                        scaled_in_u128(base, noise, fault),
                        "{base} × {noise} × {fault}"
                    );
                }
            }
        }
    }

    /// A batch is priced once per dispatch and join, and the ledger keeps
    /// the last price. Recomputed here from the batch's final shape, that
    /// price is its rung's batched latency at its member count on its
    /// admission ladder (the fixed cost for EMG), scaled by the leader's
    /// draw and by the fault plan's own window scan at the batch's start;
    /// a ladder batch's prediction is that ladder's calibrated batched
    /// latency. Every
    /// reference leg at seeds 11 and 13, closed loop included, and the
    /// stress scenario cut to 0.1 s.
    #[test]
    fn every_batch_keeps_the_price_of_its_final_shape() {
        let (mut joined, mut swapped) = (0usize, 0usize);
        for_each_reference_ledger(|leg, requests, ledger| {
            let (b, server) = (&ledger.batches, ledger.server);
            let emg_us = server.config.emg_service_us;
            // Each batch's leader: the first request that names it.
            let mut leader = vec![NONE_U32; b.len()];
            for (r, &k) in ledger.batch_of.iter().enumerate().rev() {
                if k != NONE_U32 {
                    leader[k as usize] = r as u32;
                }
            }
            for i in 0..b.len() {
                let shard = &server.shards[b.shard[i] as usize];
                let ladder = &ledger.ladders[b.ladder_idx[i] as usize];
                let base_us = if b.rung[i] == NONE_U32 {
                    emg_us
                } else {
                    let (r, n) = (b.rung[i] as usize, b.members[i] as usize);
                    assert_eq!(
                        b.predicted_us(i, &ledger.ladders),
                        ladder.predicted_batch_latency_us(r, n),
                        "{leg} batch {i} prediction"
                    );
                    ladder.batch_latency_us(r, n)
                };
                let leader = requests[leader[i] as usize].id;
                let service_us = scaled_in_u128(
                    base_us,
                    shard.draw_noise_ppm(leader),
                    shard.faults.service_factor_ppm(b.start_us[i]),
                );
                assert_eq!(b.service_us[i], service_us, "{leg} batch {i} service");
                joined += usize::from(b.members[i] > 1);
                swapped += usize::from(b.ladder_idx[i] as usize >= server.shards.len());
            }
        });
        assert!(joined > 0, "no leg joined a batch");
        assert!(swapped > 0, "no batch ran on a hot-swapped ladder");
    }

    /// A deadline near `u64::MAX` saturates the absolute deadline instead
    /// of wrapping it into the past, so a batched burst batches exactly as
    /// it does under any other deadline too long to bind.
    #[test]
    fn a_deadline_near_u64_max_still_batches() {
        let reqs: Vec<Request> = (0..12).map(|i| visual(i, i * 10)).collect();
        let run = |deadline_us| {
            Server::new(
                curved_ladder(),
                ServerConfig {
                    deadline_us,
                    batch_max: 4,
                    ..config()
                },
                FaultPlan::none(),
            )
            .run(&reqs)
        };
        let unbounded = run(u64::MAX);
        assert!(
            unbounded.iter().any(|o| o.batch_size > 1),
            "no batch formed: {unbounded:?}"
        );
        assert_eq!(unbounded, run(1_000_000_000_000_000_000));
    }

    /// The record's narrowed layout: four `u64`s, then the generation,
    /// shard, batch size, rung, kind and status in 16 bytes.
    #[test]
    fn an_outcome_record_is_48_bytes() {
        assert_eq!(std::mem::size_of::<RequestOutcome>(), 48);
    }

    #[test]
    #[should_panic(expected = "batch_max must be 1 to 65535")]
    fn a_batch_wider_than_the_record_is_refused() {
        let _ = Server::new(
            test_ladder(),
            ServerConfig {
                batch_max: Server::MAX_BATCH + 1,
                ..config()
            },
            FaultPlan::none(),
        );
    }

    #[test]
    fn default_config_matches_the_paper_budget() {
        let c = ServerConfig::default();
        assert_eq!(c.deadline_us, 900);
        assert_eq!(c.emg_service_us, 800);
        assert!(c.degrade);
        assert_eq!(c.batch_max, 1, "batching is opt-in");
    }

    #[test]
    fn unloaded_server_serves_the_top_rung() {
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
        let reqs: Vec<Request> = (0..5).map(|i| visual(i, i * 10_000)).collect();
        let out = server.run(&reqs);
        for o in &out {
            assert_eq!(o.status, Status::Served);
            assert_eq!(o.rung, Some(3));
            assert_eq!(o.queue_delay_us, 0);
            assert_eq!(o.latency_us(), 750);
            assert_eq!(o.batch_size, 1);
            assert_eq!(o.shard, 0);
        }
    }

    #[test]
    fn queue_pressure_walks_down_the_ladder() {
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
        // Burst at t=0: each request sees the previous ones' backlog.
        let reqs: Vec<Request> = (0..4).map(|i| visual(i, 0)).collect();
        let out = server.run(&reqs);
        assert_eq!(out[0].rung, Some(3)); // slack 900 → 750 fits
        assert_eq!(out[1].rung, Some(0)); // slack 150 → only 100 fits
        assert_eq!(out[1].status, Status::Served); // 750 + 100 = 850 ≤ 900
        assert_eq!(out[2].queue_delay_us, 850);
        assert_eq!(out[2].rung, Some(0)); // fallback, slack 50 < 100
        assert_eq!(out[2].status, Status::Missed); // 850 + 100 = 950 > 900
        assert_eq!(out[3].status, Status::Rejected); // delay 950 ≥ 900
    }

    #[test]
    fn no_degrade_pins_the_top_rung_and_misses_more() {
        let burst: Vec<Request> = (0..3).map(|i| visual(i, 0)).collect();
        let degrade = Server::new(test_ladder(), config(), FaultPlan::none());
        let pinned = Server::new(
            test_ladder(),
            ServerConfig {
                degrade: false,
                ..config()
            },
            FaultPlan::none(),
        );
        let miss =
            |outs: &[RequestOutcome]| outs.iter().filter(|o| o.status != Status::Served).count();
        let d = degrade.run(&burst);
        let p = pinned.run(&burst);
        assert!(p.iter().all(|o| o.rung.is_none() || o.rung == Some(3)));
        assert!(miss(&p) > miss(&d), "pinned {p:?} vs degrading {d:?}");
    }

    #[test]
    fn pinned_exit_overrides_degradation() {
        let server = Server::new(
            test_ladder(),
            ServerConfig {
                exit_pin: Some(2),
                ..config()
            },
            FaultPlan::none(),
        );
        // A burst that would normally walk down the ladder: pinned, every
        // visual request runs exit 2 regardless of queue pressure.
        let reqs: Vec<Request> = (0..4).map(|i| visual(i, 0)).collect();
        let out = server.run(&reqs);
        for o in out.iter().filter(|o| o.status != Status::Rejected) {
            assert_eq!(o.rung, Some(2));
        }
        assert!(
            out.iter().any(|o| o.status == Status::Missed),
            "a pin has no fallback: the backlogged tail must miss: {out:?}"
        );
    }

    #[test]
    fn pin_past_the_table_clamps_to_the_top_exit() {
        let server = Server::new(
            test_ladder(),
            ServerConfig {
                exit_pin: Some(99),
                ..config()
            },
            FaultPlan::none(),
        );
        let out = server.run(&[visual(0, 0)]);
        assert_eq!(out[0].rung, Some(3));
        assert_eq!(out[0].latency_us(), 750);
    }

    #[test]
    fn pinned_batches_stay_on_the_pinned_exit() {
        let server = Server::new(
            curved_ladder(),
            ServerConfig {
                batch_max: 4,
                exit_pin: Some(0),
                ..config()
            },
            FaultPlan::none(),
        );
        // Same arrival pattern as `backlog_coalesces_into_a_batch`: the
        // r1/r2 batch forms at the pinned exit (its batched latency fits),
        // and nothing ever serves another exit.
        let out = server.run(&[visual(0, 0), visual(1, 10), visual(2, 20)]);
        assert!(out.iter().all(|o| o.rung == Some(0)), "{out:?}");
        assert_eq!(out[1].batch_size, 2);
        assert_eq!(out[2].batch_size, 2);
    }

    #[test]
    fn emg_requests_bypass_the_ladder() {
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
        let out = server.run(&[Request {
            id: 0,
            arrival_us: 0,
            kind: RequestKind::Emg,
        }]);
        assert_eq!(out[0].rung, None);
        assert_eq!(out[0].service_us, 800);
        assert_eq!(out[0].status, Status::Served);
        assert_eq!(out[0].batch_size, 1);
    }

    #[test]
    fn noise_scales_service_time() {
        // Seed 74332 draws the band's top for request 0: +10%.
        let noisy = Shard {
            noise_seed: 74_332,
            jitter_ppm: 100_000,
            ..shard("a", test_ladder(), 1, FaultPlan::none())
        };
        assert_eq!(noisy.draw_noise_ppm(0), PPM + 100_000);
        let server = Server::with_shards(vec![noisy], config());
        let out = server.run(&[visual(0, 0)]);
        assert_eq!(out[0].service_us, 825); // 750 × 1.1
    }

    #[test]
    fn stall_fault_delays_dispatch() {
        let faults = FaultPlan {
            windows: vec![FaultWindow {
                kind: FaultKind::Stall,
                start_us: 0,
                end_us: 500,
                magnitude: 1,
            }],
            seed: 0,
        };
        let server = Server::new(test_ladder(), config(), faults);
        let out = server.run(&[visual(0, 100)]);
        // Sole worker stalled until t=500: 400 µs queue delay, then the
        // 300 µs rung is the best fit for the remaining 500 µs of slack.
        assert_eq!(out[0].queue_delay_us, 400);
        assert_eq!(out[0].rung, Some(1));
        assert_eq!(out[0].status, Status::Served);
    }

    #[test]
    fn drop_fault_loses_the_request() {
        let faults = FaultPlan {
            windows: vec![FaultWindow {
                kind: FaultKind::Drop,
                start_us: 0,
                end_us: 1000,
                magnitude: PPM, // always drop
            }],
            seed: 9,
        };
        let server = Server::new(test_ladder(), config(), faults);
        let out = server.run(&[visual(0, 10)]);
        assert_eq!(out[0].status, Status::Dropped);
        assert_eq!(out[0].latency_us(), 0);
        assert_eq!(out[0].batch_size, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let reqs = Workload {
            rps: 2000,
            duration_us: 200_000,
            emg_share_ppm: 100_000,
            seed: 7,
        }
        .generate();
        let server = Server::new(
            test_ladder(),
            ServerConfig {
                workers: 2,
                ..config()
            },
            FaultPlan::seeded_demo(7, 200_000, &netcut_sim::DeviceModel::jetson_xavier()),
        );
        let a = server.run(&reqs);
        let b = server.run(&reqs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.status, y.status);
            assert_eq!(x.latency_us(), y.latency_us());
            assert_eq!(x.rung, y.rung);
        }
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_arrivals_are_rejected() {
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
        let _ = server.run(&[visual(0, 100), visual(1, 50)]);
    }

    #[test]
    fn backlog_coalesces_into_a_batch() {
        let server = Server::new(
            curved_ladder(),
            ServerConfig {
                batch_max: 4,
                ..config()
            },
            FaultPlan::none(),
        );
        // r0 starts immediately (not joinable); r1 queues behind it and
        // becomes the open batch; r2 joins r1 instead of queueing again.
        let out = server.run(&[visual(0, 0), visual(1, 10), visual(2, 20)]);
        assert_eq!(out[0].batch_size, 1);
        assert_eq!(out[0].latency_us(), 750);
        // r1: starts at 750 with 160 µs slack → rung 0; r2 joins: batch 2
        // at rung 0 costs 130 µs, finishing at 880.
        assert_eq!(out[1].batch_size, 2);
        assert_eq!(out[2].batch_size, 2);
        assert_eq!(out[1].rung, Some(0));
        assert_eq!(out[1].latency_us(), 880 - 10);
        assert_eq!(out[2].latency_us(), 880 - 20);
        assert_eq!(out[1].status, Status::Served);
        assert_eq!(out[2].status, Status::Served);
    }

    #[test]
    fn zero_slack_budget_never_batches() {
        let reqs = Workload {
            rps: 3000,
            duration_us: 300_000,
            emg_share_ppm: 100_000,
            seed: 11,
        }
        .generate();
        let faults = FaultPlan::seeded_demo(11, 300_000, &netcut_sim::DeviceModel::jetson_xavier());
        let unbatched = Server::new(curved_ladder(), config(), faults.clone());
        let zero_slack = Server::new(
            curved_ladder(),
            ServerConfig {
                batch_max: 8,
                batch_slack_us: 0,
                ..config()
            },
            faults,
        );
        let a = unbatched.run(&reqs);
        let b = zero_slack.run(&reqs);
        // A zero overhead budget rejects every join (batching always adds
        // overhead), so the run degenerates to the unbatched path exactly.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.status, y.status);
            assert_eq!(x.latency_us(), y.latency_us());
            assert_eq!(x.rung, y.rung);
            assert_eq!(x.batch_size, y.batch_size);
        }
    }

    #[test]
    fn second_request_routes_to_the_idle_shard() {
        let server = Server::with_shards(
            vec![
                shard("a", test_ladder(), 1, FaultPlan::none()),
                shard("b", test_ladder(), 1, FaultPlan::none()),
            ],
            ServerConfig {
                workers: 2,
                ..config()
            },
        );
        let out = server.run(&[visual(0, 0), visual(1, 0)]);
        assert_eq!(out[0].shard, 0, "ties break to the lowest shard");
        assert_eq!(out[1].shard, 1, "idle shard finishes sooner");
        assert_eq!(out[1].queue_delay_us, 0);
    }

    #[test]
    fn stalled_shard_spills_to_the_healthy_one() {
        let stalled = FaultPlan {
            windows: vec![FaultWindow {
                kind: FaultKind::Stall,
                start_us: 0,
                end_us: 5_000,
                magnitude: 1,
            }],
            seed: 0,
        };
        let server = Server::with_shards(
            vec![
                shard("a", test_ladder(), 1, stalled),
                shard("b", test_ladder(), 1, FaultPlan::none()),
            ],
            ServerConfig {
                workers: 2,
                ..config()
            },
        );
        // Shard 0's worker is stalled past the deadline — inadmissible —
        // so the request spills to shard 1 instead of being rejected.
        let out = server.run(&[visual(0, 0)]);
        assert_eq!(out[0].shard, 1);
        assert_eq!(out[0].status, Status::Served);
    }

    #[test]
    fn batch_growth_stops_when_the_tightest_deadline_binds() {
        let server = Server::new(
            curved_ladder(),
            ServerConfig {
                batch_max: 8,
                ..config()
            },
            FaultPlan::none(),
        );
        // r1 opens a batch at start 750 with 160 µs of leader slack.
        // Rung 0 batched: 130 µs at 2, 150 at 3, 170 at 4 — so r2 and r3
        // join, but admitting r4 would predict a miss (170 > 160) and the
        // batcher refuses; r4 falls back to a solo dispatch.
        let out = server.run(&[
            visual(0, 0),
            visual(1, 10),
            visual(2, 20),
            visual(3, 30),
            visual(4, 40),
        ]);
        for o in &out[1..4] {
            assert_eq!(o.batch_size, 3);
            assert_eq!(o.rung, Some(0));
            assert_eq!(o.status, Status::Served);
            assert_eq!(o.latency_us(), 900 - o.arrival_us); // finish at 900
        }
        assert_eq!(out[4].batch_size, 1, "join would bust the leader");
        assert_eq!(out[4].status, Status::Missed); // solo behind the batch
    }

    #[test]
    fn recalibration_recovers_the_miss_rate() {
        use crate::recalib::CalibrateOnly;
        // Every observation runs +50% over prediction: uncalibrated, the
        // top rung (750 µs predicted, 1125 µs actual) systematically
        // busts the 900 µs deadline.
        let reqs: Vec<Request> = (0..30).map(|i| visual(i, i * 2_000)).collect();
        let slow = FaultPlan {
            windows: vec![FaultWindow {
                kind: FaultKind::Jitter,
                start_us: 0,
                end_us: 60_000,
                magnitude: 1_500_000,
            }],
            seed: 0,
        };
        let server = Server::new(test_ladder(), config(), slow);
        let rc = RecalibConfig {
            drift_ppm: 200_000,
            cooldown_us: 1_000_000,
            watermark_us: 10_000,
            min_samples: 4,
            window: 16,
        };
        let (out, tl) = server.run_recalibrating(
            &reqs,
            &TimelineConfig::default(),
            &rc,
            &CalibrateOnly::new(vec![test_ladder()]),
        );
        // Before the first watermark: generation 0, top rung, every one a
        // miss. From the 10 ms watermark on: the refit (median ratio
        // 1.5e6 ppm) hot-swaps a 1.5× calibrated ladder, selection drops
        // to the rung whose *calibrated* prediction fits (600 × 1.5 =
        // 900), and every request is served on generation 1.
        for o in &out[..5] {
            assert_eq!(
                (o.status, o.rung, o.generation),
                (Status::Missed, Some(3), 0)
            );
        }
        for o in &out[5..] {
            assert_eq!(
                (o.status, o.rung, o.generation),
                (Status::Served, Some(2), 1)
            );
        }
        let obs005: Vec<_> = tl
            .alerts
            .iter()
            .filter(|a| a.code == obs::alert::AlertCode::Recalibrated)
            .collect();
        assert_eq!(obs005.len(), 1, "one decisive swap, then the loop is calm");
        assert_eq!(obs005[0].t_us, 10_000, "anchored at the watermark");
        assert_eq!(obs005[0].value_ppm, 1_500_000);
        assert_eq!(tl.alert_counts()[4], 1);
    }

    #[test]
    fn quiet_controller_leaves_the_run_bit_identical() {
        use crate::recalib::CalibrateOnly;
        let reqs = Workload {
            rps: 2000,
            duration_us: 200_000,
            emg_share_ppm: 100_000,
            seed: 7,
        }
        .generate();
        let server = Server::new(
            test_ladder(),
            ServerConfig {
                workers: 2,
                ..config()
            },
            FaultPlan::seeded_demo(7, 200_000, &netcut_sim::DeviceModel::jetson_xavier()),
        );
        // A trigger threshold no drift can reach: the armed-but-idle
        // controller must not perturb a single byte of the run.
        let rc = RecalibConfig {
            drift_ppm: u64::MAX,
            ..RecalibConfig::default()
        };
        let (out, tl) = server.run_recalibrating(
            &reqs,
            &TimelineConfig::default(),
            &rc,
            &CalibrateOnly::new(vec![test_ladder()]),
        );
        let (base_out, base_tl) = server.run_with_timeline(&reqs, &TimelineConfig::default());
        assert_eq!(out, base_out);
        assert_eq!(tl.to_jsonl(), base_tl.to_jsonl());
    }
}
