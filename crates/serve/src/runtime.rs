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
//! lives upstream, in scenario set-up (ladder construction and noise
//! precomputation on `EvalContext`'s scoped-thread pool).
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
//!    admissible candidates first (spill), joins preferred on ties.
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
//! 6. **Outcome** — finalized after the sweep from the batch ledger
//!    (members share the batch's finish time); completion after the
//!    deadline is a miss; the result still ships (the prosthesis fuses
//!    stale frames rather than none).
//!
//! Batches execute as one kernel, so one noise draw — the leader's — and
//! the fault factor sampled at dispatch apply to the whole batch.
//!
//! # One run, one ledger
//!
//! The event loop only appends: a row per request to `OutcomeSoa`, a
//! row per dispatch to `BatchSoa`, and each controller hot-swap to a
//! swap log. Once the loop ends, finalization prices every batch and
//! settles its members' rows, and everything the run reports is a
//! projection of that `RunLedger`: the [`Timeline`], the once-per-run
//! flush to the `obs` registry, and the [`RequestOutcome`]s. Batch
//! pricing exists once (`BatchSoa::price`): the controller's watermark
//! fold calls it, and so does finalization, which keeps each price in the
//! ledger for the timeline.
//!
//! # Hot-path layout
//!
//! The loop runs at millions of simulated requests per second, so its
//! bookkeeping is structured for raw throughput without touching the
//! decision logic:
//!
//! * **Struct-of-arrays ledgers** — parallel column vectors indexed by
//!   outcome/batch id, with batch members threaded through a linked-list
//!   arena (`first`/`last`/`next`) so a join is two index writes, never
//!   an allocation.
//! * **Ladder generation table** — hot-swaps append to a table of
//!   ladders; batches hold a `u32` index into it, so admission under any
//!   generation is an index copy, not an `Arc` clone, and in-flight
//!   batches still price on their admission ladder.
//! * **Sorted pending list** — the controller's batches awaiting a
//!   watermark are a `(start, batch)` vector: each watermark stable-sorts
//!   it on start, folds the due prefix and keeps the rest, so the fold
//!   runs in `(start, dispatch order)` and its memory scales with the
//!   batches waiting, not with the run's virtual duration.
//! * **Earliest-worker index** — every shard's worker free times sit in a
//!   min segment tree, all shards' trees in one flat array
//!   (`WorkerIndex`), so finding a shard's earliest worker and updating
//!   one after a dispatch or join are O(log W) instead of a scan of the
//!   pool. It picks exactly the worker the scan did: the leftmost with the
//!   earliest start, the stalled prefix held to its release.
//! * **Batch-latency table** — each ladder evaluates its rungs' batched
//!   latencies once, when the curves are attached
//!   ([`TrnLadder::with_batch_curves`]), so batch admission and pricing
//!   read a table instead of a 128-bit multiply and divide per rung. A
//!   solo dispatch reuses the noise draw and fault factor its candidate
//!   already looked up.
//! * **Admission lists** — whether a rung's batching overhead fits
//!   `batch_slack_us` depends only on the ladder and the batch size, so
//!   every ladder-table entry gets its [`AdmissionLists`] when it is
//!   pushed, hot-swapped ladders included: per size, the rungs that pass,
//!   most accurate first. A join compares only those rungs' batched
//!   latencies with its slack — on the stress scenario 0.67 rungs per join
//!   instead of the scan's 12.3.
use crate::batch::{AdmissionLists, Batcher};
use crate::faults::FaultPlan;
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

/// Everything the runtime decided about one request.
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
    pub rung: Option<usize>,
    /// Actual service time after noise and jitter faults (0 if never
    /// started). Batch members share the whole batch's service time.
    pub service_us: u64,
    /// Arrival-to-completion latency (0 if never started).
    pub latency_us: u64,
    /// Shard the request was routed to (the reject/drop shard for
    /// requests that never started).
    pub shard: usize,
    /// Size of the batch the request was served in (1 = solo, 0 if never
    /// started).
    pub batch_size: usize,
    /// Ladder generation of the request's shard at admission (0 until the
    /// closed-loop controller hot-swaps). Requests finish on the
    /// generation they were admitted under, even across a swap.
    pub generation: u64,
    /// Disposition.
    pub status: Status,
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

/// Column sentinel for "no rung" / "no member" in the SoA ledgers.
const NONE_U32: u32 = u32::MAX;

/// Struct-of-arrays ledger of scheduled executions: column `b` describes
/// batch `b` (a solo dispatch is a batch of one; joins grow it until its
/// virtual start passes). Members are threaded through the shared
/// `next_member` arena in [`OutcomeSoa`]-index space, join order.
#[derive(Debug, Default)]
struct BatchSoa {
    shard: Vec<u32>,
    worker: Vec<u32>,
    start_us: Vec<u64>,
    /// Rung of the shard's ladder ([`NONE_U32`] = EMG).
    rung: Vec<u32>,
    /// Tightest absolute deadline across members.
    tightest_abs_us: Vec<u64>,
    /// The first member's noise draw — one kernel, one draw.
    leader_noise_ppm: Vec<u64>,
    /// Fault service factor sampled at dispatch.
    fault_ppm: Vec<u64>,
    /// Ladder generation the batch was admitted under.
    generation: Vec<u64>,
    /// Index into the run's ladder table — finalization prices the batch
    /// on this, so a hot-swap never touches in-flight work.
    ladder_idx: Vec<u32>,
    /// Head / tail of the member list, outcome-index space.
    first_member: Vec<u32>,
    last_member: Vec<u32>,
    /// Member count.
    members: Vec<u32>,
}

impl BatchSoa {
    fn len(&self) -> usize {
        self.start_us.len()
    }

    #[allow(clippy::too_many_arguments)]
    fn push_solo(
        &mut self,
        shard: u32,
        worker: u32,
        start_us: u64,
        rung: u32,
        tightest_abs_us: u64,
        leader_noise_ppm: u64,
        fault_ppm: u64,
        generation: u64,
        ladder_idx: u32,
        leader: u32,
    ) -> usize {
        let b = self.len();
        self.shard.push(shard);
        self.worker.push(worker);
        self.start_us.push(start_us);
        self.rung.push(rung);
        self.tightest_abs_us.push(tightest_abs_us);
        self.leader_noise_ppm.push(leader_noise_ppm);
        self.fault_ppm.push(fault_ppm);
        self.generation.push(generation);
        self.ladder_idx.push(ladder_idx);
        self.first_member.push(leader);
        self.last_member.push(leader);
        self.members.push(1);
        b
    }

    /// Batch `b`'s `(service, predicted)` latencies, µs: its rung's
    /// batched latency on its admission ladder, scaled by the leader's
    /// noise draw and the dispatch fault factor, against the calibrated
    /// prediction — identical to the raw curve at generation 0, corrected
    /// after a hot-swap so OBS002 sees the recovery. EMG batches run (and
    /// predict) their fixed cost.
    fn price(&self, b: usize, ladders: &[TrnLadder], emg_service_us: u64) -> (u64, u64) {
        let (base_us, predicted) = if self.rung[b] == NONE_U32 {
            (emg_service_us, emg_service_us)
        } else {
            let (r, size) = (self.rung[b] as usize, self.members[b] as usize);
            let ladder = &ladders[self.ladder_idx[b] as usize];
            (
                ladder.batch_latency_us(r, size),
                ladder.predicted_batch_latency_us(r, size),
            )
        };
        let service = scaled_service(base_us, self.leader_noise_ppm[b], self.fault_ppm[b]);
        (service, predicted)
    }
}

/// Struct-of-arrays ledger of per-request results, outcome-index order
/// (= arrival order). Identity columns (`id`, `kind`, `arrival_us`) are
/// not stored — they are read back from the request slice when the
/// [`RequestOutcome`]s are assembled at the end of the run.
#[derive(Debug, Default)]
struct OutcomeSoa {
    queue_delay_us: Vec<u64>,
    /// [`NONE_U32`] = no rung (EMG, rejected, dropped).
    rung: Vec<u32>,
    service_us: Vec<u64>,
    latency_us: Vec<u64>,
    shard: Vec<u32>,
    batch_size: Vec<u32>,
    generation: Vec<u64>,
    /// Served below the admission generation's top rung.
    degraded: Vec<bool>,
    status: Vec<Status>,
}

impl OutcomeSoa {
    fn with_capacity(n: usize) -> Self {
        OutcomeSoa {
            queue_delay_us: Vec::with_capacity(n),
            rung: Vec::with_capacity(n),
            service_us: Vec::with_capacity(n),
            latency_us: Vec::with_capacity(n),
            shard: Vec::with_capacity(n),
            batch_size: Vec::with_capacity(n),
            generation: Vec::with_capacity(n),
            degraded: Vec::with_capacity(n),
            status: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.status.len()
    }

    /// Appends a row; dispatched rows are finalized in place later.
    fn push(&mut self, queue_delay_us: u64, shard: u32, generation: u64, status: Status) {
        self.queue_delay_us.push(queue_delay_us);
        self.rung.push(NONE_U32);
        self.service_us.push(0);
        self.latency_us.push(0);
        self.shard.push(shard);
        self.batch_size.push(0);
        self.generation.push(generation);
        self.degraded.push(false);
        self.status.push(status);
    }
}

/// Everything one run decided, as the event loop appended it and
/// finalization settled it. Outcomes, the timeline and the registry flush
/// are projections of this ledger; none of them feeds back into a run.
struct RunLedger<'a> {
    server: &'a Server,
    requests: &'a [Request],
    out: OutcomeSoa,
    batches: BatchSoa,
    /// Each batch's `(service, predicted)` latencies, µs, dispatch order —
    /// [`BatchSoa::price`] as finalization settled it.
    priced: Vec<(u64, u64)>,
    /// Hot-swaps in the order the controller made them.
    swaps: Vec<Swap>,
    /// Controller triggers, including those whose refit or swap declined.
    triggers: u64,
}

impl RunLedger<'_> {
    /// Projects the windowed [`Timeline`] under `cfg`.
    fn timeline(&self, cfg: &TimelineConfig) -> Timeline {
        let server = self.server;
        let mut tb = TimelineBuilder::new(*cfg, &server.shards, server.config.deadline_us);
        for &swap in &self.swaps {
            tb.recalibrated(swap);
        }
        let b = &self.batches;
        for i in 0..b.len() {
            tb.batch(b.start_us[i], b.shard[i] as usize);
        }
        let out = &self.out;
        for (i, req) in self.requests.iter().enumerate() {
            tb.request(
                req.arrival_us,
                out.shard[i] as usize,
                out.status[i],
                out.degraded[i],
                out.queue_delay_us[i],
            );
        }
        // Ladder batches in (start, dispatch order), the residual fold
        // order, read straight from the ledger.
        let mut order: Vec<u32> = (0..b.len() as u32)
            .filter(|&i| b.rung[i as usize] != NONE_U32)
            .collect();
        order.sort_by_key(|&i| b.start_us[i as usize]);
        tb.finish(order.into_iter().map(|i| {
            let i = i as usize;
            let (observed_us, predicted_us) = self.priced[i];
            ResidualSample {
                start_us: b.start_us[i],
                shard: b.shard[i] as usize,
                rung: b.rung[i] as usize,
                predicted_us,
                observed_us,
            }
        }))
    }

    /// Flushes the run to the global `obs` registry: one `counter_add` or
    /// `histogram_merge` per series. Counters sum and histograms fold
    /// order-independently, so this leaves the registry exactly as
    /// per-event updates would. Zero counters are skipped (as are empty
    /// histograms, by `histogram_merge`), so no series appears that
    /// per-event updates would not have created.
    fn flush_metrics(&self) {
        let out = &self.out;
        let mut by_status = [0u64; 4];
        let mut degraded = 0u64;
        let mut latency_us = obs::Histogram::default();
        let mut queue_delay_us = obs::Histogram::default();
        for i in 0..out.len() {
            by_status[out.status[i] as usize] += 1;
            if matches!(out.status[i], Status::Served | Status::Missed) {
                latency_us.observe(out.latency_us[i]);
                queue_delay_us.observe(out.queue_delay_us[i]);
            }
            degraded += u64::from(out.degraded[i]);
        }
        let mut batch_size = obs::Histogram::default();
        for &members in &self.batches.members {
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
    }

    /// Assembles the public arrival-order outcome records: the SoA
    /// columns plus the request identity fields.
    fn outcomes(self) -> Vec<RequestOutcome> {
        let out = self.out;
        self.requests
            .iter()
            .enumerate()
            .map(|(i, req)| RequestOutcome {
                id: req.id,
                kind: req.kind,
                arrival_us: req.arrival_us,
                queue_delay_us: out.queue_delay_us[i],
                rung: (out.rung[i] != NONE_U32).then_some(out.rung[i] as usize),
                service_us: out.service_us[i],
                latency_us: out.latency_us[i],
                shard: out.shard[i] as usize,
                batch_size: out.batch_size[i] as usize,
                generation: out.generation[i],
                status: out.status[i],
            })
            .collect()
    }

    /// The timeline, then the registry flush, then the outcomes: the
    /// timeline's working buffers are freed before the outcome records
    /// are allocated.
    fn project(self, cfg: &TimelineConfig) -> (Vec<RequestOutcome>, Timeline) {
        let timeline = self.timeline(cfg);
        self.flush_metrics();
        (self.outcomes(), timeline)
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

    /// The worker of shard `s` that starts a request arriving at `now`
    /// earliest, and that start: the leftmost worker minimizing
    /// `max(free, now)`, where the first `stall_count` workers are also
    /// held until `stall_until`. Stall faults hold a prefix of the pool,
    /// so any other tie-break changes outcomes. With
    /// `T = max(now, stall_until)` and `h` held workers,
    /// the held prefix can start at `p = max(min free[..h], T)` and the
    /// rest at `q = max(min free[h..], now)`; the prefix wins ties
    /// because it lies left, and within either part the leftmost worker
    /// whose free time is at most the part's start is the scan's pick.
    fn earliest(&self, s: usize, now: u64, stall_count: u64, stall_until: u64) -> (usize, u64) {
        let (base, cap, workers) = self.shards[s];
        let t = &self.tree[base..base + 2 * cap];
        let held = stall_count.min(workers as u64) as usize;
        let release = stall_until.max(now);
        if held == 0 || release == now {
            let start = t[1].max(now);
            return (leftmost_at_most(t, cap, 0, start), start);
        }
        let p = range_min(t, cap, 0, held).max(release);
        let q = range_min(t, cap, held, workers).max(now);
        if p <= q {
            (leftmost_at_most(t, cap, 0, p), p)
        } else {
            (leftmost_at_most(t, cap, held, q), q)
        }
    }

    /// Sets worker `w` of shard `s` free at `free_us`.
    fn set(&mut self, s: usize, w: usize, free_us: u64) {
        let (base, cap, _) = self.shards[s];
        let t = &mut self.tree[base..base + 2 * cap];
        let mut k = cap + w;
        t[k] = free_us;
        while k > 1 {
            k >>= 1;
            t[k] = t[2 * k].min(t[2 * k + 1]);
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

/// PR4-exact service scaling: `base × noise × fault`, both factors in ppm,
/// truncating after each multiply, floor 1 µs. Runs in `u64` while both
/// products fit (the same quotients, without a 128-bit divide), in
/// `u128` otherwise.
fn scaled_service(base_us: u64, noise_ppm: u64, fault_ppm: u64) -> u64 {
    if let Some(product) = base_us.checked_mul(noise_ppm) {
        if let Some(product) = (product / PPM).checked_mul(fault_ppm) {
            return (product / PPM).max(1);
        }
    }
    let noisy = u128::from(base_us) * u128::from(noise_ppm) / u128::from(PPM);
    (noisy * u128::from(fault_ppm) / u128::from(PPM)).max(1) as u64
}

impl Server {
    /// Builds a single-shard server — the unsharded path, bit-compatible
    /// with runs from before sharding existed. The request's own carried
    /// noise is used (no shard noise table).
    ///
    /// # Panics
    /// Panics if the configuration has zero workers or a zero deadline.
    pub fn new(ladder: TrnLadder, config: ServerConfig, faults: FaultPlan) -> Self {
        let shard = Shard {
            name: "default".to_owned(),
            ladder,
            workers: config.workers,
            faults,
            noise_ppm: Vec::new(),
        };
        Server::with_shards(vec![shard], config)
    }

    /// Builds a sharded server. Shard worker counts must sum to
    /// `config.workers`.
    ///
    /// # Panics
    /// Panics on zero shards, a shard with zero workers, a worker-count
    /// mismatch, a zero deadline, or a zero `batch_max`.
    pub fn with_shards(shards: Vec<Shard>, config: ServerConfig) -> Self {
        assert!(!shards.is_empty(), "server needs at least one shard");
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
        assert!(config.batch_max > 0, "batch_max must be at least 1");
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
    /// Panics if `requests` is not sorted by `arrival_us`.
    pub fn run(&self, requests: &[Request]) -> Vec<RequestOutcome> {
        let ledger = self.simulate(requests, None);
        ledger.flush_metrics();
        ledger.outcomes()
    }

    /// Runs the simulation and additionally records the windowed
    /// [`Timeline`] under `cfg`: per-(window, shard) disposition counts,
    /// queue quantiles, residual EWMAs, burn rates, and `OBS0xx` alerts.
    /// The outcomes are byte-identical to [`Server::run`]'s — the
    /// timeline is projected from the finished run, it never steers it.
    ///
    /// # Panics
    /// Panics if `requests` is not sorted by `arrival_us`.
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
    /// Panics if `requests` is not sorted by `arrival_us` or `recalib`
    /// fails [`RecalibConfig::validate`].
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

    /// The event loop, then finalization: appends one [`OutcomeSoa`] row
    /// per request, one [`BatchSoa`] row per dispatch and one swap-log
    /// entry per hot-swap, then prices every batch and settles its
    /// members' rows. Everything a run reports is projected from the
    /// returned ledger.
    fn simulate<'a>(
        &'a self,
        requests: &'a [Request],
        recalib: Option<(&RecalibConfig, &dyn Recalibrator)>,
    ) -> RunLedger<'a> {
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
        let emg_us = self.config.emg_service_us;
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
        // Fault plans compiled to segment tables: the admission loop
        // queries them several times per request, and the table answers
        // bit-identically to the plan's window scans at a fraction of the
        // cost (see [`crate::faults::FaultTable`]).
        let fault_tables: Vec<crate::faults::FaultTable> =
            self.shards.iter().map(|s| s.faults.table()).collect();
        // open[s]: index into the batch ledger of shard s's joinable
        // batch, if any.
        let mut open: Vec<Option<usize>> = vec![None; self.shards.len()];
        let mut batches = BatchSoa::default();
        let mut out = OutcomeSoa::with_capacity(requests.len());
        // Batch-member linked-list arena: next member in join order,
        // outcome-index space ([`NONE_U32`] terminates).
        let mut next_member: Vec<u32> = vec![NONE_U32; requests.len()];
        // The generation-tagged serving state: admission reads the shard's
        // current ladder through `cur_ladder`; hot-swaps append to the
        // table and repoint the index, so in-flight batches keep pricing
        // on their admission entry.
        let mut ladder_table: Vec<TrnLadder> =
            self.shards.iter().map(|s| s.ladder.clone()).collect();
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
        let mut cur_ladder: Vec<u32> = (0..self.shards.len() as u32).collect();
        let mut generations: Vec<u64> = vec![0; self.shards.len()];
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
        // Candidate scratch, reused across arrivals — with `obs` disabled
        // the event loop allocates nothing per request.
        let mut cands: Vec<Candidate> = Vec::with_capacity(self.shards.len() * 2);
        let mut plans: Vec<DispatchPlan> = Vec::with_capacity(self.shards.len() * 2);

        for req in requests {
            let now = req.arrival_us;
            let oi = out.len();
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
                            let (observed, predicted) = batches.price(b, &ladder_table, emg_us);
                            tracker.observe(s, r as usize, predicted, observed);
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
                        let generation = generations[s] + 1;
                        let Some(swapped) = ctl.recalibrator.recalibrate(s, generation, new_calib)
                        else {
                            continue;
                        };
                        if batcher.enabled() {
                            admission.push(batcher.lists(&swapped, degrade));
                        }
                        ladder_table.push(swapped);
                        cur_ladder[s] = (ladder_table.len() - 1) as u32;
                        generations[s] = generation;
                        swaps.push(Swap {
                            t_us: watermark,
                            shard: s,
                            generation,
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
                if slot.is_some_and(|b| batches.start_us[b] <= now) {
                    *slot = None;
                }
            }

            // One solo candidate per shard, plus a join candidate where an
            // open batch can legally absorb this request.
            cands.clear();
            plans.clear();
            for (s, shard) in self.shards.iter().enumerate() {
                let ladder = &ladder_table[cur_ladder[s] as usize];
                let (stall_count, stall_until) = fault_tables[s].stall_at(now).unwrap_or((0, 0));
                let (worker, start) = free_at.earliest(s, now, stall_count, stall_until);
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
                let noise_ppm = shard.noise_for(req);
                let fault_ppm = fault_tables[s].service_factor_ppm(start);
                let service = scaled_service(base_us, noise_ppm, fault_ppm);
                cands.push(Candidate {
                    shard: s,
                    join: false,
                    start_us: start,
                    completion_us: start + service,
                    admissible: queue_delay < deadline,
                });
                plans.push(DispatchPlan::Solo {
                    worker,
                    rung,
                    service,
                    noise_ppm,
                    fault_ppm,
                });

                if req.kind == RequestKind::Visual && batcher.enabled() {
                    if let Some(b) = open[s] {
                        let size = batches.members[b] as usize + 1;
                        let batch_start = batches.start_us[b];
                        let tightest = batches.tightest_abs_us[b].min(abs_deadline);
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
                                batches.leader_noise_ppm[b],
                                batches.fault_ppm[b],
                            );
                            cands.push(Candidate {
                                shard: s,
                                join: true,
                                start_us: batch_start,
                                completion_us: batch_start + service,
                                admissible: true,
                            });
                            plans.push(DispatchPlan::Join {
                                batch: b,
                                rung: r,
                                tightest_abs_us: tightest,
                                service,
                            });
                        }
                    }
                }
            }

            let pick = ShardRouter::pick(&cands).expect("at least one shard offers a candidate");
            let cand = cands[pick];
            let s = cand.shard;

            if fault_tables[s].should_drop(now, req.id) {
                out.push(0, s as u32, generations[s], Status::Dropped);
                continue;
            }

            if obs::enabled() {
                let busy: usize = (0..self.shards.len()).map(|t| free_at.busy(t, now)).sum();
                obs::gauge_set("serve.queue_depth", busy as i64);
                obs::gauge_set(busy_gauges[s].clone(), free_at.busy(s, now) as i64);
            }

            if !cand.admissible {
                out.push(
                    cand.start_us - now,
                    s as u32,
                    generations[s],
                    Status::Rejected,
                );
                continue;
            }

            match plans[pick] {
                DispatchPlan::Solo {
                    worker,
                    rung,
                    service,
                    noise_ppm,
                    fault_ppm,
                } => {
                    free_at.set(s, worker, cand.start_us + service);
                    let b = batches.push_solo(
                        s as u32,
                        worker as u32,
                        cand.start_us,
                        rung.map_or(NONE_U32, |r| r as u32),
                        abs_deadline,
                        noise_ppm,
                        fault_ppm,
                        generations[s],
                        cur_ladder[s],
                        oi as u32,
                    );
                    if let Some(ctl) = controller.as_mut() {
                        ctl.pending.push((cand.start_us, b as u32));
                    }
                    // Every dispatch supersedes the shard's open batch: the
                    // open batch must stay the last thing scheduled on its
                    // worker, or a later join would overlap its successor.
                    open[s] = (req.kind == RequestKind::Visual
                        && batcher.enabled()
                        && cand.start_us > now)
                        .then_some(b);
                }
                DispatchPlan::Join {
                    batch,
                    rung,
                    tightest_abs_us,
                    service,
                } => {
                    next_member[batches.last_member[batch] as usize] = oi as u32;
                    batches.last_member[batch] = oi as u32;
                    batches.members[batch] += 1;
                    batches.rung[batch] = rung as u32;
                    batches.tightest_abs_us[batch] = tightest_abs_us;
                    free_at.set(
                        s,
                        batches.worker[batch] as usize,
                        batches.start_us[batch] + service,
                    );
                    if batches.members[batch] as usize >= batcher.batch_max {
                        open[s] = None;
                    }
                }
            }

            // Deferred: a later join can still move this request's finish
            // time, so real numbers land in the finalization pass.
            out.push(0, s as u32, generations[s], Status::Served);
        }

        // Finalization: batch sizes are settled, so every batch prices
        // once on its *admission* generation's ladder — hot-swaps never
        // touch in-flight work — and its members' rows are filled in.
        let mut priced = Vec::with_capacity(batches.len());
        for b in 0..batches.len() {
            let (service, predicted) = batches.price(b, &ladder_table, emg_us);
            priced.push((service, predicted));
            let (start, rung, size) = (batches.start_us[b], batches.rung[b], batches.members[b]);
            let degraded = rung != NONE_U32
                && (rung as usize) < ladder_table[batches.ladder_idx[b] as usize].top();
            let mut m = batches.first_member[b];
            while m != NONE_U32 {
                let oi = m as usize;
                // Open batches close at a swap, so a member's admission
                // generation is always its batch's generation.
                assert_eq!(
                    out.generation[oi], batches.generation[b],
                    "batch spans a hot-swap"
                );
                let arrival = requests[oi].arrival_us;
                let latency = start + service - arrival;
                out.queue_delay_us[oi] = start - arrival;
                out.rung[oi] = rung;
                out.service_us[oi] = service;
                out.latency_us[oi] = latency;
                out.batch_size[oi] = size;
                out.degraded[oi] = degraded;
                out.status[oi] = if latency > deadline {
                    Status::Missed
                } else {
                    Status::Served
                };
                if obs::enabled() {
                    let mut span = obs::span("serve.request");
                    span.field("id", requests[oi].id);
                    span.field("shard", batches.shard[b] as usize);
                    span.field("batch_size", size as usize);
                    span.field("queue_delay_us", start - arrival);
                    span.field("service_us", service);
                    span.field("latency_us", latency);
                    if rung != NONE_U32 {
                        span.field("rung", rung as usize);
                    }
                }
                m = next_member[oi];
            }
        }
        run_span.field("outcomes", out.len());
        run_span.field("batches", batches.len());
        RunLedger {
            server: self,
            requests,
            out,
            batches,
            priced,
            swaps,
            triggers,
        }
    }
}

/// What taking a candidate would actually do — precomputed alongside it,
/// so dispatch reuses the candidate's noise draw and fault factor.
#[derive(Debug, Clone, Copy)]
enum DispatchPlan {
    Solo {
        worker: usize,
        rung: Option<usize>,
        service: u64,
        noise_ppm: u64,
        fault_ppm: u64,
    },
    Join {
        batch: usize,
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
            noise_ppm: PPM,
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
            noise_ppm: Vec::new(),
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

    /// The index picks exactly the scan's worker: pools of 1–70 sharing
    /// one flat array with two neighbour shards, free times from a narrow
    /// range (ties are common), updates that raise and lower them
    /// interleaved with the queries, `now` below, among and above the free
    /// times, stall prefixes of 0, 1, W−1, W and more than W workers, and
    /// stall releases before, at and after `now`.
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
                }
                for s in 0..3 {
                    let w = sizes[s] as u64;
                    for now in [0, 95, 100 + draw(40), 120, 139, 140, 200] {
                        for stall_count in [0, 1, w.saturating_sub(1), w, w + 3, draw(w + 2)] {
                            for stall_until in
                                [now.saturating_sub(7), now, now + 1, now + draw(50), 130]
                            {
                                assert_eq!(
                                    index.earliest(s, now, stall_count, stall_until),
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
            assert_eq!(o.latency_us, 750);
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
        assert_eq!(out[0].latency_us, 750);
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
            noise_ppm: PPM,
        }]);
        assert_eq!(out[0].rung, None);
        assert_eq!(out[0].service_us, 800);
        assert_eq!(out[0].status, Status::Served);
        assert_eq!(out[0].batch_size, 1);
    }

    #[test]
    fn noise_scales_service_time() {
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
        let mut req = visual(0, 0);
        req.noise_ppm = PPM + 100_000; // +10%
        let out = server.run(&[req]);
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
        assert_eq!(out[0].latency_us, 0);
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
            assert_eq!(x.latency_us, y.latency_us);
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
        assert_eq!(out[0].latency_us, 750);
        // r1: starts at 750 with 160 µs slack → rung 0; r2 joins: batch 2
        // at rung 0 costs 130 µs, finishing at 880.
        assert_eq!(out[1].batch_size, 2);
        assert_eq!(out[2].batch_size, 2);
        assert_eq!(out[1].rung, Some(0));
        assert_eq!(out[1].latency_us, 880 - 10);
        assert_eq!(out[2].latency_us, 880 - 20);
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
            assert_eq!(x.latency_us, y.latency_us);
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
            assert_eq!(o.latency_us, 900 - o.arrival_us); // finish at 900
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
        let reqs: Vec<Request> = (0..30)
            .map(|i| {
                let mut r = visual(i, i * 2_000);
                r.noise_ppm = 1_500_000;
                r
            })
            .collect();
        let server = Server::new(test_ladder(), config(), FaultPlan::none());
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
