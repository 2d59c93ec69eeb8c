//! The serving timeline: virtual-time windowed telemetry for one run.
//!
//! Whole-run aggregates say *how much* went wrong; the timeline says
//! *when and where*. It is a projection of the runtime's run ledger,
//! taken after the event loop ends: request dispositions land in their
//! arrival window, batch starts and predicted-vs-observed residual
//! samples in the batch's dispatch window — so the finished [`Timeline`]
//! is a pure function of the run, bit-identical across `--jobs` settings
//! and platforms like every other serve artifact.
//!
//! Per (window, shard) the timeline reports arrivals, dispositions,
//! degradations, batch starts, queue-delay quantiles, the shard's running
//! residual EWMA ([`obs::ResidualTracker`]), and the window's SLO
//! error-budget burn rate; [`obs::SloPolicy`] turns those into `OBS0xx`
//! alerts (budget-burn, residual-drift, shard-starvation,
//! fault-window-entered, recalibrated). Every count lands in the window of the
//! *arrival* it belongs to, so per window and shard
//! `arrivals = served + missed + rejected + dropped` exactly — an
//! invariant the property tests pin.
//!
//! # JSON-lines schema (v1)
//!
//! [`Timeline::to_jsonl`] renders one JSON object per line, every value
//! an integer or plain string, hand-rolled like [`crate::ServeSummary`]
//! so the bytes are stable for golden comparison:
//!
//! * `{"v":1,"kind":"header",...}` — run shape: window width, window
//!   count, deadline, SLO budget, shard names.
//! * `{"v":1,"kind":"window","w":...,"shard":...}` — one line per
//!   (window, shard), dense over the run.
//! * `{"v":1,"kind":"residual","shard":...,"rung":...}` — final
//!   per-(shard, rung) EWMA cells.
//! * `{"v":1,"kind":"alert","code":"OBS001",...}` — fired alerts in
//!   (window, shard, code) order.
//!
//! [`Timeline::to_chrome_trace`] maps the same data onto Chrome
//! `trace_event` counters (`ph: "C"`, one track per shard) and instants
//! (alerts), with the trace clock *being* virtual time — microsecond
//! timestamps straight from the simulation.

use crate::faults::FaultPlan;
use crate::runtime::Status;
use crate::shard::Shard;
use netcut_obs as obs;
use obs::alert::{Alert, AlertCode, SloPolicy, WindowObservation};
use obs::residual::ResidualTracker;
use std::fmt::Write as _;

/// Timeline parameters. Alerts are evaluated under
/// [`SloPolicy::default`] and residuals smoothed at
/// [`obs::DEFAULT_ALPHA_PPM`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Window width, microseconds of virtual time.
    pub window_us: u64,
}

impl Default for TimelineConfig {
    /// 100 ms windows (50 per default 5 s run).
    fn default() -> Self {
        TimelineConfig { window_us: 100_000 }
    }
}

/// One (window, shard) cell of the finished timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index.
    pub window: u64,
    /// Window start, microseconds of virtual time.
    pub start_us: u64,
    /// Shard index.
    pub shard: usize,
    /// Requests routed to this shard arriving in this window.
    pub arrivals: u64,
    /// ... of which completed within the deadline.
    pub served: u64,
    /// ... of which completed late.
    pub missed: u64,
    /// ... of which were refused at admission.
    pub rejected: u64,
    /// ... of which were lost to drop faults.
    pub dropped: u64,
    /// Completions served below the shard's top rung.
    pub degraded: u64,
    /// Batches dispatched on this shard starting in this window.
    pub batches: u64,
    /// 95th-percentile queue delay of completions arriving here, µs.
    pub queue_p95_us: u64,
    /// Worst queue delay of completions arriving here, µs.
    pub queue_max_us: u64,
    /// Ladder generation serving this shard as of the window's end (0
    /// until the closed-loop controller performs a hot-swap).
    pub generation: u64,
    /// Shard's blended residual EWMA as of this window's end, ppm.
    pub residual_ppm: u64,
    /// Worst per-rung residual drift as of this window's end, ppm.
    pub drift_ppm: u64,
    /// SLO error-budget burn rate of this cell, ppm.
    pub burn_ppm: u64,
}

impl WindowRow {
    /// Missed + rejected + dropped.
    pub fn bad(&self) -> u64 {
        self.missed + self.rejected + self.dropped
    }
}

/// The finished timeline of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Window width, microseconds.
    pub window_us: u64,
    /// Dense window count (every row's `window` is below this).
    pub windows: u64,
    /// Per-request deadline the run was scheduled against, µs.
    pub deadline_us: u64,
    /// SLO policy the alerts were evaluated under.
    pub slo: SloPolicy,
    /// Shard names, routing order.
    pub shard_names: Vec<String>,
    /// One row per (window, shard), windows outermost, dense.
    pub rows: Vec<WindowRow>,
    /// Final residual state, every (shard, rung) cell.
    pub residuals: ResidualTracker,
    /// Fired alerts, (window, shard, code) order.
    pub alerts: Vec<Alert>,
    /// Every closed-loop hot-swap, in the order the controller made them.
    /// Not rendered: the JSON lines show each swap as the OBS005 alert of
    /// its (window, shard), which keeps schema v1 but folds the swaps
    /// that share one.
    pub swaps: Vec<Swap>,
}

/// One closed-loop hot-swap: at watermark `t_us` the controller moved
/// `shard` to ladder generation `generation`, calibrated at `calib_ppm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// Watermark of the swap, microseconds of virtual time.
    pub t_us: u64,
    /// Shard whose ladder was swapped.
    pub shard: usize,
    /// Ladder generation the shard serves from the swap on.
    pub generation: u64,
    /// Calibration factor of the swapped-in ladder, ppm.
    pub calib_ppm: u64,
}

impl Timeline {
    /// Alert count per table code, [`AlertCode::ALL`] order.
    pub fn alert_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; AlertCode::ALL.len()];
        for a in &self.alerts {
            counts[a.code.index()] += 1;
        }
        counts
    }

    /// The window burning the SLO budget fastest, fleet-wide:
    /// `(window, start_us, burn_ppm)`. `None` for an empty timeline.
    pub fn worst_burn(&self) -> Option<(u64, u64, u64)> {
        let shards = self.shard_names.len() as u64;
        if shards == 0 {
            return None;
        }
        (0..self.windows)
            .map(|w| {
                let cells = &self.rows[(w * shards) as usize..((w + 1) * shards) as usize];
                let arrivals: u64 = cells.iter().map(|r| r.arrivals).sum();
                let bad: u64 = cells.iter().map(WindowRow::bad).sum();
                (
                    w,
                    w * self.window_us,
                    obs::burn_rate_ppm(bad, arrivals, self.slo.miss_budget_ppm),
                )
            })
            .max_by_key(|&(w, _, burn)| (burn, std::cmp::Reverse(w)))
    }

    /// Renders the schema-v1 JSON-lines document (see the module docs).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(256 * (self.rows.len() + 8));
        let names: Vec<String> = self
            .shard_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect();
        let _ = writeln!(
            s,
            "{{\"v\":1,\"kind\":\"header\",\"window_us\":{},\"windows\":{},\"deadline_us\":{},\"miss_budget_ppm\":{},\"shards\":[{}]}}",
            self.window_us,
            self.windows,
            self.deadline_us,
            self.slo.miss_budget_ppm,
            names.join(","),
        );
        for r in &self.rows {
            // `gen` renders only on post-swap rows, so runs that never
            // recalibrate (including every committed golden) keep the v1
            // line bytes unchanged.
            let generation = if r.generation > 0 {
                format!(",\"gen\":{}", r.generation)
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "{{\"v\":1,\"kind\":\"window\",\"w\":{},\"start_us\":{},\"shard\":{},\"arrivals\":{},\"served\":{},\"missed\":{},\"rejected\":{},\"dropped\":{},\"degraded\":{},\"batches\":{},\"queue_p95_us\":{},\"queue_max_us\":{}{generation},\"residual_ppm\":{},\"drift_ppm\":{},\"burn_ppm\":{}}}",
                r.window,
                r.start_us,
                r.shard,
                r.arrivals,
                r.served,
                r.missed,
                r.rejected,
                r.dropped,
                r.degraded,
                r.batches,
                r.queue_p95_us,
                r.queue_max_us,
                r.residual_ppm,
                r.drift_ppm,
                r.burn_ppm,
            );
        }
        for shard in 0..self.residuals.shards() {
            for rung in 0..self.residuals.rungs(shard) {
                let cell = self.residuals.cell(shard, rung);
                let _ = writeln!(
                    s,
                    "{{\"v\":1,\"kind\":\"residual\",\"shard\":{shard},\"rung\":{rung},\"ewma_ppm\":{},\"samples\":{}}}",
                    cell.ewma_ppm(),
                    cell.samples(),
                );
            }
        }
        for a in &self.alerts {
            let _ = writeln!(
                s,
                "{{\"v\":1,\"kind\":\"alert\",\"code\":\"{}\",\"name\":\"{}\",\"w\":{},\"t_us\":{},\"shard\":{},\"value_ppm\":{}}}",
                a.code.code(),
                a.code.name(),
                a.window,
                a.t_us,
                a.shard,
                a.value_ppm,
            );
        }
        s
    }

    /// Renders the timeline as a Chrome `trace_event` document. The trace
    /// clock is virtual time: a window's counters sit at its start
    /// microsecond, alerts at their exact virtual instant, one counter
    /// track (`tid`) per shard.
    pub fn to_chrome_trace(&self) -> String {
        let mut s = String::with_capacity(256 * (self.rows.len() + 8));
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, s: &mut String| {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&line);
        };
        for r in &self.rows {
            push(
                format!(
                    "{{\"name\":\"serve.window ({})\",\"cat\":\"netcut\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"served\":{},\"missed\":{},\"rejected\":{},\"dropped\":{},\"degraded\":{},\"burn_ppm\":{}}}}}",
                    self.shard_names[r.shard],
                    r.start_us,
                    r.shard,
                    r.served,
                    r.missed,
                    r.rejected,
                    r.dropped,
                    r.degraded,
                    r.burn_ppm,
                ),
                &mut s,
            );
        }
        for a in &self.alerts {
            push(
                format!(
                    "{{\"name\":\"{} {}\",\"cat\":\"netcut\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value_ppm\":{}}}}}",
                    a.code.code(),
                    a.code.name(),
                    a.t_us,
                    a.shard,
                    a.value_ppm,
                ),
                &mut s,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// One raw residual sample: a ladder batch's predicted latency against
/// its observed (noise- and fault-scaled) service time, at its start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResidualSample {
    pub(crate) start_us: u64,
    pub(crate) shard: usize,
    pub(crate) rung: usize,
    pub(crate) predicted_us: u64,
    pub(crate) observed_us: u64,
}

/// One dense (window, shard) accumulator cell. An untouched cell reads
/// exactly like an untouched sparse entry used to: zero counts, and the
/// empty [`obs::Histogram`]'s quantile/max are 0.
#[derive(Debug, Clone, Default)]
struct Cell {
    arrivals: u64,
    served: u64,
    missed: u64,
    rejected: u64,
    dropped: u64,
    degraded: u64,
    batches: u64,
    queue: obs::Histogram,
}

/// Accumulates timeline facts as the runtime projects its run ledger.
/// Everything is deterministic because the projection is.
///
/// Cells are a dense window-major vector indexed `w × shards + s`, grown
/// on first touch — every event is a bump of an indexed integer field,
/// with no string keys or map lookups. The projection feeds it in three
/// steps: swaps and batches, then the residual fold
/// ([`Self::fold_residuals`]), then the requests; [`Self::finish`] reads
/// the rows and alerts off.
#[derive(Debug)]
pub(crate) struct TimelineBuilder {
    cfg: TimelineConfig,
    deadline_us: u64,
    shard_names: Vec<String>,
    /// Dense (window, shard) cells, window-major.
    cells: Vec<Cell>,
    /// Highest window any event touched (`None` when no event landed).
    last_window: Option<u64>,
    /// Start of the most recently touched window — virtual time is nearly
    /// monotone across events, so caching one window's bounds turns almost
    /// every [`Self::cell_mut`] into a bounds check instead of a division.
    cached_start_us: u64,
    /// Cell index of the cached window's shard-0 cell.
    cached_base: usize,
    /// `true` once any event primed the cache.
    cache_live: bool,
    /// Fault windows opening per shard: `(window, shard, t_us, magnitude)`.
    fault_entries: Vec<(u64, usize, u64, u64)>,
    /// The run's hot-swaps, controller order.
    swaps: Vec<Swap>,
    /// Dense window count, set by the residual fold.
    windows: u64,
    /// Residual state as of the last folded sample.
    residuals: ResidualTracker,
    /// Each shard's residual state as of each window's end, window-major
    /// like the cells: (blended EWMA, worst drift, samples).
    states: Vec<(u64, u64, u64)>,
}

impl TimelineBuilder {
    /// Builds the recorder for a server's shards. Fault-window entries are
    /// plan-static, so they are indexed up front.
    pub(crate) fn new(cfg: TimelineConfig, shards: &[Shard], deadline_us: u64) -> Self {
        assert!(cfg.window_us > 0, "window width must be positive");
        let mut fault_entries = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let FaultPlan { windows, .. } = &shard.faults;
            for w in windows {
                fault_entries.push((w.start_us / cfg.window_us, s, w.start_us, w.magnitude));
            }
        }
        fault_entries.sort_unstable();
        let ladder_lens: Vec<usize> = shards.iter().map(|s| s.ladder.len()).collect();
        TimelineBuilder {
            cfg,
            deadline_us,
            shard_names: shards.iter().map(|s| s.name.clone()).collect(),
            residuals: ResidualTracker::new(&ladder_lens, obs::DEFAULT_ALPHA_PPM),
            cells: Vec::new(),
            last_window: None,
            cached_start_us: 0,
            cached_base: 0,
            cache_live: false,
            fault_entries,
            swaps: Vec::new(),
            windows: 0,
            states: Vec::new(),
        }
    }

    /// The dense cell of `(t_us`'s window, `shard)`, grown on demand.
    fn cell_mut(&mut self, t_us: u64, shard: usize) -> &mut Cell {
        // Fast path: `t_us` lands in the most recently touched window
        // (wrapping_sub rejects both earlier and later windows in one
        // compare) — no division, no resize check.
        if self.cache_live && t_us.wrapping_sub(self.cached_start_us) < self.cfg.window_us {
            return &mut self.cells[self.cached_base + shard];
        }
        let w = t_us / self.cfg.window_us;
        let shards = self.shard_names.len();
        let needed = (w as usize + 1) * shards;
        if self.cells.len() < needed {
            self.cells.resize_with(needed, Cell::default);
        }
        self.last_window = Some(self.last_window.map_or(w, |l| l.max(w)));
        self.cached_start_us = w * self.cfg.window_us;
        self.cached_base = w as usize * shards;
        self.cache_live = true;
        &mut self.cells[self.cached_base + shard]
    }

    /// The closed-loop controller made `swap`; swaps come in controller
    /// order.
    pub(crate) fn recalibrated(&mut self, swap: Swap) {
        self.swaps.push(swap);
    }

    /// A request arriving at `arrival_us` on `shard` ended in `status`.
    /// Counted in its *arrival* window, so the per-window disposition
    /// invariant holds; completions also record their queue delay and
    /// whether they ran below the top rung.
    pub(crate) fn request(
        &mut self,
        arrival_us: u64,
        shard: usize,
        status: Status,
        degraded: bool,
        queue_delay_us: u64,
    ) {
        let cell = self.cell_mut(arrival_us, shard);
        cell.arrivals += 1;
        match status {
            Status::Served => cell.served += 1,
            Status::Missed => cell.missed += 1,
            Status::Rejected => {
                cell.rejected += 1;
                return;
            }
            Status::Dropped => {
                cell.dropped += 1;
                return;
            }
        }
        cell.degraded += u64::from(degraded);
        cell.queue.observe(queue_delay_us);
    }

    /// A batch started on `shard` at `start_us`.
    pub(crate) fn batch(&mut self, start_us: u64, shard: usize) {
        self.cell_mut(start_us, shard).batches += 1;
    }

    /// Folds the residual `samples` — one per ladder batch — and fixes
    /// the dense window count. Each shard's samples must come in
    /// `(start_us, dispatch order)`, the order its residual state folds
    /// them in; samples of different shards may interleave in any way,
    /// since a shard's residual cells never read another's. Every batch
    /// and swap must be in by now; the requests may follow, and the last
    /// of them arrives at `last_arrival_us`, whose window counts toward
    /// the total.
    pub(crate) fn fold_residuals(
        &mut self,
        last_arrival_us: Option<u64>,
        samples: impl IntoIterator<Item = ResidualSample>,
    ) {
        let shards = self.shard_names.len();
        let window_us = self.cfg.window_us;
        let windows = self
            .last_window
            .into_iter()
            .chain(last_arrival_us.map(|t| t / window_us))
            .chain(self.fault_entries.iter().map(|&(w, ..)| w))
            .chain(self.swaps.iter().map(|sw| sw.t_us / window_us))
            .max()
            .map_or(0, |w| w + 1);
        // Every cell the requests or the rows will read, and not one more:
        // the cells stay live beside the outcome records. Fault/recalib
        // entries can reach past the last event window, so every row reads
        // a real (empty) cell.
        self.cells
            .resize_with((windows as usize) * shards, Cell::default);
        self.cells.shrink_to_fit();
        // A shard's windows that end before its next sample starts are
        // final, so the fold reads them off as it passes; samples past the
        // last window are never folded.
        let residuals = &mut self.residuals;
        let read = |residuals: &ResidualTracker, s: usize| {
            (
                residuals.blended(s).ewma_ppm(),
                residuals.max_drift_ppm(s),
                residuals.shard_samples(s),
            )
        };
        let mut states = vec![(0, 0, 0); (windows as usize) * shards];
        // First window of each shard whose state is not read yet.
        let mut unread = vec![0u64; shards];
        for x in samples {
            let w = &mut unread[x.shard];
            while *w < windows && (*w + 1) * window_us <= x.start_us {
                states[(*w as usize) * shards + x.shard] = read(residuals, x.shard);
                *w += 1;
            }
            if *w < windows {
                residuals.observe(x.shard, x.rung, x.predicted_us, x.observed_us);
            }
        }
        for (s, &first) in unread.iter().enumerate() {
            for w in first..windows {
                states[(w as usize) * shards + s] = read(residuals, s);
            }
        }
        self.windows = windows;
        self.states = states;
    }

    /// Folds everything into the finished [`Timeline`]: dense (window,
    /// shard) rows and alerts in (window, shard, code) order, over the
    /// windows [`Self::fold_residuals`] fixed.
    pub(crate) fn finish(self) -> Timeline {
        let (shards, windows, window_us) =
            (self.shard_names.len(), self.windows, self.cfg.window_us);
        debug_assert!(
            self.last_window.is_none_or(|w| w < windows),
            "an event landed past the folded windows"
        );
        // Hot-swaps landing per shard:
        // `(window, shard, t_us, calib_ppm, generation)`, sorted.
        let mut recalib_entries: Vec<(u64, usize, u64, u64, u64)> = self
            .swaps
            .iter()
            .map(|sw| {
                let w = sw.t_us / window_us;
                (w, sw.shard, sw.t_us, sw.calib_ppm, sw.generation)
            })
            .collect();
        recalib_entries.sort_unstable();
        let states = &self.states;
        let slo = SloPolicy::default();
        let mut rows = Vec::with_capacity((windows as usize) * shards);
        let mut alerts = Vec::new();
        let mut generations = vec![0u64; shards];
        for w in 0..windows {
            let base = (w as usize) * shards;
            let fleet_arrivals: u64 = self.cells[base..base + shards]
                .iter()
                .map(|c| c.arrivals)
                .sum();
            for (s, shard_generation) in generations.iter_mut().enumerate() {
                let cell = &self.cells[base + s];
                let (residual_ppm, drift_ppm, drift_samples) = states[base + s];
                let queue = cell.queue.summary();
                let arrivals = cell.arrivals;
                let served = cell.served;
                let missed = cell.missed;
                let rejected = cell.rejected;
                let dropped = cell.dropped;
                let bad = missed + rejected + dropped;
                // First swap landing in this (window, shard), if any; the
                // row's generation reflects every swap through the window.
                let mut recalib: Option<(u64, u64)> = None;
                for &(rw, rs, t_us, calib_ppm, generation) in &recalib_entries {
                    if rw == w && rs == s {
                        if recalib.is_none() {
                            recalib = Some((t_us, calib_ppm));
                        }
                        *shard_generation = (*shard_generation).max(generation);
                    }
                }
                let row = WindowRow {
                    window: w,
                    start_us: w * window_us,
                    shard: s,
                    arrivals,
                    served,
                    missed,
                    rejected,
                    dropped,
                    degraded: cell.degraded,
                    batches: cell.batches,
                    queue_p95_us: queue.p95,
                    queue_max_us: queue.max,
                    generation: *shard_generation,
                    residual_ppm,
                    drift_ppm,
                    burn_ppm: obs::burn_rate_ppm(bad, arrivals, slo.miss_budget_ppm),
                };
                let fault = self
                    .fault_entries
                    .iter()
                    .filter(|&&(fw, fs, ..)| fw == w && fs == s)
                    .map(|&(_, _, t_us, magnitude)| (t_us, magnitude))
                    .min();
                let mut fired = slo.evaluate(&WindowObservation {
                    window: w,
                    start_us: row.start_us,
                    shard: s,
                    arrivals,
                    bad,
                    fleet_arrivals,
                    max_drift_ppm: drift_ppm,
                    drift_samples,
                    fault_entered_ppm: fault.map(|(_, magnitude)| magnitude),
                    recalibrated_ppm: recalib.map(|(_, calib_ppm)| calib_ppm),
                });
                // OBS004 anchors at the fault window's exact opening
                // instant, not the telemetry window's start; OBS005
                // likewise at the swap's exact watermark instant.
                if let Some((t_us, _)) = fault {
                    for a in &mut fired {
                        if a.code == AlertCode::FaultWindowEntered {
                            a.t_us = t_us;
                        }
                    }
                }
                if let Some((t_us, _)) = recalib {
                    for a in &mut fired {
                        if a.code == AlertCode::Recalibrated {
                            a.t_us = t_us;
                        }
                    }
                }
                alerts.extend(fired);
                rows.push(row);
            }
        }
        Timeline {
            window_us: self.cfg.window_us,
            windows,
            deadline_us: self.deadline_us,
            slo,
            shard_names: self.shard_names,
            rows,
            residuals: self.residuals,
            alerts,
            swaps: self.swaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultWindow};
    use crate::ladder::{Rung, TrnLadder};

    fn shard(name: &str, faults: FaultPlan) -> Shard {
        Shard {
            name: name.to_owned(),
            ladder: TrnLadder::from_rungs(vec![
                Rung {
                    name: "cut1".into(),
                    cutpoint: 1,
                    latency_us: 100,
                    accuracy: 0.7,
                },
                Rung {
                    name: "cut0".into(),
                    cutpoint: 0,
                    latency_us: 700,
                    accuracy: 0.9,
                },
            ]),
            workers: 1,
            faults,
            noise_seed: 0,
            jitter_ppm: 0,
        }
    }

    fn builder(shards: &[Shard]) -> TimelineBuilder {
        TimelineBuilder::new(TimelineConfig::default(), shards, 900)
    }

    /// Folds `samples` after the events fed so far, then finishes.
    fn finish(mut b: TimelineBuilder, samples: &[ResidualSample]) -> Timeline {
        b.fold_residuals(None, samples.iter().copied());
        b.finish()
    }

    fn sample(start_us: u64, rung: usize, predicted_us: u64, observed_us: u64) -> ResidualSample {
        ResidualSample {
            start_us,
            shard: 0,
            rung,
            predicted_us,
            observed_us,
        }
    }

    #[test]
    fn dispositions_land_in_their_arrival_window() {
        let shards = vec![shard("a", FaultPlan::none())];
        let mut b = builder(&shards);
        // In the projection's order: batches, the fold, then the requests.
        // No batch starts in the last arrival's window, which counts all
        // the same.
        b.batch(10, 0);
        b.fold_residuals(Some(250_000), [sample(10, 1, 700, 721)]);
        b.request(10, 0, Status::Served, false, 5);
        b.request(150_000, 0, Status::Missed, true, 800);
        b.request(160_000, 0, Status::Rejected, false, 0);
        b.request(250_000, 0, Status::Dropped, false, 0);
        let tl = b.finish();
        assert_eq!(tl.windows, 3);
        assert_eq!(tl.rows.len(), 3);
        let row0 = &tl.rows[0];
        assert_eq!((row0.arrivals, row0.served, row0.batches), (1, 1, 1));
        let row1 = &tl.rows[1];
        assert_eq!(row1.arrivals, 2);
        assert_eq!((row1.missed, row1.rejected, row1.degraded), (1, 1, 1));
        assert_eq!(row1.queue_max_us, 800);
        let row2 = &tl.rows[2];
        assert_eq!((row2.arrivals, row2.dropped), (1, 1));
        for r in &tl.rows {
            assert_eq!(r.arrivals, r.served + r.missed + r.rejected + r.dropped);
        }
        // Residual: one sample, 721/700 = 1.03 → ppm, visible from its
        // window onward.
        assert_eq!(row0.residual_ppm, 1_030_000);
        assert_eq!(row2.residual_ppm, 1_030_000);
        assert_eq!(tl.residuals.cell(0, 1).samples(), 1);
    }

    #[test]
    fn fault_windows_raise_obs004_at_their_exact_instant() {
        let faults = FaultPlan {
            windows: vec![FaultWindow {
                kind: FaultKind::Jitter,
                start_us: 123_456,
                end_us: 200_000,
                magnitude: 1_250_000,
            }],
            seed: 0,
        };
        let shards = vec![shard("a", FaultPlan::none()), shard("b", faults)];
        let tl = finish(builder(&shards), &[]);
        // No traffic at all, but the fault entry still shapes the span.
        assert_eq!(tl.windows, 2);
        let obs004: Vec<&Alert> = tl
            .alerts
            .iter()
            .filter(|a| a.code == AlertCode::FaultWindowEntered)
            .collect();
        assert_eq!(obs004.len(), 1);
        assert_eq!(obs004[0].shard, 1);
        assert_eq!(obs004[0].window, 1);
        assert_eq!(obs004[0].t_us, 123_456);
        assert_eq!(obs004[0].value_ppm, 1_250_000);
        assert_eq!(tl.alert_counts(), vec![0, 0, 0, 1, 0]);
    }

    #[test]
    fn recalibration_raises_obs005_and_tags_generations() {
        let shards = vec![shard("a", FaultPlan::none())];
        let mut b = builder(&shards);
        b.request(10, 0, Status::Served, false, 5);
        b.request(150_000, 0, Status::Served, false, 5);
        let swap = Swap {
            t_us: 123_456,
            shard: 0,
            generation: 1,
            calib_ppm: 1_300_000,
        };
        b.recalibrated(swap);
        let tl = finish(b, &[]);
        assert_eq!(tl.swaps, vec![swap], "the swap log rides along");
        let obs005: Vec<&Alert> = tl
            .alerts
            .iter()
            .filter(|a| a.code == AlertCode::Recalibrated)
            .collect();
        assert_eq!(obs005.len(), 1);
        assert_eq!(obs005[0].window, 1);
        assert_eq!(obs005[0].t_us, 123_456, "anchored at the swap instant");
        assert_eq!(obs005[0].value_ppm, 1_300_000);
        assert_eq!(tl.alert_counts(), vec![0, 0, 0, 0, 1]);
        // Generation is 0 before the swap window, 1 from it onward.
        assert_eq!(tl.rows[0].generation, 0);
        assert_eq!(tl.rows[1].generation, 1);
        // Post-swap rows render `gen`; pre-swap rows keep the v1 bytes.
        let doc = tl.to_jsonl();
        let window_lines: Vec<&str> = doc
            .lines()
            .filter(|l| l.contains("\"kind\":\"window\""))
            .collect();
        assert!(!window_lines[0].contains("\"gen\""));
        assert!(window_lines[1].contains(",\"gen\":1,"));
    }

    #[test]
    fn starved_shard_is_called_out() {
        let shards = vec![shard("a", FaultPlan::none()), shard("b", FaultPlan::none())];
        let mut b = builder(&shards);
        for i in 0..20 {
            b.request(i * 1_000, 0, Status::Served, false, 0);
        }
        let tl = finish(b, &[]);
        let starved: Vec<&Alert> = tl
            .alerts
            .iter()
            .filter(|a| a.code == AlertCode::ShardStarvation)
            .collect();
        assert_eq!(starved.len(), 1);
        assert_eq!(starved[0].shard, 1);
        assert_eq!(starved[0].value_ppm, 20);
    }

    #[test]
    fn burn_alert_fires_on_a_bad_window() {
        let shards = vec![shard("a", FaultPlan::none())];
        let mut b = builder(&shards);
        for i in 0..20 {
            // Half the window's arrivals go bad: 50% miss rate against a
            // 5% budget = 10× burn, far past the 2× alert threshold.
            let status = if i % 2 == 0 {
                Status::Missed
            } else {
                Status::Served
            };
            b.request(i * 1_000, 0, status, false, 0);
        }
        let tl = finish(b, &[]);
        assert_eq!(tl.rows[0].burn_ppm, 10_000_000);
        let burns: Vec<&Alert> = tl
            .alerts
            .iter()
            .filter(|a| a.code == AlertCode::BudgetBurn)
            .collect();
        assert_eq!(burns.len(), 1);
        assert_eq!(burns[0].value_ppm, 10_000_000);
        assert_eq!(tl.worst_burn(), Some((0, 0, 10_000_000)));
    }

    #[test]
    fn jsonl_is_stable_line_oriented_and_parseable() {
        let shards = vec![shard("a", FaultPlan::none())];
        let mut b = builder(&shards);
        b.request(10, 0, Status::Served, false, 5);
        b.batch(10, 0);
        let tl = finish(b, &[sample(10, 0, 100, 100)]);
        let doc = tl.to_jsonl();
        assert_eq!(doc, tl.to_jsonl());
        let lines: Vec<&str> = doc.lines().collect();
        // header + 1 window row + 2 residual rows (2 rungs), no alerts.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"v\":1,\"kind\":\"header\",\"window_us\":100000,"));
        assert!(lines[1].contains("\"kind\":\"window\""));
        assert!(lines[2].contains("\"kind\":\"residual\""));
        for line in &lines {
            let _: serde_json::Value = line.parse().expect("every line is valid JSON");
        }
        let trace = tl.to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.ends_with("]}\n"));
    }

    #[test]
    fn empty_run_is_an_empty_timeline() {
        let shards = vec![shard("a", FaultPlan::none())];
        let tl = finish(builder(&shards), &[]);
        assert_eq!(tl.windows, 0);
        assert!(tl.rows.is_empty());
        assert!(tl.alerts.is_empty());
        assert_eq!(tl.worst_burn(), None);
        assert_eq!(tl.alert_counts(), vec![0, 0, 0, 0, 0]);
    }
}
