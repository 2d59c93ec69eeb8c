//! Run summaries: the integer-only aggregate a serve run reports.
//!
//! Every field is an integer (counts, microseconds, parts per million), so
//! the JSON rendering of a summary is byte-identical whenever the outcomes
//! are — which makes summaries directly comparable across `--jobs`
//! settings, machines, and the committed golden trace.
//!
//! **Tail-latency accounting.** The latency percentiles cover completions
//! only (served + missed): rejected and dropped requests never produce a
//! completion latency, so folding their zeros into a percentile would
//! *flatter* the tail exactly when the server sheds the most load. Instead
//! the summary reports them explicitly — [`ServeSummary::tail_excluded`]
//! counts the requests outside the percentile population, and
//! [`ServeSummary::rejected_queue_p99_us`] shows how long rejected clients
//! waited to hear "no".
//!
//! **One pass.** [`ServeSummary::from_outcomes`] reads each outcome record
//! once: it folds the status counts, histograms, admission generations and
//! accuracy sum as it goes, and counts the completion latencies and the
//! rejected queue delays instead of collecting them. Each population has
//! a dense count table over `[0, 2¹³)` µs and a spill list for larger
//! values; a percentile is one walk over the table, and the spill list is
//! selected from only when a rank lands in it, so nothing is sorted.
//! [`ServeSummary::attach_timeline`] adds the windowed facts and the
//! recalibration block, which it reads from the timeline's swap log.

use crate::request::PPM;
use crate::runtime::{RequestOutcome, Server, Status};
use crate::timeline::Timeline;
use netcut_obs as obs;
use obs::alert::{Alert, AlertCode};
use std::fmt::Write as _;

/// Per-shard facts the summary needs that outcomes alone don't carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard name (device name in sharded scenarios).
    pub name: String,
    /// Workers the shard owns.
    pub workers: usize,
    /// Rung count of the shard's ladder (sizes its rung histogram).
    pub ladder_len: usize,
    /// Post-retraining accuracy of each exit, ppm, fastest exit first —
    /// the weights of the accuracy-weighted goodput figure.
    pub exit_accuracy_ppm: Vec<u64>,
    /// Resident model memory of the shard's multi-exit network, bytes
    /// (weights + activation arena × batch slots).
    pub model_bytes: u64,
    /// What the same exit table would cost as the pre-refactor fleet of
    /// one trimmed network per rung, bytes.
    pub baseline_model_bytes: u64,
}

/// Run-level configuration echoed into the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Per-request deadline, microseconds.
    pub deadline_us: u64,
    /// Total worker pool size.
    pub workers: usize,
    /// Whether ladder degradation was enabled.
    pub degrade: bool,
    /// Largest batch dynamic batching could form (1 = off).
    pub batch_max: usize,
    /// Run duration, microseconds (0 when unknown; goodput reads 0).
    pub duration_us: u64,
    /// One entry per shard, routing order.
    pub shards: Vec<ShardMeta>,
}

impl RunMeta {
    /// Builds the metadata straight off a [`Server`].
    pub fn from_server(server: &Server, duration_us: u64) -> Self {
        RunMeta {
            deadline_us: server.config().deadline_us,
            workers: server.config().workers,
            degrade: server.config().degrade,
            batch_max: server.config().batch_max,
            duration_us,
            shards: server
                .shards()
                .iter()
                .map(|s| {
                    let memory = s.ladder.memory().unwrap_or_default();
                    ShardMeta {
                        name: s.name.clone(),
                        workers: s.workers,
                        ladder_len: s.ladder.len(),
                        exit_accuracy_ppm: s.ladder.exit_accuracy_ppm(),
                        model_bytes: memory.model_bytes,
                        baseline_model_bytes: memory.baseline_model_bytes,
                    }
                })
                .collect(),
        }
    }
}

/// Aggregate statistics of one serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Per-request deadline, microseconds.
    pub deadline_us: u64,
    /// Total worker pool size.
    pub workers: usize,
    /// Whether ladder degradation was enabled.
    pub degrade: bool,
    /// Number of shards the pool was partitioned into.
    pub shards: usize,
    /// Largest batch dynamic batching could form (1 = off).
    pub batch_max: usize,
    /// Run duration, microseconds.
    pub duration_us: u64,
    /// Requests generated.
    pub total: u64,
    /// Completed within the deadline.
    pub served: u64,
    /// Completed after the deadline.
    pub missed: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Lost to injected drop faults.
    pub dropped: u64,
    /// Visual requests served below their shard's top rung.
    pub degraded: u64,
    /// Missed + rejected + dropped, as parts per million of total — the
    /// figure the CLI prints and the acceptance check compares.
    pub miss_rate_ppm: u64,
    /// Deadline-met throughput in milli-requests per second:
    /// `served × 10⁹ / duration_us` (0 when the duration is unknown).
    pub goodput_mrps: u64,
    /// Shard names, routing order.
    pub shard_names: Vec<String>,
    /// Requests routed to each shard (every status).
    pub shard_histogram: Vec<u64>,
    /// Per-shard completions by ladder rung, fastest rung first. EMG
    /// requests are not on the ladder and are excluded.
    pub rung_histograms: Vec<Vec<u64>>,
    /// Completions by the size of the batch they ran in (`index + 1` =
    /// batch size).
    pub batch_histogram: Vec<u64>,
    /// Requests outside the latency-percentile population (rejected +
    /// dropped) — reported, never silently folded into the tail.
    pub tail_excluded: u64,
    /// 99th-percentile queue delay among *rejected* requests — how long a
    /// shed client waited before hearing "no".
    pub rejected_queue_p99_us: u64,
    /// Median completion latency, microseconds (nearest-rank).
    pub latency_p50_us: u64,
    /// 95th-percentile completion latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile completion latency, microseconds.
    pub latency_p99_us: u64,
    /// Worst completion latency, microseconds.
    pub latency_max_us: u64,
    /// SLO error budget the timeline was evaluated against, ppm (0 until
    /// [`ServeSummary::attach_timeline`]).
    pub slo_miss_budget_ppm: u64,
    /// Run-level SLO burn rate: miss rate over budget, ppm.
    pub burn_rate_ppm: u64,
    /// Timeline window width, microseconds (0 = no timeline attached).
    pub timeline_window_us: u64,
    /// Number of windows the timeline spans.
    pub timeline_windows: u64,
    /// Burn rate of the worst fleet-wide window, ppm.
    pub worst_window_burn_ppm: u64,
    /// Virtual-time start of that worst window, microseconds.
    pub worst_window_start_us: u64,
    /// Fired-alert count per `OBS0xx` code, [`AlertCode::ALL`] order
    /// (empty until a timeline is attached).
    pub alert_counts: Vec<u64>,
    /// The first few fired alerts, chronological.
    pub top_alerts: Vec<Alert>,
    /// Per-shard exit accuracies, ppm, fastest exit first — the exit
    /// table of each shard's multi-exit network.
    pub exit_accuracy_ppm: Vec<Vec<u64>>,
    /// Accuracy-weighted goodput, milli-requests per second: each served
    /// request counts at its exit's accuracy (EMG at full weight), so
    /// degrading to shallow exits shows up as a discount instead of
    /// hiding inside the raw served count.
    pub acc_goodput_mrps: u64,
    /// Per-shard resident model memory, bytes (one multi-exit network:
    /// weights + activation arena × batch slots).
    pub model_bytes: Vec<u64>,
    /// Per-shard memory of the pre-refactor per-rung fleet, bytes.
    pub baseline_model_bytes: Vec<u64>,
    /// Fleet-wide memory reduction of the multi-exit refactor, ppm of the
    /// multi-exit footprint (`10_000_000` = the fleet shrank 10×).
    pub model_reduction_ppm: u64,
    /// Closed-loop hot-swaps performed: the length of the timeline's swap
    /// log (0 when the controller is off, never swapped, or no timeline is
    /// attached).
    pub recalibrations: u64,
    /// Final ladder generation of each shard (0 = never hot-swapped): its
    /// last swap's once a timeline is attached, the highest admission
    /// generation among its outcomes before.
    pub generations: Vec<u64>,
    /// Final calibration factor of each shard, ppm: its last swap's (0 for
    /// shards never recalibrated).
    pub recalib_scale_ppm: Vec<u64>,
}

impl ServeSummary {
    /// Aggregates `outcomes` into a summary under `meta`'s run
    /// configuration, in one pass over the records.
    ///
    /// # Panics
    /// Panics if `outcomes` holds `u32::MAX` records or more (a run
    /// returns fewer), or if a record names a shard, rung or batch size
    /// outside `meta`.
    pub fn from_outcomes(outcomes: &[RequestOutcome], meta: &RunMeta) -> Self {
        assert!(
            outcomes.len() < u32::MAX as usize,
            "a summary counts fewer than u32::MAX outcomes"
        );
        let mut by_status = [0u64; 4];
        let mut degraded = 0u64;
        let mut shard_histogram = vec![0u64; meta.shards.len()];
        let mut rung_histograms: Vec<Vec<u64>> = meta
            .shards
            .iter()
            .map(|s| vec![0u64; s.ladder_len])
            .collect();
        let mut batch_histogram = vec![0u64; meta.batch_max.max(1)];
        let mut generations = vec![0u64; meta.shards.len()];
        let mut latencies = RankCounter::default();
        let mut latency_max_us = 0u64;
        let mut rejected_delays = RankCounter::default();
        // Accuracy-weighted goodput: Σ over served requests of the exit's
        // accuracy fraction, per second. In ppm arithmetic that is
        // Σ acc_ppm × 10⁹ / (10⁶ × duration) = Σ acc_ppm × 10³ / duration.
        let mut acc_sum_ppm: u128 = 0;
        for o in outcomes {
            let s = usize::from(o.shard);
            by_status[o.status as usize] += 1;
            shard_histogram[s] += 1;
            generations[s] = generations[s].max(u64::from(o.generation));
            let shard = &meta.shards[s];
            let rung = o.rung.map(usize::from);
            if let Some(r) = rung {
                rung_histograms[s][r] += 1;
                if r + 1 < shard.ladder_len {
                    degraded += 1;
                }
            }
            if o.batch_size > 0 {
                batch_histogram[usize::from(o.batch_size) - 1] += 1;
            }
            match o.status {
                Status::Served | Status::Missed => {
                    let latency = o.latency_us();
                    latencies.push(latency);
                    latency_max_us = latency_max_us.max(latency);
                }
                Status::Rejected => rejected_delays.push(o.queue_delay_us),
                Status::Dropped => {}
            }
            if o.status == Status::Served {
                acc_sum_ppm += u128::from(rung.map_or(PPM, |r| {
                    shard.exit_accuracy_ppm.get(r).copied().unwrap_or(PPM)
                }));
            }
        }
        let [served, missed, rejected, dropped] = by_status;
        let [latency_p99_us, latency_p95_us, latency_p50_us] =
            latencies.nearest_ranks([99, 95, 50]);
        let [rejected_queue_p99_us] = rejected_delays.nearest_ranks([99]);
        let model_bytes: Vec<u64> = meta.shards.iter().map(|s| s.model_bytes).collect();
        let baseline_model_bytes: Vec<u64> =
            meta.shards.iter().map(|s| s.baseline_model_bytes).collect();
        let fleet_model: u128 = model_bytes.iter().map(|&b| u128::from(b)).sum();
        let fleet_baseline: u128 = baseline_model_bytes.iter().map(|&b| u128::from(b)).sum();
        let total = outcomes.len() as u64;
        ServeSummary {
            deadline_us: meta.deadline_us,
            workers: meta.workers,
            degrade: meta.degrade,
            shards: meta.shards.len(),
            batch_max: meta.batch_max,
            duration_us: meta.duration_us,
            total,
            served,
            missed,
            rejected,
            dropped,
            degraded,
            miss_rate_ppm: ((missed + rejected + dropped) * PPM)
                .checked_div(total)
                .unwrap_or(0),
            goodput_mrps: (served as u128 * 1_000_000_000)
                .checked_div(u128::from(meta.duration_us))
                .unwrap_or(0) as u64,
            shard_names: meta.shards.iter().map(|s| s.name.clone()).collect(),
            shard_histogram,
            rung_histograms,
            batch_histogram,
            tail_excluded: rejected + dropped,
            rejected_queue_p99_us,
            latency_p50_us,
            latency_p95_us,
            latency_p99_us,
            latency_max_us,
            slo_miss_budget_ppm: 0,
            burn_rate_ppm: 0,
            timeline_window_us: 0,
            timeline_windows: 0,
            worst_window_burn_ppm: 0,
            worst_window_start_us: 0,
            alert_counts: Vec::new(),
            top_alerts: Vec::new(),
            exit_accuracy_ppm: meta
                .shards
                .iter()
                .map(|s| s.exit_accuracy_ppm.clone())
                .collect(),
            acc_goodput_mrps: (acc_sum_ppm * 1_000)
                .checked_div(u128::from(meta.duration_us))
                .unwrap_or(0) as u64,
            model_bytes,
            baseline_model_bytes,
            model_reduction_ppm: (fleet_baseline * u128::from(PPM))
                .checked_div(fleet_model)
                .unwrap_or(0) as u64,
            recalibrations: 0,
            generations,
            recalib_scale_ppm: vec![0; meta.shards.len()],
        }
    }

    /// How many [`ServeSummary::top_alerts`] a summary keeps.
    pub const TOP_ALERTS: usize = 8;

    /// Folds a run's [`Timeline`] into the summary: the SLO budget, run-
    /// and worst-window burn rates, per-code alert counts, the first
    /// [`ServeSummary::TOP_ALERTS`] fired alerts, and the recalibration
    /// block from the timeline's swap log.
    pub fn attach_timeline(&mut self, timeline: &Timeline) {
        self.slo_miss_budget_ppm = timeline.slo.miss_budget_ppm;
        self.burn_rate_ppm = obs::burn_rate_ppm(
            self.missed + self.rejected + self.dropped,
            self.total,
            timeline.slo.miss_budget_ppm,
        );
        self.timeline_window_us = timeline.window_us;
        self.timeline_windows = timeline.windows;
        if let Some((_, start_us, burn_ppm)) = timeline.worst_burn() {
            self.worst_window_start_us = start_us;
            self.worst_window_burn_ppm = burn_ppm;
        }
        self.alert_counts = timeline.alert_counts();
        // The control-loop facts come from the swap log, not the OBS005
        // alerts: those fold every swap of a (window, shard) into one.
        self.recalibrations = timeline.swaps.len() as u64;
        for swap in &timeline.swaps {
            self.generations[swap.shard] = swap.generation;
            self.recalib_scale_ppm[swap.shard] = swap.calib_ppm;
        }
        self.top_alerts = timeline
            .alerts
            .iter()
            .copied()
            .take(Self::TOP_ALERTS)
            .collect();
    }

    /// Renders the summary as a JSON object. Hand-rolled (integers, flat
    /// arrays, and plain-identifier strings only) so the byte output is
    /// identical under any JSON backend and stable for golden comparison.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        let mut field = |name: &str, value: String| {
            if s.len() > 1 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        };
        let int_array = |xs: &[u64]| {
            let items: Vec<String> = xs.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        field("deadline_us", self.deadline_us.to_string());
        field("workers", self.workers.to_string());
        field("degrade", self.degrade.to_string());
        field("shards", self.shards.to_string());
        field("batch_max", self.batch_max.to_string());
        field("duration_us", self.duration_us.to_string());
        field("total", self.total.to_string());
        field("served", self.served.to_string());
        field("missed", self.missed.to_string());
        field("rejected", self.rejected.to_string());
        field("dropped", self.dropped.to_string());
        field("degraded", self.degraded.to_string());
        field("miss_rate_ppm", self.miss_rate_ppm.to_string());
        field("goodput_mrps", self.goodput_mrps.to_string());
        let names: Vec<String> = self
            .shard_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect();
        field("shard_names", format!("[{}]", names.join(",")));
        field("shard_histogram", int_array(&self.shard_histogram));
        let rungs: Vec<String> = self.rung_histograms.iter().map(|h| int_array(h)).collect();
        field("rung_histograms", format!("[{}]", rungs.join(",")));
        field("batch_histogram", int_array(&self.batch_histogram));
        field("tail_excluded", self.tail_excluded.to_string());
        field(
            "rejected_queue_p99_us",
            self.rejected_queue_p99_us.to_string(),
        );
        field("latency_p50_us", self.latency_p50_us.to_string());
        field("latency_p95_us", self.latency_p95_us.to_string());
        field("latency_p99_us", self.latency_p99_us.to_string());
        field("latency_max_us", self.latency_max_us.to_string());
        field("slo_miss_budget_ppm", self.slo_miss_budget_ppm.to_string());
        field("burn_rate_ppm", self.burn_rate_ppm.to_string());
        field("timeline_window_us", self.timeline_window_us.to_string());
        field("timeline_windows", self.timeline_windows.to_string());
        field(
            "worst_window_burn_ppm",
            self.worst_window_burn_ppm.to_string(),
        );
        field(
            "worst_window_start_us",
            self.worst_window_start_us.to_string(),
        );
        // The alerts object trims trailing never-fired codes beyond the
        // four v1 entries, so runs that never recalibrate render the exact
        // bytes the committed goldens were taken from.
        let mut alert_len = self.alert_counts.len().min(AlertCode::ALL.len());
        while alert_len > 4 && self.alert_counts[alert_len - 1] == 0 {
            alert_len -= 1;
        }
        let counts: Vec<String> = AlertCode::ALL
            .iter()
            .zip(&self.alert_counts[..alert_len])
            .map(|(c, n)| format!("\"{}\":{n}", c.code()))
            .collect();
        field("alerts", format!("{{{}}}", counts.join(",")));
        let tops: Vec<String> = self
            .top_alerts
            .iter()
            .map(|a| {
                format!(
                    "{{\"code\":\"{}\",\"name\":\"{}\",\"w\":{},\"t_us\":{},\"shard\":{},\"value_ppm\":{}}}",
                    a.code.code(),
                    a.code.name(),
                    a.window,
                    a.t_us,
                    a.shard,
                    a.value_ppm,
                )
            })
            .collect();
        field("top_alerts", format!("[{}]", tops.join(",")));
        let exits: Vec<String> = self
            .exit_accuracy_ppm
            .iter()
            .map(|a| int_array(a))
            .collect();
        field("exit_accuracy_ppm", format!("[{}]", exits.join(",")));
        field("acc_goodput_mrps", self.acc_goodput_mrps.to_string());
        field("model_bytes", int_array(&self.model_bytes));
        field(
            "baseline_model_bytes",
            int_array(&self.baseline_model_bytes),
        );
        field("model_reduction_ppm", self.model_reduction_ppm.to_string());
        // Recalibration block renders only when the controller acted, so
        // off-path summaries keep the exact golden byte layout.
        if self.recalibrations > 0 {
            field("recalibrations", self.recalibrations.to_string());
            field("generations", int_array(&self.generations));
            field("recalib_scale_ppm", int_array(&self.recalib_scale_ppm));
        }
        s.push('}');
        s
    }

    /// Human-readable multi-line report for the CLI.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "serve: {} requests, deadline {} µs, {} workers / {} shard{}, degradation {}, batch ≤ {}",
            self.total,
            self.deadline_us,
            self.workers,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            if self.degrade { "on" } else { "off" },
            self.batch_max,
        );
        let _ = writeln!(
            s,
            "  served {}  missed {}  rejected {}  dropped {}",
            self.served, self.missed, self.rejected, self.dropped
        );
        let _ = writeln!(
            s,
            "  miss rate {:.4}%  goodput {:.1} rps  degraded {} ({:.1}% of completions)",
            self.miss_rate_ppm as f64 / 10_000.0,
            self.goodput_mrps as f64 / 1000.0,
            self.degraded,
            if self.served + self.missed == 0 {
                0.0
            } else {
                100.0 * self.degraded as f64 / (self.served + self.missed) as f64
            }
        );
        if !self.exit_accuracy_ppm.is_empty() {
            let _ = writeln!(
                s,
                "  accuracy-weighted goodput {:.1} rps",
                self.acc_goodput_mrps as f64 / 1000.0,
            );
        }
        if self.model_reduction_ppm > 0 {
            let fleet: u64 = self.model_bytes.iter().sum();
            let baseline: u64 = self.baseline_model_bytes.iter().sum();
            let _ = writeln!(
                s,
                "  model memory: {:.1} MiB resident (multi-exit) vs {:.1} MiB per-rung fleet — {:.1}× smaller",
                fleet as f64 / (1024.0 * 1024.0),
                baseline as f64 / (1024.0 * 1024.0),
                self.model_reduction_ppm as f64 / PPM as f64,
            );
        }
        let _ = writeln!(
            s,
            "  latency p50/p95/p99/max: {}/{}/{}/{} µs (completions only; {} rejected+dropped excluded, rejected queue p99 {} µs)",
            self.latency_p50_us,
            self.latency_p95_us,
            self.latency_p99_us,
            self.latency_max_us,
            self.tail_excluded,
            self.rejected_queue_p99_us,
        );
        for (i, name) in self.shard_names.iter().enumerate() {
            let _ = writeln!(
                s,
                "  shard {i} ({name}): {} requests, rungs (fastest→most accurate) {:?}",
                self.shard_histogram[i], self.rung_histograms[i]
            );
        }
        let _ = writeln!(s, "  batch sizes (1..): {:?}", self.batch_histogram);
        if self.timeline_window_us > 0 {
            let _ = writeln!(
                s,
                "  timeline: {} windows × {} µs, run burn {:.2}× budget, worst window {:.2}× @ {} µs",
                self.timeline_windows,
                self.timeline_window_us,
                self.burn_rate_ppm as f64 / PPM as f64,
                self.worst_window_burn_ppm as f64 / PPM as f64,
                self.worst_window_start_us,
            );
            let fired: Vec<String> = AlertCode::ALL
                .iter()
                .zip(&self.alert_counts)
                .filter(|(_, &n)| n > 0)
                .map(|(c, n)| format!("{} {} ×{n}", c.code(), c.name()))
                .collect();
            let _ = writeln!(
                s,
                "  alerts: {}",
                if fired.is_empty() {
                    "none".to_owned()
                } else {
                    fired.join(", ")
                }
            );
        }
        if self.recalibrations > 0 {
            let _ = writeln!(
                s,
                "  recalibrations: {} (shard generations {:?}, scale ppm {:?})",
                self.recalibrations, self.generations, self.recalib_scale_ppm,
            );
        }
        s
    }
}

/// Values below this many microseconds are counted in a [`RankCounter`]'s
/// dense table. At seed 11 every completion latency and rejected queue
/// delay of the reference, stress and drift runs is below it.
const DENSE_US: u64 = 1 << 13;

/// An exact nearest-rank selector over `u64` samples, by counting: a
/// dense `u32` count per value below [`DENSE_US`] (allocated at the first
/// such sample), and the larger samples in a spill list.
#[derive(Debug, Default)]
struct RankCounter {
    counts: Vec<u32>,
    spill: Vec<u64>,
}

impl RankCounter {
    fn push(&mut self, value: u64) {
        if value < DENSE_US {
            if self.counts.is_empty() {
                self.counts = vec![0; DENSE_US as usize];
            }
            self.counts[value as usize] += 1;
        } else {
            self.spill.push(value);
        }
    }

    /// Nearest-rank percentiles of the samples (all 0 when there are
    /// none): for each of `percentiles`, the sample at rank `ceil(n·p/100)`
    /// (at least 1) in ascending order. Ranks within the dense count are
    /// read off one walk of the table; a rank past it is a selection in
    /// the spill list, which is partitioned in place, never sorted.
    fn nearest_ranks<const N: usize>(mut self, percentiles: [u64; N]) -> [u64; N] {
        let dense: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        let n = dense + self.spill.len() as u64;
        let mut picked = [0u64; N];
        if n == 0 {
            return picked;
        }
        let ranks = percentiles.map(|p| (n * p).div_ceil(100).max(1));
        for (slot, &rank) in picked.iter_mut().zip(&ranks) {
            if rank > dense {
                let k = usize::try_from(rank - dense - 1).expect("the rank is in the spill list");
                *slot = *self.spill.select_nth_unstable(k).1;
            }
        }
        // One walk: the value whose cumulative count first reaches a rank.
        let mut below = 0u64;
        for (value, &count) in (0..).zip(&self.counts) {
            if count == 0 {
                continue;
            }
            let through = below + u64::from(count);
            for (slot, &rank) in picked.iter_mut().zip(&ranks) {
                if below < rank && rank <= through {
                    *slot = value;
                }
            }
            below = through;
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use proptest::prelude::*;

    /// The nine-pass aggregation [`ServeSummary::from_outcomes`] replaced,
    /// kept as the reference the one-pass fold must equal: a walk per
    /// status count, per histogram and per percentile population, and two
    /// full sorts.
    fn nine_pass(outcomes: &[RequestOutcome], meta: &RunMeta) -> ServeSummary {
        let count = |s: Status| outcomes.iter().filter(|o| o.status == s).count() as u64;
        let total = outcomes.len() as u64;
        let served = count(Status::Served);
        let missed = count(Status::Missed);
        let rejected = count(Status::Rejected);
        let dropped = count(Status::Dropped);
        let mut degraded = 0u64;
        let mut shard_histogram = vec![0u64; meta.shards.len()];
        let mut rung_histograms: Vec<Vec<u64>> = meta
            .shards
            .iter()
            .map(|s| vec![0u64; s.ladder_len])
            .collect();
        let mut batch_histogram = vec![0u64; meta.batch_max.max(1)];
        for o in outcomes {
            let s = usize::from(o.shard);
            shard_histogram[s] += 1;
            if let Some(r) = o.rung.map(usize::from) {
                rung_histograms[s][r] += 1;
                if r + 1 < meta.shards[s].ladder_len {
                    degraded += 1;
                }
            }
            if o.batch_size > 0 {
                batch_histogram[usize::from(o.batch_size) - 1] += 1;
            }
        }
        let mut latencies: Vec<u64> = outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Served | Status::Missed))
            .map(RequestOutcome::latency_us)
            .collect();
        latencies.sort_unstable();
        let pct = |p: u64| nearest_rank(&latencies, p);
        let mut rejected_delays: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.status == Status::Rejected)
            .map(|o| o.queue_delay_us)
            .collect();
        rejected_delays.sort_unstable();
        // Accuracy-weighted goodput: Σ over served requests of the exit's
        // accuracy fraction, per second. In ppm arithmetic that is
        // Σ acc_ppm × 10⁹ / (10⁶ × duration) = Σ acc_ppm × 10³ / duration.
        let acc_sum_ppm: u128 = outcomes
            .iter()
            .filter(|o| o.status == Status::Served)
            .map(|o| {
                u128::from(o.rung.map_or(PPM, |r| {
                    meta.shards[usize::from(o.shard)]
                        .exit_accuracy_ppm
                        .get(usize::from(r))
                        .copied()
                        .unwrap_or(PPM)
                }))
            })
            .sum();
        let model_bytes: Vec<u64> = meta.shards.iter().map(|s| s.model_bytes).collect();
        let baseline_model_bytes: Vec<u64> =
            meta.shards.iter().map(|s| s.baseline_model_bytes).collect();
        let fleet_model: u128 = model_bytes.iter().map(|&b| u128::from(b)).sum();
        let fleet_baseline: u128 = baseline_model_bytes.iter().map(|&b| u128::from(b)).sum();
        let mut generations = vec![0u64; meta.shards.len()];
        for o in outcomes {
            let s = usize::from(o.shard);
            generations[s] = generations[s].max(u64::from(o.generation));
        }
        ServeSummary {
            deadline_us: meta.deadline_us,
            workers: meta.workers,
            degrade: meta.degrade,
            shards: meta.shards.len(),
            batch_max: meta.batch_max,
            duration_us: meta.duration_us,
            total,
            served,
            missed,
            rejected,
            dropped,
            degraded,
            miss_rate_ppm: ((missed + rejected + dropped) * PPM)
                .checked_div(total)
                .unwrap_or(0),
            goodput_mrps: (served as u128 * 1_000_000_000)
                .checked_div(u128::from(meta.duration_us))
                .unwrap_or(0) as u64,
            shard_names: meta.shards.iter().map(|s| s.name.clone()).collect(),
            shard_histogram,
            rung_histograms,
            batch_histogram,
            tail_excluded: rejected + dropped,
            rejected_queue_p99_us: nearest_rank(&rejected_delays, 99),
            latency_p50_us: pct(50),
            latency_p95_us: pct(95),
            latency_p99_us: pct(99),
            latency_max_us: latencies.last().copied().unwrap_or(0),
            slo_miss_budget_ppm: 0,
            burn_rate_ppm: 0,
            timeline_window_us: 0,
            timeline_windows: 0,
            worst_window_burn_ppm: 0,
            worst_window_start_us: 0,
            alert_counts: Vec::new(),
            top_alerts: Vec::new(),
            exit_accuracy_ppm: meta
                .shards
                .iter()
                .map(|s| s.exit_accuracy_ppm.clone())
                .collect(),
            acc_goodput_mrps: (acc_sum_ppm * 1_000)
                .checked_div(u128::from(meta.duration_us))
                .unwrap_or(0) as u64,
            model_bytes,
            baseline_model_bytes,
            model_reduction_ppm: (fleet_baseline * u128::from(PPM))
                .checked_div(fleet_model)
                .unwrap_or(0) as u64,
            recalibrations: 0,
            generations,
            recalib_scale_ppm: vec![0; meta.shards.len()],
        }
    }

    /// Nearest-rank percentile of an ascending-sorted slice (0 for empty),
    /// the reference's percentile.
    fn nearest_rank(sorted: &[u64], percentile: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (sorted.len() as u64 * percentile).div_ceil(100).max(1) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    fn meta() -> RunMeta {
        RunMeta {
            deadline_us: 900,
            workers: 2,
            degrade: true,
            batch_max: 2,
            duration_us: 500,
            shards: vec![ShardMeta {
                name: "jetson-xavier".into(),
                workers: 2,
                ladder_len: 2,
                exit_accuracy_ppm: vec![600_000, 850_000],
                model_bytes: 10,
                baseline_model_bytes: 170,
            }],
        }
    }

    fn outcome(id: u64, rung: Option<u16>, latency_us: u64, status: Status) -> RequestOutcome {
        RequestOutcome {
            id,
            kind: RequestKind::Visual,
            arrival_us: id * 100,
            queue_delay_us: 0,
            rung,
            service_us: latency_us,
            shard: 0,
            batch_size: u16::from(!matches!(status, Status::Rejected | Status::Dropped)),
            generation: 0,
            status,
        }
    }

    fn sample() -> Vec<RequestOutcome> {
        let mut v = vec![
            outcome(0, Some(1), 700, Status::Served),
            outcome(1, Some(0), 150, Status::Served),
            outcome(2, Some(0), 950, Status::Missed),
            outcome(3, None, 0, Status::Rejected),
            outcome(4, None, 0, Status::Dropped),
        ];
        v[3].queue_delay_us = 1_200;
        v
    }

    #[test]
    fn counts_and_miss_rate() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        assert_eq!(s.total, 5);
        assert_eq!(s.served, 2);
        assert_eq!(s.missed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.degraded, 2);
        assert_eq!(s.miss_rate_ppm, 3 * PPM / 5);
        assert_eq!(s.rung_histograms, vec![vec![2, 1]]);
        assert_eq!(s.shard_histogram, vec![5]);
        assert_eq!(s.batch_histogram, vec![3, 0]);
        // 2 served over 500 µs = 4000 rps.
        assert_eq!(s.goodput_mrps, 4_000_000);
    }

    #[test]
    fn accuracy_weighted_goodput_discounts_shallow_exits() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        // Served: exit 1 at 0.85 + exit 0 at 0.60 → 1.45 accuracy-weighted
        // requests over 500 µs = 2900 rps — strictly below raw goodput.
        assert_eq!(s.acc_goodput_mrps, 2_900_000);
        assert!(s.acc_goodput_mrps < s.goodput_mrps);
        // An EMG request has no exit: it is served at full weight.
        let mut outs = sample();
        outs[1].kind = RequestKind::Emg;
        outs[1].rung = None;
        let s = ServeSummary::from_outcomes(&outs, &meta());
        assert_eq!(s.acc_goodput_mrps, (850_000 + 1_000_000) * 1_000 / 500);
    }

    #[test]
    fn model_memory_accounting_reaches_the_summary() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        assert_eq!(s.exit_accuracy_ppm, vec![vec![600_000, 850_000]]);
        assert_eq!(s.model_bytes, vec![10]);
        assert_eq!(s.baseline_model_bytes, vec![170]);
        assert_eq!(s.model_reduction_ppm, 17 * PPM);
    }

    #[test]
    fn percentiles_use_completion_latencies_only() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        // Completions: [150, 700, 950].
        assert_eq!(s.latency_p50_us, 700);
        assert_eq!(s.latency_p95_us, 950);
        assert_eq!(s.latency_max_us, 950);
    }

    #[test]
    fn rejected_requests_are_counted_not_folded_into_the_tail() {
        // Regression: rejected/dropped requests must never enter the
        // percentile population as zero-latency samples (which would pull
        // the tail *down* under load shedding), and must instead be
        // reported through the explicit side counters.
        let mut outs = sample();
        let with = ServeSummary::from_outcomes(&outs, &meta());
        outs.retain(|o| !matches!(o.status, Status::Rejected | Status::Dropped));
        let without = ServeSummary::from_outcomes(&outs, &meta());
        assert_eq!(with.latency_p50_us, without.latency_p50_us);
        assert_eq!(with.latency_p99_us, without.latency_p99_us);
        assert_eq!(with.tail_excluded, 2);
        assert_eq!(without.tail_excluded, 0);
        // The shed clients' wait is visible, just in its own counter.
        assert_eq!(with.rejected_queue_p99_us, 1_200);
        assert_eq!(without.rejected_queue_p99_us, 0);
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        let json = s.to_json();
        assert_eq!(json, s.to_json());
        assert!(json.starts_with("{\"deadline_us\":900,"));
        assert!(json.contains("\"rung_histograms\":[[2,1]]"));
        assert!(json.contains("\"shard_names\":[\"jetson-xavier\"]"));
        assert!(json.contains("\"batch_histogram\":[3,0]"));
        assert!(json.contains("\"tail_excluded\":2"));
        assert!(json.contains("\"degrade\":true"));
        assert!(json.contains("\"exit_accuracy_ppm\":[[600000,850000]]"));
        assert!(json.contains("\"acc_goodput_mrps\":2900000"));
        assert!(json.contains("\"model_reduction_ppm\":17000000"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn empty_run_summarizes_to_zeros() {
        let s = ServeSummary::from_outcomes(&[], &meta());
        assert_eq!(s.total, 0);
        assert_eq!(s.miss_rate_ppm, 0);
        assert_eq!(s.goodput_mrps, 0);
        assert_eq!(s.latency_max_us, 0);
    }

    #[test]
    fn text_report_mentions_the_headline_numbers() {
        let s = ServeSummary::from_outcomes(&sample(), &meta());
        let text = s.render_text();
        assert!(text.contains("5 requests"));
        assert!(text.contains("miss rate"));
        assert!(text.contains("goodput"));
        assert!(text.contains("p50/p95/p99/max"));
        assert!(text.contains("jetson-xavier"));
    }

    /// The counting selector's nearest ranks of `values`.
    fn counted<const N: usize>(values: &[u64], percentiles: [u64; N]) -> [u64; N] {
        let mut counter = RankCounter::default();
        for &v in values {
            counter.push(v);
        }
        counter.nearest_ranks(percentiles)
    }

    #[test]
    fn nearest_rank_handles_edges() {
        assert_eq!(counted(&[], [99, 50]), [0, 0]);
        assert_eq!(counted(&[7], [1]), [7]);
        assert_eq!(counted(&[4, 1, 3, 2], [100, 50]), [4, 2]);
        assert_eq!(counted(&[4, 1, 3, 2], [50, 50, 1]), [2, 2, 1]);
        assert_eq!(counted(&[4, 1, 3, 2], [1, 50, 100]), [1, 2, 4]);
        // The reference agrees, and both read rank ceil(n·p/100) ≥ 1 at
        // the lengths where that rank steps.
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 50), 2);
        // Runs of values inside the table, across its bound, past it, and
        // near `u64::MAX / 2`, each read in both directions.
        let starts = [
            1,
            DENSE_US - 60,
            DENSE_US - 50,
            DENSE_US,
            u64::MAX / 2 - 200,
        ];
        for n in [1u64, 2, 99, 100, 101] {
            for start in starts {
                let sorted: Vec<u64> = (start..start + n).collect();
                let expected = [99, 95, 50, 1].map(|p| nearest_rank(&sorted, p));
                let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
                for values in [&sorted, &reversed] {
                    let picked = counted(values, [99, 95, 50, 1]);
                    assert_eq!(picked, expected, "n = {n} from {start}");
                }
            }
        }
        // Ties straddling the bound: each rank reads its own side.
        let tied = [DENSE_US - 1, DENSE_US - 1, DENSE_US, DENSE_US];
        assert_eq!(
            counted(&tied, [50, 51, 75, 100]),
            [DENSE_US - 1, DENSE_US, DENSE_US, DENSE_US]
        );
    }

    /// Two shards of three exits, batches of up to two: the shape the
    /// random outcome vectors below index into.
    fn two_shard_meta() -> RunMeta {
        let shard = |name: &str| ShardMeta {
            name: name.into(),
            workers: 1,
            ladder_len: 3,
            exit_accuracy_ppm: vec![500_000, 700_000, 900_000],
            model_bytes: 10,
            baseline_model_bytes: 30,
        };
        RunMeta {
            deadline_us: 900,
            workers: 2,
            degrade: true,
            batch_max: 2,
            duration_us: 1_000,
            shards: vec![shard("a"), shard("b")],
        }
    }

    /// Where a vector's completion latencies and rejected queue delays
    /// fall: `lo + (0..width)`. Inside the counting table (one value,
    /// three, or a spread of up to 5,000 µs), straddling its 2¹³ µs bound
    /// (ties just under, at and over it), at and just over it, far above
    /// it, and near `u64::MAX / 2`.
    fn band() -> impl Strategy<Value = (u64, u64)> {
        prop_oneof![
            Just((0u64, 1u64)),
            Just((0u64, 3u64)),
            (1u64..5_000).prop_map(|w| (0, w)),
            Just((DENSE_US - 2, 4)),
            Just((DENSE_US - 1, 2)),
            Just((DENSE_US, 3)),
            (1u64..1_000_000_000).prop_map(|w| (DENSE_US, w)),
            (1u64..8).prop_map(|w| (u64::MAX / 2 - 4, w)),
        ]
    }

    /// Random outcome records: lengths at the nearest-rank steps (1, 2,
    /// 99, 100, 101) or anywhere up to 300, statuses mixed or all one
    /// kind (all rejected, all dropped, all completions). Each record's
    /// latency (or, if rejected, queue delay) comes from one of two
    /// [`band`]s drawn per vector, so a vector's values lie all inside the
    /// counting table, all past it, or on both sides, with many ties; a
    /// completion splits its latency into a queue delay of 0–2 µs and the
    /// service.
    fn outcomes_strategy() -> impl Strategy<Value = Vec<RequestOutcome>> {
        let len = prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(2usize),
            Just(99usize),
            Just(100usize),
            Just(101usize),
            0usize..300,
        ];
        (len, 0u8..4, band(), band()).prop_flat_map(|(len, mode, a, b)| {
            let record = (
                (0u8..4, 0u16..2, 0u16..3, any::<u64>(), any::<bool>()),
                (1u16..3, 0u32..3, any::<bool>(), 0u64..3),
            );
            prop::collection::vec(record, len..=len).prop_map(move |raw| {
                raw.into_iter()
                    .enumerate()
                    .map(
                        |(
                            i,
                            ((pick, shard, rung, draw, lane), (batch, generation, emg, queue)),
                        )| {
                            let status = match (mode, pick) {
                                (1, _) => Status::Rejected,
                                (2, _) => Status::Dropped,
                                (3, p) if p % 2 == 0 => Status::Served,
                                (3, _) => Status::Missed,
                                (_, 0) => Status::Served,
                                (_, 1) => Status::Missed,
                                (_, 2) => Status::Rejected,
                                _ => Status::Dropped,
                            };
                            let (lo, width) = if lane { a } else { b };
                            let value = lo + draw % width;
                            let ran = matches!(status, Status::Served | Status::Missed);
                            let queue_delay_us = if ran { queue.min(value) } else { value };
                            RequestOutcome {
                                id: i as u64,
                                kind: if emg {
                                    RequestKind::Emg
                                } else {
                                    RequestKind::Visual
                                },
                                arrival_us: i as u64,
                                queue_delay_us,
                                rung: (ran && !emg).then_some(rung),
                                service_us: if ran { value - queue_delay_us } else { 0 },
                                shard,
                                batch_size: if ran { batch } else { 0 },
                                generation,
                                status,
                            }
                        },
                    )
                    .collect()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass fold equals the nine-pass reference on any
        /// outcome vector, before a timeline is attached.
        #[test]
        fn one_pass_fold_equals_the_nine_pass_reference(outcomes in outcomes_strategy()) {
            let meta = two_shard_meta();
            prop_assert_eq!(
                ServeSummary::from_outcomes(&outcomes, &meta),
                nine_pass(&outcomes, &meta)
            );
        }
    }

    #[test]
    fn one_pass_fold_equals_the_nine_pass_reference_on_the_matrix() {
        for seed in [11, 13] {
            for (leg, cfg) in crate::reference_matrix() {
                let cfg = crate::ScenarioConfig {
                    seed,
                    jobs: 1,
                    ..cfg
                };
                let scenario = crate::Scenario::build(cfg.clone());
                let (outcomes, _) = scenario.run_full();
                let meta = RunMeta::from_server(scenario.server(), cfg.duration_us);
                assert_eq!(
                    ServeSummary::from_outcomes(&outcomes, &meta),
                    nine_pass(&outcomes, &meta),
                    "{leg} at seed {seed}"
                );
            }
        }
    }
}
