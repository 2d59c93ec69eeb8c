//! Shared harness for the figure-regeneration binaries (`fig01` … `fig10`)
//! and the Criterion microbenches.
//!
//! Every figure of the paper's evaluation has a binary that recomputes its
//! data on the simulated testbed and prints the series the paper reports;
//! each binary also writes its raw rows as JSON under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netcut::eval::{EvalCaches, EvalContext, EvalStats};
use netcut::explore::{exhaustive_blockwise_with, off_the_shelf_with, Exploration};
use netcut_graph::{HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

pub mod gate;

/// The common experimental setup: the paper's seven source networks on the
/// Xavier-class device at INT8 with the surrogate retrainer. Every phase
/// run through the lab evaluates via a shared [`EvalContext`], so repeated
/// measurements / retrains of the same network are served from one memo
/// cache across the whole run.
pub struct Lab {
    /// Deployment session (device + precision).
    pub session: Session,
    /// The seven source networks.
    pub sources: Vec<Network>,
    /// Transfer head attached to every TRN.
    pub head: HeadSpec,
    /// Paper-scale retrainer.
    pub retrainer: SurrogateRetrainer,
    caches: Arc<EvalCaches>,
    jobs: usize,
    use_cache: bool,
}

/// The application deadline of the robotic prosthetic hand's visual
/// classifier (§III-A).
pub const DEADLINE_MS: f64 = 0.9;

impl Lab {
    /// Builds the standard setup: shared cache enabled, one worker per
    /// available CPU.
    pub fn new() -> Self {
        Lab {
            session: Session::new(DeviceModel::jetson_xavier(), Precision::Int8),
            sources: netcut_graph::zoo::paper_networks(),
            head: HeadSpec::default(),
            retrainer: SurrogateRetrainer::paper(),
            caches: Arc::new(EvalCaches::new()),
            jobs: 0,
            use_cache: true,
        }
    }

    /// Sets the evaluation worker count (`0` = one per available CPU,
    /// `1` = sequential).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables or disables evaluation memoization.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Mints an [`EvalContext`] bound to this lab's session, retrainer and
    /// shared caches. Contexts are cheap: build one per phase.
    pub fn ctx(&self) -> EvalContext<'_, SurrogateRetrainer> {
        EvalContext::new(&self.session, &self.retrainer)
            .with_shared_caches(self.caches.clone())
            .with_jobs(self.jobs)
            .with_cache(self.use_cache)
    }

    /// Snapshot of the shared cache statistics accumulated so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.caches.stats()
    }

    /// The off-the-shelf baseline (Fig. 1): each source with a transfer
    /// head, measured and retrained.
    pub fn off_the_shelf(&self) -> Exploration {
        off_the_shelf_with(&self.ctx(), &self.sources, &self.head, 1)
    }

    /// The exhaustive blockwise sweep (Figs. 5–7): every TRN measured and
    /// retrained.
    pub fn exhaustive(&self) -> Exploration {
        exhaustive_blockwise_with(&self.ctx(), &self.sources, &self.head, 1)
    }

    /// A source network by family name.
    ///
    /// # Panics
    ///
    /// Panics if the family is not one of the seven.
    pub fn source(&self, family: &str) -> &Network {
        self.sources
            .iter()
            .find(|n| n.name() == family)
            .unwrap_or_else(|| panic!("unknown family `{family}`"))
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

/// Writes a figure's raw data as pretty JSON under `results/<name>.json`
/// at the workspace root, returning the path.
///
/// # Panics
///
/// Panics if the file cannot be written — the harness treats result loss
/// as fatal.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = gate::results_path(&format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    gate::write(&path, &json);
    path
}

/// Metadata identifying one benchmark run, reported alongside its metrics
/// so results files are traceable to a code state and configuration.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetadata {
    /// Master measurement seed of the run.
    pub seed: u64,
    /// Simulated device name.
    pub device: String,
    /// Deployment precision.
    pub precision: String,
    /// `git describe` of the working tree (`unknown` outside a checkout).
    pub git: String,
}

impl RunMetadata {
    /// Collects the metadata for a run of `lab` seeded with `seed`.
    pub fn collect(lab: &Lab, seed: u64) -> Self {
        Self::from_session(&lab.session, seed)
    }

    /// Collects the metadata for a run on an arbitrary session.
    pub fn from_session(session: &Session, seed: u64) -> Self {
        RunMetadata {
            seed,
            device: session.device().name.clone(),
            precision: format!("{:?}", session.precision()).to_lowercase(),
            git: git_describe(),
        }
    }
}

/// `git describe --always --dirty` of the workspace, or `unknown` when git
/// or the repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs `f` as a named phase: a span (visible in traces when a sink is
/// installed) plus an always-on wall-clock histogram entry under `name`,
/// in microseconds.
pub fn timed_phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = netcut_obs::span(name);
    let start = std::time::Instant::now();
    let out = f();
    netcut_obs::observe(name, start.elapsed().as_micros() as u64);
    out
}

/// Prints the run-metadata and metrics summary block every figure binary
/// emits after its results: seed/device/git provenance, then the counters
/// (candidates, measurements, retrains) and histograms (retrain-hours,
/// per-phase wall-clock) accumulated during the run.
pub fn print_run_summary(meta: &RunMetadata) {
    println!();
    println!("run summary:");
    println!("  seed      : {}", meta.seed);
    println!("  device    : {}", meta.device);
    println!("  precision : {}", meta.precision);
    println!("  git       : {}", meta.git);
    let metrics = netcut_obs::snapshot();
    if !metrics.is_empty() {
        print!("{}", metrics.render_text());
    }
}

/// The same summary block as [`print_run_summary`], rendered as markdown
/// for `REPORT.md`.
pub fn metrics_markdown(meta: &RunMetadata) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "| field | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| seed | {} |", meta.seed);
    let _ = writeln!(md, "| device | {} |", meta.device);
    let _ = writeln!(md, "| precision | {} |", meta.precision);
    let _ = writeln!(md, "| git | {} |", meta.git);
    let metrics = netcut_obs::snapshot();
    for (name, value) in &metrics.counters {
        let _ = writeln!(md, "| {name} | {value} |");
    }
    for (name, s) in &metrics.histograms {
        let _ = writeln!(
            md,
            "| {name} | n={} mean={} p95={} max={} |",
            s.count, s.mean, s.p95, s.max
        );
    }
    md
}

/// Prints a fixed-width table row-by-row.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(ToString::to_string).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The serving-runtime benchmark matrix shared by `bench_serve` (regenerate
/// `results/BENCH_serve.json`) and `bench_check` (the CI regression gate).
///
/// Four scenario legs cross dynamic batching and multi-device sharding on
/// the reference scenario (900 µs deadline, 2000 rps, 5 s, seed 11, two
/// workers, faults on), plus the historical `no_degrade` pinned baseline
/// and the drift pair (`drift_norecal` / `drift`): the same +30% thermal
/// throttle with the recalibration loop open and closed, quantifying what
/// the closed loop recovers.
/// Every summary is integer-only hand-rolled JSON, so two runs of the same
/// code byte-match — which is exactly what lets the CI gate hard-fail on
/// determinism drift by string equality.
pub mod serve_matrix {
    use netcut_serve::{Scenario, ScenarioConfig, ServeSummary, Timeline};
    use std::fmt::Write as _;

    /// Human description of the reference scenario, embedded in the JSON.
    pub const SCENARIO: &str = "deadline 900us, 2000 rps, 5s, seed 11, 2 workers, faults on";

    /// Largest batch the batching legs may form (the serve crate's
    /// reference matrix owns the value; re-exported for the gate docs).
    pub const BATCH_MAX: usize = netcut_serve::splane::BATCH_MAX;

    /// Shard count of the sharding legs (xavier + nano roster), likewise
    /// owned by the serve crate's reference matrix.
    pub const SHARDS: usize = netcut_serve::splane::SHARDS;

    /// The documented miss-rate regression tolerance of the CI gate, in
    /// ppm of total requests: one percentage point.
    pub const MISS_REGRESSION_PPM: u64 = 10_000;

    /// The accuracy-weighted-goodput regression tolerance of the CI gate:
    /// a fresh run's `acc_goodput_mrps` may fall below the committed value
    /// by at most this fraction of it (ppm) — the same one-percent drift
    /// budget the miss-rate leg uses.
    pub const ACC_GOODPUT_REGRESSION_PPM: u64 = 10_000;

    /// Minimum fleet-memory reduction the multi-exit refactor must show on
    /// the batched sharded leg: the one resident multi-exit network per
    /// device must be at least 10× smaller than the per-rung-network
    /// baseline fleet (the paper-scale figure is ~17×).
    pub const MODEL_REDUCTION_MIN_PPM: u64 = 10_000_000;

    /// The leg whose timeline ships as `BENCH_timeline.jsonl` — the
    /// batched two-shard run, the richest telemetry the matrix produces.
    pub const TIMELINE_LEG: &str = "batch_shard";

    /// Minimum miss-rate reduction the closed recalibration loop must
    /// deliver on the drift leg versus its open-loop twin: five
    /// percentage points, in ppm of total requests.
    pub const RECALIB_MISS_REDUCTION_PPM: u64 = 50_000;

    /// Per-`OBS0xx`-code tolerance of the CI timeline gate: the alert
    /// counts of a fresh run may differ from the committed file by this
    /// much before the gate fails (the non-alert lines must byte-match,
    /// so this only absorbs intentional threshold retunes under review).
    pub const ALERT_COUNT_TOLERANCE: u64 = 2;

    /// The matrix legs, keyed by the name used in `BENCH_serve.json`.
    /// Delegates to the serve crate's reference matrix so the bench, the
    /// `lint serve` pass, and CI all exercise the identical
    /// `Scenario::try_build` configurations.
    pub fn configs() -> Vec<(&'static str, ScenarioConfig)> {
        netcut_serve::reference_matrix()
    }

    /// One completed leg: key, summary, timeline, wall-clock milliseconds.
    pub struct LegResult {
        /// Key from [`configs`].
        pub key: &'static str,
        /// The deterministic run summary, timeline attached.
        pub summary: ServeSummary,
        /// The deterministic windowed timeline of the leg.
        pub timeline: Timeline,
        /// Wall-clock time of the leg (excluded from regression checks).
        pub wall_ms: f64,
    }

    /// Runs every leg of the matrix sequentially.
    pub fn run() -> Vec<LegResult> {
        configs()
            .into_iter()
            .map(|(key, cfg)| {
                let start = std::time::Instant::now();
                let (summary, timeline) = Scenario::build(cfg).run_summary();
                LegResult {
                    key,
                    summary,
                    timeline,
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                }
            })
            .collect()
    }

    /// The [`TIMELINE_LEG`] of a completed matrix.
    ///
    /// # Panics
    /// Panics if the leg is missing (the matrix always contains it).
    pub fn timeline_leg(legs: &[LegResult]) -> &LegResult {
        legs.iter()
            .find(|l| l.key == TIMELINE_LEG)
            .expect("matrix has the timeline leg")
    }

    /// The per-leg burn-rate table `bench_serve` prints: one line per leg
    /// with the run burn rate, the worst window, the alert total, and the
    /// raw vs accuracy-weighted goodput columns.
    pub fn burn_table(legs: &[LegResult]) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>8} {:>11} {:>7} {:>10} {:>10}",
            "leg", "miss_ppm", "burn", "worst_win", "alerts", "goodput", "acc_gput"
        );
        for leg in legs {
            let sm = &leg.summary;
            let _ = writeln!(
                s,
                "{:<12} {:>10} {:>7.2}x {:>10.2}x {:>7} {:>10.1} {:>10.1}",
                leg.key,
                sm.miss_rate_ppm,
                sm.burn_rate_ppm as f64 / 1e6,
                sm.worst_window_burn_ppm as f64 / 1e6,
                sm.alert_counts.iter().sum::<u64>(),
                sm.goodput_mrps as f64 / 1e3,
                sm.acc_goodput_mrps as f64 / 1e3,
            );
        }
        s
    }

    /// Renders the matrix as the `BENCH_serve.json` document. The
    /// `configs` object is deterministic; `git` and `wall_ms` carry
    /// provenance and are ignored by the CI gate.
    pub fn to_json(legs: &[LegResult], git: &str) -> String {
        let keys: Vec<&str> = legs.iter().map(|l| l.key).collect();
        let configs = legs.iter().map(|l| l.summary.to_json()).collect();
        let wall_ms = legs.iter().map(|l| format!("{:.1}", l.wall_ms)).collect();
        let sections = [("configs", configs), ("wall_ms", wall_ms)];
        crate::gate::render(SCENARIO, git, &keys, &sections)
    }

    /// The acceptance invariants of the matrix; returns every violation
    /// (empty = the run is acceptable). Checked both when regenerating the
    /// committed results and by the CI gate on its fresh run.
    pub fn acceptance_violations(legs: &[LegResult]) -> Vec<String> {
        let get = |key: &str| -> &ServeSummary {
            &legs
                .iter()
                .find(|l| l.key == key)
                .unwrap_or_else(|| panic!("matrix leg `{key}` missing"))
                .summary
        };
        let baseline = get("baseline");
        let pinned = get("no_degrade");
        let batch_shard = get("batch_shard");
        let mut violations = Vec::new();
        if baseline.miss_rate_ppm >= pinned.miss_rate_ppm {
            violations.push(format!(
                "degradation must strictly beat the pinned baseline: {} ppm vs {} ppm",
                baseline.miss_rate_ppm, pinned.miss_rate_ppm
            ));
        }
        if batch_shard.goodput_mrps <= baseline.goodput_mrps {
            violations.push(format!(
                "batch+shard goodput must strictly exceed the single-shard unbatched \
                 baseline: {} mrps vs {} mrps",
                batch_shard.goodput_mrps, baseline.goodput_mrps
            ));
        }
        if batch_shard.miss_rate_ppm > baseline.miss_rate_ppm {
            violations.push(format!(
                "batch+shard miss rate must not exceed the baseline: {} ppm vs {} ppm",
                batch_shard.miss_rate_ppm, baseline.miss_rate_ppm
            ));
        }
        for leg in legs {
            if leg.summary.acc_goodput_mrps > leg.summary.goodput_mrps {
                violations.push(format!(
                    "leg `{}`: accuracy-weighted goodput cannot exceed raw goodput \
                     ({} mrps vs {} mrps) — exits cannot be more than 100% accurate",
                    leg.key, leg.summary.acc_goodput_mrps, leg.summary.goodput_mrps
                ));
            }
        }
        // Accuracy-weighted goodput is only comparable between legs on the
        // same device roster (the nano shard's shallower ladder lowers the
        // fleet-wide accuracy weight by construction), so batching must pay
        // for itself against the equal-roster unbatched leg in each case.
        let batch = get("batch");
        let shard = get("shard");
        if batch.acc_goodput_mrps <= baseline.acc_goodput_mrps {
            violations.push(format!(
                "batching must strictly raise accuracy-weighted goodput on the \
                 single-device roster: {} mrps vs {} mrps",
                batch.acc_goodput_mrps, baseline.acc_goodput_mrps
            ));
        }
        if batch_shard.acc_goodput_mrps <= shard.acc_goodput_mrps {
            violations.push(format!(
                "batching must strictly raise accuracy-weighted goodput on the \
                 sharded roster: {} mrps vs {} mrps",
                batch_shard.acc_goodput_mrps, shard.acc_goodput_mrps
            ));
        }
        if batch_shard.model_reduction_ppm < MODEL_REDUCTION_MIN_PPM {
            violations.push(format!(
                "multi-exit fleet must be ≥ {}× smaller than the per-rung-network \
                 baseline, got {} ppm",
                MODEL_REDUCTION_MIN_PPM / 1_000_000,
                batch_shard.model_reduction_ppm
            ));
        }
        // The drift pair: closing the recalibration loop on the thermal
        // scenario must recover at least five percentage points of miss
        // rate and strictly raise accuracy-weighted goodput over the
        // open-loop twin — and it must actually have swapped a ladder.
        let open = get("drift_norecal");
        let closed = get("drift");
        if closed.miss_rate_ppm + RECALIB_MISS_REDUCTION_PPM > open.miss_rate_ppm {
            violations.push(format!(
                "recalibration must cut the drift-leg miss rate by ≥ {} ppm: \
                 closed {} ppm vs open {} ppm",
                RECALIB_MISS_REDUCTION_PPM, closed.miss_rate_ppm, open.miss_rate_ppm
            ));
        }
        if closed.acc_goodput_mrps <= open.acc_goodput_mrps {
            violations.push(format!(
                "recalibration must strictly raise drift-leg accuracy-weighted \
                 goodput: {} mrps vs {} mrps",
                closed.acc_goodput_mrps, open.acc_goodput_mrps
            ));
        }
        if closed.recalibrations == 0 {
            violations.push("the drift leg must record at least one recalibration".into());
        }
        if open.recalibrations != 0 {
            violations.push(format!(
                "the open-loop drift leg must never recalibrate, got {}",
                open.recalibrations
            ));
        }
        violations
    }
}

/// The simulator-throughput harness behind `bench_simcore`: criterion-style
/// timed repetitions of the serving event loop over the reference matrix
/// plus the 10⁶-request stress leg, reporting requests-simulated-per-second.
pub mod simcore {
    use netcut_serve::{Scenario, ScenarioConfig};
    use std::fmt::Write as _;
    use std::time::Instant;

    /// Human description of what the harness measures, embedded in the
    /// JSON so the committed baseline is self-describing.
    pub const SCENARIO: &str =
        "requests simulated per second of virtual-time event loop (run_full only; \
         scenario build excluded), reference matrix + stress_1m";

    /// Key of the 10⁶-request stress leg (owned by the serve crate).
    pub const STRESS_LEG: &str = "stress_1m";

    /// The CI throughput gate: a fresh run's requests-per-second may fall
    /// below the committed baseline by at most this fraction of it (ppm) —
    /// the issue-mandated 10% regression budget, sized to absorb runner
    /// noise while catching real event-loop pessimizations.
    pub const RPS_REGRESSION_PPM: u64 = 100_000;

    /// Wall-clock the harness aims to spend timing each leg: repetitions
    /// are derived from a warmup run so fast legs sample many iterations
    /// and the stress leg is not run more than necessary.
    const TARGET_SAMPLE_MS: f64 = 250.0;

    /// The closed-loop cost gate: the `drift` leg's fastest `run_full`
    /// may take at most this multiple of `drift_norecal`'s. ROADMAP's
    /// target is 1.3×, which the 50 s `drift_long` benchmark workload
    /// meets (traced median 1.20×). This 5 s leg measured 1.18–1.28× on a
    /// 2-vCPU VM: fixed per-run costs weigh more on a short run, and 1.28
    /// against 1.3 would flake on a 2-vCPU runner, so the gate allows
    /// 1.5×.
    pub const CLOSED_OPEN_MAX_RATIO: f64 = 1.5;

    /// Alternating `run_full` pairs timed for the closed/open ratio.
    const RATIO_ROUNDS: usize = 15;

    /// Repetition bounds per leg (at least two so the number is never a
    /// single cold sample, at most fifty to bound total harness time).
    const MIN_ITERS: u64 = 2;
    /// See [`MIN_ITERS`].
    const MAX_ITERS: u64 = 50;

    /// The measured legs: every reference-matrix leg plus the stress leg.
    pub fn configs() -> Vec<(&'static str, ScenarioConfig)> {
        let mut legs = netcut_serve::reference_matrix();
        legs.push(netcut_serve::stress_scenario());
        legs
    }

    /// One measured leg.
    pub struct SimLeg {
        /// Key from [`configs`].
        pub key: &'static str,
        /// Requests the scenario simulates per repetition (deterministic).
        pub requests: u64,
        /// Shape provenance for the deterministic `configs` section.
        pub workers: usize,
        /// See [`SimLeg::workers`].
        pub shards: usize,
        /// See [`SimLeg::workers`].
        pub batch_max: usize,
        /// See [`SimLeg::workers`].
        pub duration_us: u64,
        /// Timed repetitions of `run_full`.
        pub iters: u64,
        /// Total timed wall-clock, milliseconds (provenance).
        pub wall_ms: f64,
        /// Requests simulated per second of wall-clock — the gated number.
        pub rps: u64,
    }

    /// Builds and times every leg: one untimed warmup repetition, then
    /// enough timed repetitions to fill [`TARGET_SAMPLE_MS`]. Scenario
    /// construction (exploration, workload, noise tables) is excluded —
    /// the harness gates the event loop, not the build.
    pub fn run() -> Vec<SimLeg> {
        configs()
            .into_iter()
            .map(|(key, cfg)| {
                let scenario = Scenario::build(cfg.clone());
                let requests = scenario.requests.len() as u64;
                let warm = Instant::now();
                std::hint::black_box(scenario.run_full());
                let warm_ms = warm.elapsed().as_secs_f64() * 1e3;
                let iters = if warm_ms > 0.0 {
                    ((TARGET_SAMPLE_MS / warm_ms).ceil() as u64).clamp(MIN_ITERS, MAX_ITERS)
                } else {
                    MAX_ITERS
                };
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(scenario.run_full());
                }
                let wall = start.elapsed().as_secs_f64();
                SimLeg {
                    key,
                    requests,
                    workers: cfg.workers,
                    shards: cfg.shards,
                    batch_max: cfg.batch_max,
                    duration_us: cfg.duration_us,
                    iters,
                    wall_ms: wall * 1e3,
                    rps: ((requests * iters) as f64 / wall) as u64,
                }
            })
            .collect()
    }

    /// Fastest `run_full` of the closed (`drift`) and open
    /// (`drift_norecal`) drift legs, milliseconds.
    pub struct ClosedOpen {
        /// The `drift` leg, loop closed.
        pub closed_ms: f64,
        /// The `drift_norecal` leg, loop open.
        pub open_ms: f64,
    }

    impl ClosedOpen {
        /// What closing the loop costs: closed over open.
        pub fn ratio(&self) -> f64 {
            self.closed_ms / self.open_ms
        }
    }

    /// Times the drift pair in alternation, so host load drifts over both
    /// sides alike, and keeps each side's fastest run.
    pub fn closed_open() -> ClosedOpen {
        let build = |key: &str| {
            let (_, cfg) = configs()
                .into_iter()
                .find(|(k, _)| *k == key)
                .expect("the reference matrix has both drift legs");
            Scenario::build(cfg)
        };
        let (closed, open) = (build("drift"), build("drift_norecal"));
        let run_ms = |scenario: &Scenario| {
            let start = Instant::now();
            std::hint::black_box(scenario.run_full());
            start.elapsed().as_secs_f64() * 1e3
        };
        let (mut closed_ms, mut open_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RATIO_ROUNDS {
            closed_ms = closed_ms.min(run_ms(&closed));
            open_ms = open_ms.min(run_ms(&open));
        }
        ClosedOpen { closed_ms, open_ms }
    }

    /// The aligned throughput table `bench_simcore` prints.
    pub fn table(legs: &[SimLeg]) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:>10} {:>6} {:>10} {:>14}",
            "leg", "requests", "iters", "wall_ms", "req/s"
        );
        for leg in legs {
            let _ = writeln!(
                s,
                "{:<14} {:>10} {:>6} {:>10.1} {:>14}",
                leg.key, leg.requests, leg.iters, leg.wall_ms, leg.rps
            );
        }
        s
    }

    /// Renders `BENCH_simcore.json`. The `configs` object is deterministic
    /// (request counts and pool shapes are pure functions of the seed);
    /// `git`, `iters`, `wall_ms`, and `rps` carry measurement provenance —
    /// the gate compares `rps` under [`RPS_REGRESSION_PPM`] and requires
    /// `configs` to match exactly.
    pub fn to_json(legs: &[SimLeg], git: &str) -> String {
        let keys: Vec<&str> = legs.iter().map(|l| l.key).collect();
        let column = |value: fn(&SimLeg) -> String| legs.iter().map(value).collect();
        let configs = column(|l| {
            format!(
                "{{\"requests\": {}, \"duration_us\": {}, \"workers\": {}, \
                 \"shards\": {}, \"batch_max\": {}}}",
                l.requests, l.duration_us, l.workers, l.shards, l.batch_max
            )
        });
        let sections = [
            ("configs", configs),
            ("rps", column(|l| l.rps.to_string())),
            ("iters", column(|l| l.iters.to_string())),
            ("wall_ms", column(|l| format!("{:.1}", l.wall_ms))),
        ];
        crate::gate::render(SCENARIO, git, &keys, &sections)
    }

    /// Shape invariants of a measured run and the closed-loop cost gate;
    /// returns every violation (empty = acceptable). Checked when blessing
    /// the committed baseline and on every fresh CI run.
    pub fn acceptance_violations(legs: &[SimLeg], closed_open: &ClosedOpen) -> Vec<String> {
        let mut violations = Vec::new();
        let expected: Vec<&str> = configs().iter().map(|(k, _)| *k).collect();
        let got: Vec<&str> = legs.iter().map(|l| l.key).collect();
        if got != expected {
            violations.push(format!("leg set drifted: {got:?} vs {expected:?}"));
        }
        match legs.iter().find(|l| l.key == STRESS_LEG) {
            Some(stress) => {
                if stress.requests < 1_000_000 {
                    violations.push(format!(
                        "stress leg must simulate ≥ 10⁶ requests, got {}",
                        stress.requests
                    ));
                }
            }
            None => violations.push("stress leg missing".into()),
        }
        for leg in legs {
            if leg.rps == 0 {
                violations.push(format!("leg `{}` measured zero throughput", leg.key));
            }
        }
        if closed_open.ratio() > CLOSED_OPEN_MAX_RATIO {
            violations.push(format!(
                "closing the loop costs {:.2}x the open loop ({:.2} ms vs {:.2} ms), \
                 budget {CLOSED_OPEN_MAX_RATIO}x",
                closed_open.ratio(),
                closed_open.closed_ms,
                closed_open.open_ms
            ));
        }
        violations
    }
}

/// Estimator-study helpers shared by the Fig. 8 and Fig. 9 binaries.
pub mod estimator_study {
    use super::Lab;
    use netcut::removal::blockwise_trns;
    use netcut_estimate::{
        AnalyticalEstimator, LinearLatencyEstimator, ProfilerEstimator, SourceInfo, SvrParams,
    };
    use netcut_graph::Network;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// All blockwise TRNs with measured (ground-truth) latencies, plus the
    /// per-family source latencies the analytical features require.
    pub struct MeasuredTrns {
        /// Every TRN (head attached).
        pub trns: Vec<Network>,
        /// Measured latency per TRN, milliseconds.
        pub latency_ms: Vec<f64>,
        /// Measured latency of each adapted source network.
        pub source_latency_ms: HashMap<String, f64>,
    }

    /// Measures every blockwise TRN of every family on the lab device,
    /// through the lab's shared evaluation context (parallel workers,
    /// memoized — NetCut runs later in the same process reuse these
    /// measurements instead of re-timing).
    pub fn measure_all(lab: &Lab) -> MeasuredTrns {
        let ctx = lab.ctx();
        let mut trns = Vec::new();
        let mut source_latency_ms = HashMap::new();
        for source in &lab.sources {
            let mut adapted = source.backbone().with_head(&lab.head);
            adapted.rename(source.name());
            source_latency_ms.insert(source.name().to_owned(), ctx.measure(&adapted, 11).mean_ms);
            trns.extend(blockwise_trns(source, &lab.head));
        }
        let latency_ms = ctx.par_map(trns.iter().collect(), |_, trn| ctx.measure(trn, 13).mean_ms);
        MeasuredTrns {
            trns,
            latency_ms,
            source_latency_ms,
        }
    }

    /// The paper's split: 20 % of the samples train the analytical models
    /// (with 10-fold CV grid search on that train set); the remaining 80 %
    /// are the test set. The split is stratified per family so every
    /// source architecture is represented in the train set. Returns
    /// `(train_indices, test_indices)`.
    pub fn split_20_80(measured: &MeasuredTrns, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut families: Vec<&str> = measured
            .trns
            .iter()
            .map(netcut_graph::Network::base_name)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        families.sort_unstable();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for family in families {
            let mut idx: Vec<usize> = (0..measured.trns.len())
                .filter(|&i| measured.trns[i].base_name() == family)
                .collect();
            for i in (1..idx.len()).rev() {
                let j = rng.gen_range(0..=i);
                idx.swap(i, j);
            }
            let cut = ((idx.len() as f64 * 0.2).round() as usize).max(2);
            train.extend_from_slice(&idx[..cut.min(idx.len())]);
            test.extend_from_slice(&idx[cut.min(idx.len())..]);
        }
        (train, test)
    }

    /// The three estimators of §V, fitted exactly as the paper describes.
    pub struct FittedEstimators {
        /// Profiler-based ratio estimator (7 layer tables).
        pub profiler: ProfilerEstimator,
        /// RBF-SVR analytical model (grid-searched with 10-fold CV).
        pub svr: AnalyticalEstimator,
        /// Linear-regression baseline.
        pub linear: LinearLatencyEstimator,
        /// Hyper-parameters the grid search selected.
        pub svr_params: SvrParams,
        /// Indices of the held-out test samples.
        pub test_indices: Vec<usize>,
    }

    /// Fits all three estimators on the 20 % train split of `measured`.
    pub fn fit_all(lab: &Lab, measured: &MeasuredTrns, seed: u64) -> FittedEstimators {
        let (train_idx, test_idx) = split_20_80(measured, seed);
        let train: Vec<(&Network, f64)> = train_idx
            .iter()
            .map(|&i| (&measured.trns[i], measured.latency_ms[i]))
            .collect();
        let info = SourceInfo::new(&lab.sources, &measured.source_latency_ms);
        let (svr, search) = AnalyticalEstimator::fit_with_grid_search(&train, &info, 10, seed);
        let linear = LinearLatencyEstimator::fit(&train, &info);
        let profiler = ProfilerEstimator::profile_with(&lab.ctx(), &lab.sources, seed);
        FittedEstimators {
            profiler,
            svr,
            linear,
            svr_params: search.params,
            test_indices: test_idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_seven_sources() {
        let lab = Lab::new();
        assert_eq!(lab.sources.len(), 7);
        assert_eq!(lab.source("resnet50").num_blocks(), 16);
    }

    #[test]
    fn run_metadata_collects_lab_setup() {
        let lab = Lab::new();
        let meta = RunMetadata::collect(&lab, 42);
        assert_eq!(meta.seed, 42);
        assert_eq!(meta.precision, "int8");
        assert!(!meta.device.is_empty());
        assert!(!meta.git.is_empty(), "git field must never be empty");
    }

    #[test]
    fn timed_phase_records_wall_clock() {
        // Metrics are process-global and other tests run concurrently, so
        // assert only on this test's own histogram (never reset here).
        let out = timed_phase("phase.test_bench_us", || 7);
        assert_eq!(out, 7);
        let snap = netcut_obs::snapshot();
        let h = snap
            .histogram("phase.test_bench_us")
            .expect("phase recorded");
        assert!(h.count >= 1);
    }

    #[test]
    fn metrics_markdown_includes_metadata_and_metrics() {
        netcut_obs::counter_add("bench.test_counter", 3);
        let lab = Lab::new();
        let md = metrics_markdown(&RunMetadata::collect(&lab, 9));
        assert!(md.contains("| seed | 9 |"));
        assert!(md.contains("bench.test_counter"));
    }

    #[test]
    fn write_json_round_trips() {
        let path = write_json("self_test", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        std::fs::remove_file(path).unwrap();
    }
}
