//! The harness behind the bench binaries.
//!
//! [`paper`] is the paper's evaluation as one table: every figure and
//! ablation document under `results/`, each computed over one shared
//! [`Lab`]. [`serve_matrix`] is the serving runtime's reference matrix.
//! `suite_report` runs both and writes their documents and
//! `results/REPORT.md`. [`simcore`] is the event-loop throughput harness
//! behind `bench_simcore`, and [`gate`] compares its fresh document with
//! the committed one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use estimator_study::{fit_all, measure_all, EstimatorStudy, STUDY_SEED};
use netcut::eval::{EvalCaches, EvalContext, EvalStats};
use netcut::explore::{exhaustive_blockwise_with, off_the_shelf_with, Exploration};
use netcut_graph::{HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;
use std::sync::{Arc, OnceLock};

pub mod gate;
pub mod paper;

/// The common experimental setup: the paper's seven source networks on the
/// Xavier-class device at INT8 with the surrogate retrainer. Every study
/// measures, profiles and retrains through contexts the lab mints over its
/// one [`EvalCaches`] — on the lab's session or any other — so repeated
/// work is served from one memo cache across the whole run, and the cache
/// statistics count every study.
///
/// The three results several documents read (the off-the-shelf set, the
/// exhaustive sweep and the estimator study) are computed on first use
/// and shared for the rest of the run. Sharing cannot change a value: the
/// evaluation cache keys cover the session, the network's structure (its
/// fingerprint, or a blockwise cut's derivation) and name, and the seed.
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
    shelf: OnceLock<Exploration>,
    sweep: OnceLock<Exploration>,
    study: OnceLock<EstimatorStudy>,
}

/// The application deadline of the robotic prosthetic hand's visual
/// classifier (§III-A).
pub const DEADLINE_MS: f64 = 0.9;

impl Lab {
    /// Builds the standard setup: shared cache, one worker per available
    /// CPU, nothing computed yet.
    pub fn new() -> Self {
        Lab {
            session: Session::new(DeviceModel::jetson_xavier(), Precision::Int8),
            sources: netcut_graph::zoo::paper_networks(),
            head: HeadSpec::default(),
            retrainer: SurrogateRetrainer::paper(),
            caches: Arc::new(EvalCaches::new()),
            shelf: OnceLock::new(),
            sweep: OnceLock::new(),
            study: OnceLock::new(),
        }
    }

    /// Mints an [`EvalContext`] bound to this lab's session, retrainer and
    /// shared caches. Contexts are cheap: build one per phase.
    pub fn ctx(&self) -> EvalContext<'_, SurrogateRetrainer> {
        self.ctx_on(&self.session)
    }

    /// [`ctx`](Self::ctx) on another session (another device or
    /// precision): the same retrainer and shared caches, one worker per
    /// available CPU.
    pub fn ctx_on<'a>(&'a self, session: &'a Session) -> EvalContext<'a, SurrogateRetrainer> {
        EvalContext::new(session, &self.retrainer)
            .with_shared_caches(self.caches.clone())
            .with_jobs(0)
    }

    /// Snapshot of the shared cache statistics accumulated so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.caches.stats()
    }

    /// The off-the-shelf baseline (Fig. 1): each source with a transfer
    /// head, measured and retrained.
    pub fn off_the_shelf(&self) -> &Exploration {
        self.shelf.get_or_init(|| {
            timed_phase("phase.off_the_shelf_us", || {
                off_the_shelf_with(&self.ctx(), &self.sources, &self.head, 1)
            })
        })
    }

    /// The exhaustive blockwise sweep (Figs. 5–7): every TRN measured and
    /// retrained.
    pub fn exhaustive(&self) -> &Exploration {
        self.sweep.get_or_init(|| {
            timed_phase("phase.exhaustive_us", || {
                exhaustive_blockwise_with(&self.ctx(), &self.sources, &self.head, 1)
            })
        })
    }

    /// The estimator study (Figs. 8–9): every blockwise TRN measured, and
    /// the three estimators fitted on the split seeded [`STUDY_SEED`].
    pub fn estimator_study(&self) -> &EstimatorStudy {
        self.study.get_or_init(|| {
            let measured = timed_phase("phase.measure_all_us", || measure_all(self));
            let fitted = timed_phase("phase.fit_estimators_us", || {
                fit_all(self, &measured, STUDY_SEED)
            });
            EstimatorStudy { measured, fitted }
        })
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

/// Metadata identifying one run of the suite, reported alongside its
/// metrics so results are traceable to a code state and configuration.
#[derive(Debug, Clone)]
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
        RunMetadata {
            seed,
            device: lab.session.device().name.clone(),
            precision: format!("{:?}", lab.session.precision()).to_lowercase(),
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

/// Prefix of the wall-clock histograms [`timed_phase`] records.
const PHASE_PREFIX: &str = "phase.";

/// Runs `f` as a named phase: a span (visible in traces when a sink is
/// installed) plus an always-on wall-clock histogram entry under `name`,
/// in microseconds. `name` starts with `phase.`, which keeps it out of
/// `REPORT.md` ([`metrics_markdown`]).
pub fn timed_phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = netcut_obs::span(name);
    let start = std::time::Instant::now();
    let out = f();
    netcut_obs::observe(name, start.elapsed().as_micros() as u64);
    out
}

/// Prints the run-metadata and metrics summary block: seed/device/git
/// provenance, then every counter (candidates, measurements, retrains) and
/// histogram (retrain-hours, per-phase wall-clock) accumulated during the
/// run.
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

/// The deterministic part of [`print_run_summary`], rendered as markdown
/// for `REPORT.md`: seed, device, precision, the counters and the
/// histograms. The git state and the `phase.` wall-clock histograms vary
/// from run to run, so they go to stdout only and a rerun on an unchanged
/// tree rewrites the same report.
pub fn metrics_markdown(meta: &RunMetadata) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "| field | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| seed | {} |", meta.seed);
    let _ = writeln!(md, "| device | {} |", meta.device);
    let _ = writeln!(md, "| precision | {} |", meta.precision);
    let metrics = netcut_obs::snapshot();
    for (name, value) in &metrics.counters {
        let _ = writeln!(md, "| {name} | {value} |");
    }
    for (name, s) in &metrics.histograms {
        if name.starts_with(PHASE_PREFIX) {
            continue;
        }
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

/// The serving-runtime reference matrix behind `results/BENCH_serve.json`
/// and `results/BENCH_timeline.jsonl`, which `suite_report` writes and
/// CI's freshness step pins byte for byte.
///
/// Four scenario legs cross dynamic batching and multi-device sharding on
/// the reference scenario (900 µs deadline, 2000 rps, 5 s, seed 11, two
/// workers, faults on), plus the historical `no_degrade` pinned baseline
/// and the drift pair (`drift_norecal` / `drift`): the same +30% thermal
/// throttle with the recalibration loop open and closed, quantifying what
/// the closed loop recovers.
/// Every summary is integer-only hand-rolled JSON, so two runs of the same
/// code byte-match — which is exactly what lets CI fail on any drift by
/// comparing bytes.
pub mod serve_matrix {
    use netcut_serve::{Scenario, ServeSummary, Timeline};
    use netcut_verify::Report;

    /// Human description of the reference scenario, embedded in the JSON.
    pub const SCENARIO: &str = "deadline 900us, 2000 rps, 5s, seed 11, 2 workers, faults on";

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

    /// One completed leg: key, summary and timeline.
    #[derive(Clone)]
    pub struct LegResult {
        /// Key from [`netcut_serve::reference_matrix`].
        pub key: &'static str,
        /// The deterministic run summary, timeline attached.
        pub summary: ServeSummary,
        /// The deterministic windowed timeline of the leg.
        pub timeline: Timeline,
    }

    /// Builds every leg of [`netcut_serve::reference_matrix`] once and
    /// SV-lints it with [`netcut_serve::lint_leg`], the step `lint serve`
    /// runs: each leg's key, its scenario (`None` when the configuration
    /// did not build) and its report.
    pub fn build() -> Vec<(&'static str, Option<Scenario>, Report)> {
        netcut_serve::reference_matrix()
            .into_iter()
            .map(|(key, cfg)| {
                let (scenario, report) = netcut_serve::lint_leg(key, cfg);
                (key, scenario, report)
            })
            .collect()
    }

    /// Runs every leg of [`build`]'s matrix sequentially.
    ///
    /// # Panics
    /// Panics on a leg that did not build, with its SV002 report.
    pub fn run(built: &[(&'static str, Option<Scenario>, Report)]) -> Vec<LegResult> {
        built
            .iter()
            .map(|(key, scenario, report)| {
                let scenario = scenario
                    .as_ref()
                    .unwrap_or_else(|| panic!("{}", report.render_text()));
                let (summary, timeline) = scenario.run_summary();
                LegResult {
                    key,
                    summary,
                    timeline,
                }
            })
            .collect()
    }

    /// The leg keyed `key` of a completed matrix.
    ///
    /// # Panics
    /// Panics if the matrix has no such leg.
    pub fn leg<'a>(legs: &'a [LegResult], key: &str) -> &'a LegResult {
        legs.iter()
            .find(|l| l.key == key)
            .unwrap_or_else(|| panic!("matrix leg `{key}` missing"))
    }

    /// The matrix's two `results/` documents, by file name:
    /// `BENCH_serve.json` (the scenario, then one `"<leg>": <summary>` line
    /// per leg under `configs`) and the [`TIMELINE_LEG`]'s
    /// `BENCH_timeline.jsonl`.
    pub fn documents(legs: &[LegResult]) -> [(&'static str, String); 2] {
        let keys: Vec<&str> = legs.iter().map(|l| l.key).collect();
        let configs = legs.iter().map(|l| l.summary.to_json()).collect();
        let serve = crate::gate::render(SCENARIO, None, &keys, &[("configs", configs)]);
        let timeline = leg(legs, TIMELINE_LEG).timeline.to_jsonl();
        [
            (crate::gate::SERVE, serve),
            (crate::gate::TIMELINE, timeline),
        ]
    }

    /// The acceptance invariants of the matrix; returns every violation
    /// (empty = the run is acceptable). `suite_report` fails on any.
    pub fn acceptance_violations(legs: &[LegResult]) -> Vec<String> {
        let get = |key: &str| &leg(legs, key).summary;
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
    /// enough timed repetitions to fill `TARGET_SAMPLE_MS`. Scenario
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
        crate::gate::render(SCENARIO, Some(git), &keys, &sections)
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

/// The estimator study behind Figs. 8–9: every blockwise TRN measured, the
/// paper's 20/80 split, and the three estimators of §V fitted on it.
pub mod estimator_study {
    use super::Lab;
    use netcut::eval::CutOrigin;
    use netcut::removal::blockwise_trns;
    use netcut_estimate::{
        mean_relative_error, AnalyticalEstimator, LatencyEstimator, LinearLatencyEstimator,
        ProfilerEstimator, SourceInfo, SvrParams,
    };
    use netcut_graph::Network;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The seed of the study's split, grid search and profiler tables.
    pub const STUDY_SEED: u64 = 17;

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

    impl MeasuredTrns {
        /// `(TRN, measured latency)` of the samples at `indices`.
        pub fn samples(&self, indices: &[usize]) -> Vec<(&Network, f64)> {
            indices
                .iter()
                .map(|&i| (&self.trns[i], self.latency_ms[i]))
                .collect()
        }
    }

    /// Measures every blockwise TRN of every family on the lab device,
    /// through the lab's shared evaluation context (parallel workers,
    /// memoized — NetCut runs later in the same process reuse these
    /// measurements instead of re-timing).
    pub fn measure_all(lab: &Lab) -> MeasuredTrns {
        let ctx = lab.ctx();
        let mut trns = Vec::new();
        let mut ids = Vec::new();
        let mut source_latency_ms = HashMap::new();
        for source in &lab.sources {
            let mut adapted = source.backbone().with_head(&lab.head);
            adapted.rename(source.name());
            source_latency_ms.insert(source.name().to_owned(), ctx.measure(&adapted, 11).mean_ms);
            let origin = CutOrigin::new(source, &lab.head);
            ids.extend((0..source.num_blocks()).map(|k| origin.cut(k)));
            trns.extend(blockwise_trns(source, &lab.head));
        }
        let latency_ms = ctx.par_map(trns.iter().zip(ids).collect(), |_, (trn, id)| {
            ctx.measure_as(trn, id, 13).mean_ms
        });
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
        /// Indices of the training samples.
        pub train_indices: Vec<usize>,
        /// Indices of the held-out test samples.
        pub test_indices: Vec<usize>,
    }

    /// Fits all three estimators on the 20 % train split of `measured`.
    pub fn fit_all(lab: &Lab, measured: &MeasuredTrns, seed: u64) -> FittedEstimators {
        let (train_indices, test_indices) = split_20_80(measured, seed);
        let train = measured.samples(&train_indices);
        let info = SourceInfo::new(&lab.sources, &measured.source_latency_ms);
        let (svr, search) = AnalyticalEstimator::fit_with_grid_search(&train, &info, 10, seed);
        let linear = LinearLatencyEstimator::fit(&train, &info);
        let profiler = ProfilerEstimator::profile_with(&lab.ctx(), &lab.sources, seed);
        FittedEstimators {
            profiler,
            svr,
            linear,
            svr_params: search.params,
            train_indices,
            test_indices,
        }
    }

    /// The measured TRNs and the estimators fitted on them at
    /// [`STUDY_SEED`]: what [`Lab::estimator_study`] computes once per run.
    pub struct EstimatorStudy {
        /// Every blockwise TRN with its measured latency.
        pub measured: MeasuredTrns,
        /// The three estimators and the split they were fitted on.
        pub fitted: FittedEstimators,
    }

    impl EstimatorStudy {
        /// `(TRN, measured latency)` of the training samples.
        pub fn train_set(&self) -> Vec<(&Network, f64)> {
            self.measured.samples(&self.fitted.train_indices)
        }

        /// Mean relative error of `est` over the held-out test samples.
        pub fn test_error(&self, est: &dyn LatencyEstimator) -> f64 {
            let (pred, truth): (Vec<f64>, Vec<f64>) = self
                .fitted
                .test_indices
                .iter()
                .map(|&i| {
                    let trn = &self.measured.trns[i];
                    (est.estimate_ms(trn), self.measured.latency_ms[i])
                })
                .unzip();
            mean_relative_error(&pred, &truth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_serve::ServeSummary;
    use serve_matrix::{acceptance_violations, LegResult};

    /// The serve reference matrix, run once for every test that reads it.
    pub(crate) fn matrix() -> &'static [LegResult] {
        static LEGS: OnceLock<Vec<LegResult>> = OnceLock::new();
        LEGS.get_or_init(|| serve_matrix::run(&serve_matrix::build()))
    }

    /// The summary of leg `key`, to doctor.
    fn summary<'a>(legs: &'a mut [LegResult], key: &str) -> &'a mut ServeSummary {
        &mut legs
            .iter_mut()
            .find(|l| l.key == key)
            .expect("the matrix has the leg")
            .summary
    }

    #[test]
    fn the_matrix_passes_and_each_acceptance_rule_fires_alone() {
        assert_eq!(acceptance_violations(matrix()), Vec::<String>::new());

        type Doctor = fn(&mut [LegResult]);
        let cases: [(&str, Doctor); 11] = [
            (
                "degradation must strictly beat the pinned baseline",
                |legs| {
                    let pinned = summary(legs, "no_degrade").clone();
                    let degrading = std::mem::replace(summary(legs, "baseline"), pinned);
                    *summary(legs, "no_degrade") = degrading;
                },
            ),
            ("batch+shard goodput must strictly exceed", |legs| {
                summary(legs, "batch_shard").goodput_mrps = summary(legs, "baseline").goodput_mrps;
            }),
            (
                "batch+shard miss rate must not exceed the baseline",
                |legs| {
                    summary(legs, "batch_shard").miss_rate_ppm =
                        summary(legs, "baseline").miss_rate_ppm + 1;
                },
            ),
            (
                "leg `no_degrade`: accuracy-weighted goodput cannot exceed raw goodput",
                |legs| {
                    let leg = summary(legs, "no_degrade");
                    leg.acc_goodput_mrps = leg.goodput_mrps + 1;
                },
            ),
            (
                "batching must strictly raise accuracy-weighted goodput on the \
                 single-device roster",
                |legs| {
                    summary(legs, "batch").acc_goodput_mrps =
                        summary(legs, "baseline").acc_goodput_mrps;
                },
            ),
            (
                "batching must strictly raise accuracy-weighted goodput on the \
                 sharded roster",
                |legs| {
                    summary(legs, "batch_shard").acc_goodput_mrps =
                        summary(legs, "shard").acc_goodput_mrps;
                },
            ),
            ("multi-exit fleet must be ≥ 10× smaller", |legs| {
                summary(legs, "batch_shard").model_reduction_ppm =
                    serve_matrix::MODEL_REDUCTION_MIN_PPM - 1;
            }),
            (
                "recalibration must cut the drift-leg miss rate by ≥ 50000 ppm",
                |legs| {
                    summary(legs, "drift").miss_rate_ppm = summary(legs, "drift_norecal")
                        .miss_rate_ppm
                        - serve_matrix::RECALIB_MISS_REDUCTION_PPM
                        + 1;
                },
            ),
            (
                "recalibration must strictly raise drift-leg accuracy-weighted goodput",
                |legs| {
                    summary(legs, "drift").acc_goodput_mrps =
                        summary(legs, "drift_norecal").acc_goodput_mrps;
                },
            ),
            (
                "the drift leg must record at least one recalibration",
                |legs| {
                    summary(legs, "drift").recalibrations = 0;
                },
            ),
            (
                "the open-loop drift leg must never recalibrate, got 1",
                |legs| {
                    summary(legs, "drift_norecal").recalibrations = 1;
                },
            ),
        ];
        for (rule, doctor) in cases {
            let mut legs = matrix().to_vec();
            doctor(&mut legs);
            let violations = acceptance_violations(&legs);
            assert_eq!(violations.len(), 1, "{rule}: {violations:?}");
            assert!(violations[0].starts_with(rule), "{rule}: {violations:?}");
        }
    }

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
        timed_phase("phase.test_markdown_us", || ());
        let lab = Lab::new();
        let md = metrics_markdown(&RunMetadata::collect(&lab, 9));
        assert!(md.contains("| seed | 9 |"));
        assert!(md.contains("bench.test_counter"));
        // What varies from run to run stays out of the report.
        assert!(!md.contains("| git |"), "{md}");
        assert!(!md.contains("phase."), "{md}");
    }
}
