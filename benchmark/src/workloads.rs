//! The four workloads: what one sample runs, how its outputs are checked,
//! and the separate attribution calls a traced sample makes.

use crate::trace::{Span, Trace};
use netcut::eval::{par_map_with_jobs, EvalCaches, EvalContext, EvalStats};
use netcut::explore::{exhaustive_blockwise_with, Exploration};
use netcut::netcut::{DeadlineSweep, NetCut};
use netcut::pareto::pareto_frontier;
use netcut::CandidatePoint;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_serve::scenario::scenario_networks;
use netcut_serve::{
    service_noise_ppm, RequestOutcome, RunMeta, Scenario, ScenarioConfig, ServeSummary, Timeline,
    Workload as Arrivals,
};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Virtual duration of `drift_long`: ten times the reference drift leg,
/// so the controller sees many watermarks and several swaps.
const DRIFT_LONG_US: u64 = 50_000_000;

/// Virtual duration of `stress_250k`: a quarter of `stress_scenario()`'s
/// 5 s. At full length (10^6 requests) a sample took 0.6-1 s, so a run
/// held only 30-40 samples, and their fastest swung by 18 % across seeds
/// against 7 % at a quarter, in interleaved runs (see `README.md`, Noise).
const STRESS_US: u64 = 1_250_000;

/// Deadlines of the `pipeline` workload's Algorithm 1 sweep, milliseconds.
pub const DEADLINES_MS: [f64; 7] = [0.5, 0.7, 0.9, 1.2, 1.5, 2.0, 3.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Matrix,
    Stress,
    DriftLong,
    Pipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Matrix,
        Workload::Stress,
        Workload::DriftLong,
        Workload::Pipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::Stress => "stress_250k",
            Workload::DriftLong => "drift_long",
            Workload::Pipeline => "pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serve legs one sample runs, in order (none for `pipeline`).
    /// Every leg runs at `jobs`; the seed replaces each leg's own.
    pub fn legs(self, seed: u64, jobs: usize) -> Vec<(&'static str, ScenarioConfig)> {
        let legs = match self {
            Workload::Matrix => netcut_serve::reference_matrix(),
            Workload::Stress => {
                let (_, cfg) = netcut_serve::stress_scenario();
                let cfg = ScenarioConfig {
                    duration_us: STRESS_US,
                    ..cfg
                };
                vec![("stress_250k", cfg)]
            }
            Workload::DriftLong => netcut_serve::reference_matrix()
                .into_iter()
                .filter(|(leg, _)| *leg == "drift")
                .map(|(_, cfg)| {
                    let cfg = ScenarioConfig {
                        duration_us: DRIFT_LONG_US,
                        ..cfg
                    };
                    ("drift_long", cfg)
                })
                .collect(),
            Workload::Pipeline => Vec::new(),
        };
        legs.into_iter()
            .map(|(leg, cfg)| (leg, ScenarioConfig { seed, jobs, ..cfg }))
            .collect()
    }
}

/// FNV-1a, 64 bit: the digest two runs of the same inputs must share.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One serve leg of a finished sample. Everything the leg made is kept,
/// so the clock stops before teardown, and so a traced sample can make its
/// attribution calls on the same inputs and compare their outcomes.
pub struct LegOut {
    pub leg: &'static str,
    pub scenario: Scenario,
    pub outcomes: Vec<RequestOutcome>,
    pub timeline: Timeline,
    pub summary: ServeSummary,
    /// `summary.to_json()`.
    pub json: String,
    /// The timeline's JSON lines.
    pub jsonl: String,
}

pub struct PipelineOut {
    pub sources: Vec<Network>,
    pub sweep: DeadlineSweep,
    pub exhaustive: Exploration,
    pub selected: Vec<Option<CandidatePoint>>,
    pub frontier: Vec<usize>,
    pub emitted: String,
    pub stats: EvalStats,
}

pub enum Output {
    Serve(Vec<LegOut>),
    Pipeline(Box<PipelineOut>),
}

/// A finished sample: its clock readings and what it produced.
pub struct Sample {
    pub e2e_s: f64,
    pub setup_s: f64,
    pub out: Output,
}

/// Runs one sample: config to emitted bytes. `trace` records the chain
/// spans `e2e` → set-up, run, aggregate, emit when enabled.
pub fn run_sample(
    workload: Workload,
    seed: u64,
    jobs: usize,
    trace: &mut Trace,
) -> Result<Sample, String> {
    match workload {
        Workload::Pipeline => pipeline_sample(seed, jobs, trace),
        serve => serve_sample(&serve.legs(seed, jobs), trace),
    }
}

fn serve_sample(
    legs: &[(&'static str, ScenarioConfig)],
    trace: &mut Trace,
) -> Result<Sample, String> {
    let start = Instant::now();
    let mut setup_s = 0.0;
    let mut outs = Vec::with_capacity(legs.len());
    trace.begin("e2e");
    for (leg, cfg) in legs {
        trace.leg = leg;
        let built = Instant::now();
        trace.begin("scenario.build");
        let scenario = Scenario::try_build(cfg.clone());
        trace.end();
        setup_s += built.elapsed().as_secs_f64();
        let scenario = scenario.map_err(|e| format!("{leg}: scenario build failed: {e}"))?;
        trace.begin("runtime.run_full");
        let (outcomes, timeline) = scenario.run_full();
        trace.end();
        trace.begin("summary.aggregate");
        let meta = RunMeta::from_server(&scenario.server(), cfg.duration_us);
        let mut summary = ServeSummary::from_outcomes(&outcomes, &meta);
        summary.attach_timeline(&timeline);
        trace.end();
        trace.begin("summary.emit");
        let json = summary.to_json();
        let jsonl = timeline.to_jsonl();
        trace.end();
        outs.push(LegOut {
            leg,
            scenario,
            outcomes,
            timeline,
            summary,
            json,
            jsonl,
        });
    }
    trace.end();
    Ok(Sample {
        e2e_s: start.elapsed().as_secs_f64(),
        setup_s,
        out: Output::Serve(outs),
    })
}

fn pipeline_sample(seed: u64, jobs: usize, trace: &mut Trace) -> Result<Sample, String> {
    let start = Instant::now();
    trace.leg = "";
    trace.begin("e2e");
    trace.begin("pipeline.setup");
    let sources = zoo::paper_networks();
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    // Fresh caches every sample: the pipeline pays its evaluations cold.
    let ctx = EvalContext::new(&session, &retrainer).with_jobs(jobs);
    trace.begin("estimate.profile");
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, seed);
    trace.end();
    trace.end();
    let setup_s = start.elapsed().as_secs_f64();
    trace.begin("pipeline.run");
    trace.begin("netcut.alg1");
    let sweep = NetCut::new(&estimator, &retrainer)
        .with_seeds(seed, seed.wrapping_add(2))
        .run_deadlines_with(&sources, &DEADLINES_MS, &ctx);
    trace.end();
    trace.begin("explore.exhaustive");
    let exhaustive = exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), seed);
    trace.end();
    trace.end();
    trace.begin("pipeline.aggregate");
    let selected: Vec<Option<CandidatePoint>> = sweep
        .outcomes
        .iter()
        .map(|(_, o)| o.selected().cloned())
        .collect();
    let frontier = pareto_frontier(&exhaustive.points);
    trace.end();
    trace.begin("pipeline.emit");
    let emitted = emit_pipeline(&sweep, &exhaustive);
    trace.end();
    trace.end();
    let e2e_s = start.elapsed().as_secs_f64();
    let emitted = emitted?;
    let stats = ctx.stats();
    Ok(Sample {
        e2e_s,
        setup_s,
        out: Output::Pipeline(Box::new(PipelineOut {
            sources,
            sweep,
            exhaustive,
            selected,
            frontier,
            emitted,
            stats,
        })),
    })
}

/// What `netcut-cli explore --json` prints per deadline, then what
/// `netcut-cli sweep --json` prints.
fn emit_pipeline(sweep: &DeadlineSweep, exhaustive: &Exploration) -> Result<String, String> {
    let mut out = String::new();
    for (_, outcome) in &sweep.outcomes {
        out += &serde_json::to_string_pretty(&outcome.proposals).map_err(|e| e.to_string())?;
        out.push('\n');
    }
    out += &serde_json::to_string_pretty(&exhaustive.points).map_err(|e| e.to_string())?;
    out.push('\n');
    Ok(out)
}

/// The digest of everything a sample emitted.
pub fn digest(sample: &Sample) -> u64 {
    let mut h = Fnv::new();
    match &sample.out {
        Output::Serve(legs) => {
            for leg in legs {
                h.write(leg.leg.as_bytes());
                h.write(leg.json.as_bytes());
                h.write(leg.jsonl.as_bytes());
            }
        }
        Output::Pipeline(p) => {
            h.write(p.emitted.as_bytes());
            for i in &p.frontier {
                h.write(&i.to_le_bytes());
            }
            for s in &p.selected {
                h.write(s.as_ref().map_or("-", |s| s.name.as_str()).as_bytes());
            }
        }
    }
    h.finish()
}

/// The accounting identity every serve summary must satisfy: each request
/// generated ends in exactly one of the four dispositions.
pub fn check_accounting(summary: &ServeSummary, requests: usize) -> Result<(), String> {
    let disposed = summary.served + summary.missed + summary.rejected + summary.dropped;
    if summary.total != disposed {
        return Err(format!(
            "total {} != served {} + missed {} + rejected {} + dropped {}",
            summary.total, summary.served, summary.missed, summary.rejected, summary.dropped
        ));
    }
    if summary.total != requests as u64 {
        return Err(format!(
            "summary total {} != {requests} requests generated",
            summary.total
        ));
    }
    Ok(())
}

/// Algorithm 1's contract on every proposal: its estimate meets the
/// deadline, or its family ran out of blocks to remove. The selection is
/// an accepted proposal.
fn check_pipeline(p: &PipelineOut) -> Result<(), String> {
    if p.sweep.outcomes.len() != DEADLINES_MS.len() {
        return Err(format!("{} deadline outcomes", p.sweep.outcomes.len()));
    }
    for ((deadline, outcome), selected) in p.sweep.outcomes.iter().zip(&p.selected) {
        if outcome.proposals.len() != p.sources.len() {
            return Err(format!(
                "{deadline} ms: {} proposals for {} families",
                outcome.proposals.len(),
                p.sources.len()
            ));
        }
        for prop in &outcome.proposals {
            let est = prop
                .estimated_ms
                .ok_or_else(|| format!("{} has no estimate", prop.name))?;
            let blocks = p
                .sources
                .iter()
                .find(|s| s.name() == prop.family)
                .map(Network::num_blocks)
                .ok_or_else(|| format!("unknown family {}", prop.family))?;
            if est > *deadline && prop.cutpoint + 1 < blocks {
                return Err(format!(
                    "{}: estimate {est} ms misses {deadline} ms with blocks left",
                    prop.name
                ));
            }
        }
        if let Some(s) = selected {
            if s.estimated_ms.is_none_or(|e| e > *deadline) {
                return Err(format!("{deadline} ms: selected {} misses it", s.name));
            }
        }
    }
    if p.exhaustive.points.is_empty() || p.frontier.is_empty() {
        return Err("exhaustive sweep produced no frontier".into());
    }
    if p.sweep.total_hours.is_nan() || p.sweep.total_hours <= 0.0 {
        return Err(format!("retraining bill {} h", p.sweep.total_hours));
    }
    Ok(())
}

/// Checks one sample's outputs.
pub fn check(sample: &Sample) -> Result<(), String> {
    match &sample.out {
        Output::Serve(legs) => legs.iter().try_for_each(|l| {
            check_accounting(&l.summary, l.scenario.requests.len())
                .map_err(|e| format!("{}: {e}", l.leg))
        }),
        Output::Pipeline(p) => check_pipeline(p),
    }
}

/// At seed 11 the `matrix` summaries must byte-match the `configs` of the
/// committed `results/BENCH_serve.json`, which holds one leg per line.
pub fn check_committed_matrix(sample: &Sample, committed: &str) -> Result<(), String> {
    let Output::Serve(legs) = &sample.out else {
        return Err("not a serve sample".into());
    };
    for leg in legs {
        let prefix = format!("\"{}\": ", leg.leg);
        let line = committed
            .lines()
            .map(str::trim)
            .find(|l| l.starts_with(&prefix))
            .ok_or_else(|| format!("{}: no committed summary", leg.leg))?;
        let body = line[prefix.len()..].trim_end_matches(',');
        if body != leg.json {
            return Err(format!(
                "{}: summary differs from the committed one",
                leg.leg
            ));
        }
    }
    Ok(())
}

/// Evaluation-cache totals of a traced sample's exploration, summed over
/// its legs.
#[derive(Debug, Default)]
pub struct Attribution {
    pub candidates: usize,
    pub hits: u64,
    pub misses: u64,
    pub distinct_retrains: u64,
}

/// The attribution calls of a traced serve sample: each layer's public
/// function called again with the sample's inputs, under its own span.
pub fn attribute(sample: &Sample, trace: &mut Trace) -> Result<Attribution, String> {
    let Output::Serve(legs) = &sample.out else {
        return Ok(Attribution::default());
    };
    let mut attr = Attribution::default();
    for leg in legs {
        trace.leg = leg.leg;
        let cfg = leg.scenario.config();
        let roster: Vec<&DeviceModel> = (0..cfg.shards)
            .map(|i| &cfg.devices[i % cfg.devices.len()])
            .collect();

        // The exploration `Scenario::try_build` makes: one cache set, one
        // sweep per distinct roster device.
        trace.begin("explore.exhaustive");
        let caches = Arc::new(EvalCaches::new());
        let mut explored: Vec<&str> = Vec::new();
        for device in &roster {
            if explored.contains(&device.name.as_str()) {
                continue;
            }
            explored.push(&device.name);
            let session = Session::new((*device).clone(), Precision::Int8);
            let retrainer = SurrogateRetrainer::paper();
            let ctx = EvalContext::new(&session, &retrainer)
                .with_jobs(1)
                .with_shared_caches(caches.clone());
            let sweep = exhaustive_blockwise_with(
                &ctx,
                &scenario_networks(),
                &HeadSpec::default(),
                cfg.seed,
            );
            attr.candidates += sweep.points.len();
        }
        trace.end();
        let stats = caches.stats();
        attr.hits += stats.hits;
        attr.misses += stats.misses;
        attr.distinct_retrains += stats.distinct_retrains;

        trace.begin("request.generate");
        let requests = Arrivals {
            rps: cfg.rps,
            duration_us: cfg.duration_us,
            emg_share_ppm: cfg.emg_share_ppm,
            seed: cfg.seed,
        }
        .generate();
        trace.end();
        if requests.len() != leg.scenario.requests.len() {
            return Err(format!("{}: regenerated a different workload", leg.leg));
        }
        trace.begin("request.noise");
        let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        for device in &roster {
            let jitter = device.jitter_ppm();
            black_box(par_map_with_jobs(1, ids.clone(), |_, id| {
                service_noise_ppm(cfg.seed, id, jitter)
            }));
        }
        trace.end();
        drop(requests);

        let server = leg.scenario.server();
        let reqs = &leg.scenario.requests;
        let tcfg = leg.scenario.timeline_config();
        // Each call must reproduce the outcomes of the sample's own run.
        let open = trace.span("runtime.run", || server.run(reqs));
        let observed = trace.span("runtime.run_with_timeline", || {
            server.run_with_timeline(reqs, &tcfg)
        });
        if open != observed.0 {
            return Err(format!("{}: the timeline changed the outcomes", leg.leg));
        }
        if !cfg.recalibrate && open != leg.outcomes {
            return Err(format!("{}: Server::run differs from run_full", leg.leg));
        }
        drop((open, observed));
        let recalibrator = leg.scenario.recalibrator();
        let rcfg = leg.scenario.recalib_config();
        let closed = trace.span("runtime.run_recalibrating", || {
            server.run_recalibrating(reqs, &tcfg, &rcfg, &recalibrator)
        });
        if cfg.recalibrate && closed.0 != leg.outcomes {
            return Err(format!(
                "{}: run_recalibrating differs from run_full",
                leg.leg
            ));
        }
    }
    Ok(attr)
}

fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 * 1e-9)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric of one traced sample, from its spans and outputs.
/// A layer the workload does not run reads 0.
pub fn layer_values(
    sample: &Sample,
    attr: &Attribution,
    spans: &[Span],
) -> Vec<(&'static str, f64)> {
    let e2e_span = spans.iter().find(|s| s.name == "e2e");
    let e2e = e2e_span.map_or(0.0, |s| s.ns() as f64 * 1e-9);
    let unattributed = e2e_span.map_or(0.0, |s| ratio(s.self_ns() as f64, s.ns() as f64));
    let t = |name: &str| total_s(spans, name);
    let mut v: Vec<(&'static str, f64)> = Vec::new();
    match &sample.out {
        Output::Serve(legs) => {
            let (setup, explore) = (t("scenario.build"), t("explore.exhaustive"));
            let (generate, noise) = (t("request.generate"), t("request.noise"));
            let (open, observed) = (t("runtime.run"), t("runtime.run_with_timeline"));
            let sum = |f: &dyn Fn(&ServeSummary) -> u64| -> f64 {
                legs.iter().map(|l| f(&l.summary) as f64).sum()
            };
            let total = sum(&|s| s.total);
            let started: f64 = sum(&|s| s.batch_histogram.iter().sum());
            let joined: f64 = sum(&|s| s.batch_histogram.iter().skip(1).sum());
            let batches: f64 = legs
                .iter()
                .flat_map(|l| l.summary.batch_histogram.iter().enumerate())
                .map(|(i, &n)| n as f64 / (i + 1) as f64)
                .sum();
            let bad = sum(&|s| s.missed + s.rejected + s.dropped);
            v.extend([
                ("stage.setup_s", setup),
                ("stage.run_s", t("runtime.run_full")),
                ("stage.aggregate_s", t("summary.aggregate")),
                ("stage.emit_s", t("summary.emit")),
                ("explore.exhaustive_s", explore),
                ("request.generate_share", ratio(generate, e2e)),
                ("request.noise_share", ratio(noise, e2e)),
                (
                    "scenario.other_share",
                    ratio(setup - explore - generate - noise, e2e),
                ),
                ("runtime.loop_share", ratio(open, e2e)),
                ("timeline.overhead_share", ratio(observed - open, e2e)),
                (
                    "recalib.closed_open_ratio",
                    ratio(t("runtime.run_recalibrating"), observed),
                ),
                ("runtime.loop_rps", ratio(total, open)),
                (
                    "eval.hit_ratio",
                    ratio(attr.hits as f64, (attr.hits + attr.misses) as f64),
                ),
                ("eval.misses", attr.misses as f64),
                ("eval.distinct_retrains", attr.distinct_retrains as f64),
                ("explore.candidates", attr.candidates as f64),
                ("runtime.requests", total),
                ("runtime.batches", batches.round()),
                ("batch.join_ratio", ratio(joined, started)),
                ("runtime.reject_ratio", ratio(sum(&|s| s.rejected), total)),
                ("faults.drop_ratio", ratio(sum(&|s| s.dropped), total)),
                ("ladder.degrade_ratio", ratio(sum(&|s| s.degraded), total)),
                ("recalib.swaps", sum(&|s| s.recalibrations)),
                ("timeline.windows", sum(&|s| s.timeline_windows)),
                ("serve.miss_rate_ppm", ratio(bad * 1e6, total)),
                (
                    "serve.acc_goodput_rps",
                    sum(&|s| s.acc_goodput_mrps) / 1e3 / legs.len() as f64,
                ),
                ("pipeline.retrain_hours", 0.0),
                ("pipeline.selected_accuracy", 0.0),
                (
                    "stage.emit_bytes",
                    legs.iter()
                        .map(|l| (l.json.len() + l.jsonl.len()) as f64)
                        .sum(),
                ),
            ]);
        }
        Output::Pipeline(p) => {
            let chosen: Vec<f64> = p.selected.iter().flatten().map(|c| c.accuracy).collect();
            v.extend([
                ("stage.setup_s", t("pipeline.setup")),
                ("stage.run_s", t("pipeline.run")),
                ("stage.aggregate_s", t("pipeline.aggregate")),
                ("stage.emit_s", t("pipeline.emit")),
                ("explore.exhaustive_s", t("explore.exhaustive")),
                ("eval.hit_ratio", p.stats.hit_rate()),
                ("eval.misses", p.stats.misses as f64),
                ("eval.distinct_retrains", p.stats.distinct_retrains as f64),
                ("explore.candidates", p.exhaustive.points.len() as f64),
                ("pipeline.retrain_hours", p.sweep.total_hours),
                (
                    "pipeline.selected_accuracy",
                    ratio(chosen.iter().sum(), chosen.len() as f64),
                ),
                ("stage.emit_bytes", p.emitted.len() as f64),
            ]);
            for name in [
                "request.generate_share",
                "request.noise_share",
                "scenario.other_share",
                "runtime.loop_share",
                "timeline.overhead_share",
                "recalib.closed_open_ratio",
                "runtime.loop_rps",
                "runtime.requests",
                "runtime.batches",
                "batch.join_ratio",
                "runtime.reject_ratio",
                "faults.drop_ratio",
                "ladder.degrade_ratio",
                "recalib.swaps",
                "timeline.windows",
                "serve.miss_rate_ppm",
                "serve.acc_goodput_rps",
            ] {
                v.push((name, 0.0));
            }
        }
    }
    v.push(("trace.unattributed_ratio", unattributed));
    v
}

/// Bytes allocated inside `Server::run`, and by `from_outcomes` +
/// `attach_timeline`, counted on one finished sample's inputs.
pub fn layer_allocations(sample: &Sample) -> (u64, u64) {
    let Output::Serve(legs) = &sample.out else {
        return (0, 0);
    };
    let (mut runtime, mut summary) = (0, 0);
    for leg in legs {
        let server = leg.scenario.server();
        let (outcomes, usage) = crate::alloc::measure(|| server.run(&leg.scenario.requests));
        runtime += usage.allocated_bytes;
        drop(outcomes);
        let meta = RunMeta::from_server(&server, leg.scenario.config().duration_us);
        let (s, usage) = crate::alloc::measure(|| {
            let mut s = ServeSummary::from_outcomes(&leg.outcomes, &meta);
            s.attach_timeline(&leg.timeline);
            s
        });
        summary += usage.allocated_bytes;
        drop(s);
    }
    (runtime, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sample() -> Sample {
        let legs = vec![(
            "quick",
            ScenarioConfig {
                duration_us: 100_000,
                ..ScenarioConfig::default()
            },
        )];
        serve_sample(&legs, &mut Trace::new(false)).expect("quick scenario builds")
    }

    #[test]
    fn checker_accepts_a_real_summary() {
        assert_eq!(check(&quick_sample()), Ok(()));
    }

    #[test]
    fn checker_rejects_a_broken_accounting_identity() {
        fn summary(s: &mut Sample) -> &mut ServeSummary {
            let Output::Serve(legs) = &mut s.out else {
                unreachable!()
            };
            &mut legs[0].summary
        }
        let mut sample = quick_sample();
        summary(&mut sample).served += 1;
        let err = check(&sample).expect_err("one request counted twice");
        assert!(err.contains("quick: total"), "{err}");
        let s = summary(&mut sample);
        s.served -= 1;
        s.total += 1;
        s.missed += 1;
        let err = check(&sample).expect_err("summary total disagrees with the workload");
        assert!(err.contains("requests generated"), "{err}");
    }

    #[test]
    fn digest_is_repeatable_and_sensitive() {
        let a = quick_sample();
        assert_eq!(digest(&a), digest(&quick_sample()));
        let mut h = Fnv::new();
        h.write(b"ab");
        h.write(b"c");
        let mut g = Fnv::new();
        g.write(b"a");
        g.write(b"bc");
        assert_ne!(h.finish(), g.finish());
    }

    #[test]
    fn workload_names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::Matrix.legs(3, 1).len(), 7);
        assert!(Workload::DriftLong.legs(3, 1)[0].1.recalibrate);
    }
}
