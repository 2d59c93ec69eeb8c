//! `benchmark`: one end-to-end benchmark of `serve` and the NetCut paper
//! pipeline, with per-layer attribution from a traced run.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --compare A B
//! ```
//!
//! `--trace 0` times whole samples with tracing off and reports the
//! end-to-end metrics; `--trace 1` interleaves untraced samples with traced
//! ones and reports the per-layer metrics. Both check every output. The
//! last line of standard output is the result as one JSON object; the
//! samples behind it go to `target/benchmark/`. See `README.md` beside
//! this crate.

mod alloc;
mod compare;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use workloads::{Sample, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark --workload <matrix|stress_250k|drift_long|pipeline> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       benchmark --compare A B";

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: u64 = 28;
/// Untimed samples before the clock starts: caches, the allocator's
/// arenas and the metrics registry settle in these.
const WARMUP: usize = 2;
/// Samples a run takes even past its time budget.
const MIN_SAMPLES: usize = 5;
/// Traced samples a run takes even past its time budget.
const MIN_TRACED: usize = 3;
/// Results go under the repository's `target/`, whatever the working
/// directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../target/benchmark");
/// Where the `matrix` summaries at the reference seed are committed.
const COMMITTED_MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/BENCH_serve.json");
const COMMITTED_SEED: u64 = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().is_some_and(|a| a == "--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes two results files or directories".into()),
        };
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The state of one run: samples per metric and the tally of checks.
struct Run<'a> {
    args: &'a Args,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Digest of the first sample's outputs, which every later sample must
    /// reproduce.
    reference: Option<u64>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

impl Run<'_> {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("benchmark: FAILED {what}");
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Runs, checks and counts one sample. A panic or a failed check
    /// counts the sample as failed and returns `None`.
    fn sample(&mut self, jobs: usize, trace: &mut Trace) -> Option<Sample> {
        self.attempted += 1;
        let (workload, seed) = (self.args.workload, self.args.seed);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            workloads::run_sample(workload, seed, jobs, trace)
        }))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&*p))))
        .and_then(|s| {
            workloads::check(&s)?;
            let digest = workloads::digest(&s);
            match self.reference {
                None => self.reference = Some(digest),
                Some(r) if r != digest => {
                    return Err(format!(
                        "jobs {jobs}: output digest {digest:016x} differs from the first \
                         sample's {r:016x}"
                    ));
                }
                Some(_) => {}
            }
            Ok(s)
        });
        match result {
            Ok(s) => Some(s),
            Err(e) => {
                trace.close_all();
                self.fail(&e);
                None
            }
        }
    }

    /// The `matrix` summaries at the committed seed must byte-match the
    /// committed document.
    fn check_committed(&mut self, sample: &Sample) {
        if self.args.workload != Workload::Matrix || self.args.seed != COMMITTED_SEED {
            return;
        }
        self.attempted += 1;
        let checked = std::fs::read_to_string(COMMITTED_MATRIX)
            .map_err(|e| format!("{COMMITTED_MATRIX}: {e}"))
            .and_then(|text| workloads::check_committed_matrix(sample, &text));
        if let Err(e) = checked {
            self.fail(&e);
        }
    }

    fn warm_up(&mut self) {
        let mut off = Trace::new(false);
        for i in 0..WARMUP {
            if let Some(s) = self.sample(1, &mut off) {
                if i == 0 {
                    self.check_committed(&s);
                }
            }
        }
    }

    /// Whole samples with tracing off, for `seconds`.
    fn timed(&mut self) {
        let mut off = Trace::new(false);
        let start = Instant::now();
        let mut taken = 0;
        while taken < MIN_SAMPLES || start.elapsed().as_secs() < self.args.seconds {
            taken += 1;
            if let Some(s) = self.sample(1, &mut off) {
                self.push("e2e_s", s.e2e_s);
                self.push("setup_s", s.setup_s);
            }
        }
    }

    /// Untraced and traced samples in turn, for `seconds`; each traced
    /// sample is followed by its attribution calls. The tracing overhead is
    /// taken per adjacent pair, so slow drifts in machine speed cancel.
    /// Both samples of a pair follow a sample: the attribution calls leave
    /// the heap in another state, which made the next sample up to 6 %
    /// slower, so an untimed sample runs first to settle it.
    fn traced(&mut self, trace: &mut Trace) {
        let mut off = Trace::new(false);
        let start = Instant::now();
        while trace.sample < MIN_TRACED || start.elapsed().as_secs() < self.args.seconds {
            self.sample(1, &mut off);
            let untraced = self.sample(1, &mut off).map(|s| s.e2e_s);
            let from = trace.spans().len();
            if let Some(s) = self.sample(1, trace) {
                if let Some(u) = untraced {
                    self.push("trace.overhead_ratio", s.e2e_s / u - 1.0);
                }
                let attributed =
                    panic::catch_unwind(AssertUnwindSafe(|| workloads::attribute(&s, trace)))
                        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&*p))));
                match attributed {
                    Ok(attr) => {
                        for (name, v) in workloads::layer_values(&s, &attr, &trace.spans()[from..])
                        {
                            self.push(name, v);
                        }
                    }
                    Err(e) => {
                        trace.close_all();
                        self.fail(&format!("attribution: {e}"));
                    }
                }
            }
            trace.sample += 1;
        }
    }

    /// Heap use, with the counting allocator on: the peak of one whole
    /// sample, and with `--trace 1` the bytes each serve layer allocates.
    fn allocations(&mut self) {
        let mut off = Trace::new(false);
        let (sample, usage) = alloc::measure(|| self.sample(1, &mut off));
        let Some(s) = sample else {
            return;
        };
        self.push("peak_heap_mb", alloc::mb(usage.peak_bytes));
        if self.args.trace {
            let (runtime, summary) = workloads::layer_allocations(&s);
            self.push("runtime.alloc_mb", alloc::mb(runtime));
            self.push("summary.alloc_mb", alloc::mb(summary));
        }
    }

    /// One sample at jobs 2, which must reproduce the jobs-1 digest.
    fn parallel_check(&mut self) {
        self.sample(2, &mut Trace::new(false));
    }
}

/// The value a run reports for a metric. An end-to-end value is the
/// smallest of the run's samples: interference from other tenants only
/// ever slows a sample, and it comes in phases of minutes that move a
/// run's median far more than its minimum (see `README.md`, Noise). A
/// per-layer value is the median of the traced samples.
fn reported(args: &Args, samples: &[f64]) -> f64 {
    if args.trace {
        stats::median(samples)
    } else {
        stats::min(samples)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The samples behind each reported metric, for `--compare`.
fn results_document(run: &Run, table: &[Metric], correct: bool) -> String {
    let args = run.args;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let _ = writeln!(s, "  \"correct\": {correct},");
    let _ = writeln!(s, "  \"attempted\": {},", run.attempted);
    let _ = writeln!(s, "  \"failed\": {},", run.failed);
    let _ = writeln!(s, "  \"metrics\": {{");
    let measured: Vec<(&Metric, &Vec<f64>)> = table
        .iter()
        .filter_map(|m| run.samples.get(m.name).map(|v| (m, v)))
        .collect();
    for (i, (m, values)) in measured.iter().enumerate() {
        let sm = stats::summarize(values);
        let list: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
        let comma = if i + 1 < measured.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"value\": {}, \"n\": {}, \
             \"min\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {}, \
             \"samples\": [{}]}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            json_number(reported(args, values)),
            sm.n,
            json_number(sm.min),
            json_number(sm.median),
            json_number(sm.q1),
            json_number(sm.q3),
            sm.tail.map_or("null".into(), json_number),
            list.join(", ")
        );
    }
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

fn write_output(name: &str, text: &str) {
    let path = Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => eprintln!("benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> ExitCode {
    let name = args.workload.name();
    let retained = alloc::retain_freed_memory();
    eprintln!(
        "benchmark: {name}, seed {}, {} s, trace {}, freed memory {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if retained {
            "retained"
        } else {
            "returned to the OS"
        }
    );
    let mut run = Run {
        args,
        samples: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        reference: None,
    };
    run.warm_up();
    let trace = args.trace.then(|| {
        let mut trace = Trace::new(true);
        run.traced(&mut trace);
        trace
    });
    if trace.is_none() {
        run.timed();
    }
    run.allocations();
    run.parallel_check();

    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut values = Vec::with_capacity(table.len());
    for m in table {
        let value = run
            .samples
            .get(m.name)
            .map(|v| reported(args, v))
            .filter(|v| v.is_finite());
        if value.is_none() {
            run.fail(&format!("metric {} was not measured", m.name));
        }
        values.push((m, value.unwrap_or(0.0)));
    }
    let correct = run.failed == 0;

    println!(
        "benchmark: {name} seed {} ({} samples attempted, {} failed)",
        args.seed, run.attempted, run.failed
    );
    for (m, v) in &values {
        let sm = run.samples.get(m.name).map(|s| stats::summarize(s));
        let spread = sm.map_or(String::new(), |s| {
            format!(
                "n={} min={:.6} median={:.6} q1={:.6} q3={:.6}",
                s.n, s.min, s.median, s.q1, s.q3
            )
        });
        println!("  {:<28} {:>16.6} {:<9} {spread}", m.name, v, m.unit);
    }

    let kind = if args.trace { "layers" } else { "e2e" };
    write_output(
        &format!("{name}.{kind}.json"),
        &results_document(&run, table, correct),
    );
    if let Some(trace) = &trace {
        write_output(&format!("{name}.trace.jsonl"), &trace.to_jsonl(name));
    }

    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let Ok(Command::Run(a)) = parse_args(&strings(&[
            "--workload",
            "pipeline",
            "--seed",
            "3",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])) else {
            panic!("valid arguments");
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Pipeline, 3, 7, true)
        );
        let Ok(Command::Run(a)) = parse_args(&strings(&["--workload", "matrix"])) else {
            panic!("defaults");
        };
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "matrix", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "matrix", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
        assert!(matches!(
            parse_args(&strings(&["--compare", "a", "b"])),
            Ok(Command::Compare(..))
        ));
    }
}
