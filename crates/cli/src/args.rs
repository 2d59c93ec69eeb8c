//! Hand-rolled argument parsing (no external dependencies).

use netcut_serve::ScenarioConfig;
use netcut_sim::{DeviceModel, Precision};

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  netcut-cli zoo [--extended]
  netcut-cli show <network>
  netcut-cli dot <network>
  netcut-cli measure <network> [--precision fp32|fp16|int8]
  netcut-cli cut <network> <blocks>
  netcut-cli trace <network> [--precision fp32|fp16|int8] [--top N]
  netcut-cli energy <network> [--precision fp32|fp16|int8]
  netcut-cli budget
  netcut-cli explore [--deadline MS] [--extended] [--json] [--jobs N]
  netcut-cli sweep [--json] [--jobs N]
  netcut-cli serve [--deadline-us N] [--rps N] [--duration SECONDS] [--seed N]
                   [--jobs N] [--workers N] [--no-degrade] [--no-faults] [--json]
                   [--batch-max N] [--batch-slack-us N] [--shards N]
                   [--devices a,b,...] [--timeline-out <path>]
                   [--timeline-window-us N] [--exit-table full|N]
                   [--thermal-ppm N] [--recalibrate]
                   [--recalib-drift-ppm N] [--recalib-cooldown-us N]
  netcut-cli lint <network|all|serve|det|file.json> [--json]

global options (any command):
  -v, --verbose       log structured events to stderr
  --trace-out <path>  write a trace file: `.jsonl` -> JSON-lines events,
                      any other extension -> Chrome trace_event JSON
                      (open in chrome://tracing or ui.perfetto.dev)
  --strict            run the netcut-verify analyzer before every fresh
                      evaluation even in release builds, and make `lint`
                      treat warnings as errors

evaluation options (explore, sweep):
  --jobs N            evaluation worker threads (0 = one per CPU; default 1);
                      results are identical for any N

serve: simulate the deadline-aware serving runtime on the TRN ladder —
defaults reproduce the paper scenario (deadline 900 µs, 2000 rps, 5 s,
seed 11, 2 workers); `--no-degrade` pins the most accurate network for
an apples-to-apples miss-rate baseline; `--batch-max N` turns on dynamic
batching (coalesce queued requests while every member's deadline still
holds, adding at most `--batch-slack-us` over solo service);
`--shards N` partitions the workers across the `--devices` roster
(jetson-xavier, jetson-nano, tesla-k20m; shard i runs roster[i mod len])
with per-device exit tables and least-completion-time routing; each
device serves ONE multi-exit network whose heads are the ladder's rungs,
so degradation is a free choice of exit at dispatch; `--exit-table N`
pins every visual request to exit N (deepest exit = the `--no-degrade`
baseline bit-for-bit) while `full` (the default) serves the whole
adaptive table; summaries are bit-identical for any `--jobs` value; `--timeline-out <path>` writes the
windowed telemetry timeline (per-shard disposition counts, residual
EWMAs, burn rates, OBS0xx alerts per `--timeline-window-us` window of
virtual time): `.jsonl` -> schema-v1 JSON-lines, any other extension ->
Chrome trace_event JSON on the virtual-time clock; `--thermal-ppm N`
injects a deterministic thermal-throttle window (25%-85% of the run,
every shard) scaling observed service time by N/1e6 — the drift
scenario; `--recalibrate` closes the control loop: when a shard's predicted-vs-observed residual
drifts past `--recalib-drift-ppm` (default 150000), the estimator is
refit on the recent observed window and the shard's exit table is
re-tagged at the refit calibration and hot-swapped in as a new
generation (at most once per `--recalib-cooldown-us`, default 500000,
per shard); in-flight requests finish on the generation they were
admitted under, and each swap is an OBS005 alert in the timeline

lint: analyzes a zoo network (or `all`, or an exported network JSON file)
plus every blockwise TRN of it, raw and with the transfer head attached;
`lint serve` builds every reference-matrix scenario and runs the SV
serve-plane rules (ladder soundness, batch-curve sanity, fault-plan
well-formedness, SLO feasibility) — a broken configuration is reported
as an SV diagnostic, not a process error; `lint det` runs the workspace
determinism lint (wall-clock, unordered collections, float-µs) against
the committed `detlint_allow.txt`; `lint all` covers every plane; exits
non-zero when any Error-severity diagnostic is reported";

/// Process-wide observability options, settable on any subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Log structured events to stderr (`-v` / `--verbose`).
    pub verbose: bool,
    /// Trace file path (`--trace-out`); format chosen by extension.
    pub trace_out: Option<String>,
}

/// A fully parsed invocation: global options plus the subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Observability options.
    pub obs: ObsOptions,
    /// Strict verification (`--strict`): run the static analyzer at every
    /// evaluation boundary even in release builds, and promote lint
    /// warnings to failures.
    pub strict: bool,
    /// The subcommand to run.
    pub command: Command,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the zoo.
    Zoo { extended: bool },
    /// Print the per-block structure summary of a network.
    Show { network: String },
    /// Print a Graphviz DOT rendering of a network.
    Dot { network: String },
    /// Measure one network.
    Measure {
        network: String,
        precision: Precision,
    },
    /// Construct and describe a TRN.
    Cut { network: String, blocks: usize },
    /// Print the per-kernel execution trace of a network.
    Trace {
        network: String,
        precision: Precision,
        top: usize,
    },
    /// Print the per-inference energy of a network.
    Energy {
        network: String,
        precision: Precision,
    },
    /// Print the control-loop timing budget derivation.
    Budget,
    /// Run Algorithm 1.
    Explore {
        deadline_ms: f64,
        extended: bool,
        json: bool,
        jobs: usize,
    },
    /// Run the exhaustive blockwise sweep and summarize.
    Sweep { json: bool, jobs: usize },
    /// Simulate the deadline-aware serving runtime.
    Serve {
        /// The scenario, already validated.
        config: ScenarioConfig,
        json: bool,
        timeline_out: Option<String>,
    },
    /// Run the `netcut-verify` static analyzer over a network (or the
    /// whole zoo) and every blockwise TRN of it.
    Lint { target: String, json: bool },
}

fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    match value {
        Some(v) => v
            .parse()
            .map_err(|_| "--jobs must be an integer (0 = one per CPU)".to_string()),
        None => Ok(1),
    }
}

fn parse_precision(s: &str) -> Result<Precision, String> {
    match s {
        "fp32" => Ok(Precision::Fp32),
        "fp16" => Ok(Precision::Fp16),
        "int8" => Ok(Precision::Int8),
        other => Err(format!("unknown precision `{other}` (fp32|fp16|int8)")),
    }
}

/// Parses a full argument vector into an [`Invocation`]. The global
/// observability flags may appear anywhere in the vector, before or after
/// the subcommand.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let mut obs = ObsOptions::default();
    let mut strict = false;
    let mut remaining: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-v" | "--verbose" => obs.verbose = true,
            "--strict" => strict = true,
            "--trace-out" => {
                i += 1;
                obs.trace_out = Some(
                    argv.get(i)
                        .filter(|path| !path.starts_with('-'))
                        .ok_or("--trace-out requires a file path")?
                        .clone(),
                );
            }
            other => remaining.push(other),
        }
        i += 1;
    }
    let command = parse_command(&remaining)?;
    Ok(Invocation {
        obs,
        strict,
        command,
    })
}

/// Every per-subcommand flag, with what its value is (`None` for a switch);
/// anything else starting with `-` is a typo (global flags are consumed
/// before this check).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--extended", None),
    ("--precision", Some("a precision (fp32|fp16|int8)")),
    ("--deadline", Some("a number (ms)")),
    ("--top", Some("a number")),
    ("--json", None),
    ("--jobs", Some("a number")),
    ("--deadline-us", Some("a number")),
    ("--rps", Some("a number")),
    ("--duration", Some("a number of seconds")),
    ("--seed", Some("a number")),
    ("--workers", Some("a number")),
    ("--no-degrade", None),
    ("--no-faults", None),
    ("--batch-max", Some("a number")),
    ("--batch-slack-us", Some("a number")),
    ("--shards", Some("a number")),
    ("--devices", Some("a device list")),
    ("--timeline-out", Some("a file path")),
    ("--timeline-window-us", Some("a number")),
    ("--exit-table", Some("`full` or an exit index")),
    ("--thermal-ppm", Some("a number")),
    ("--recalibrate", None),
    ("--recalib-drift-ppm", Some("a number")),
    ("--recalib-cooldown-us", Some("a number")),
];

/// Parses the subcommand and its own arguments (global flags removed).
fn parse_command(argv: &[&str]) -> Result<Command, String> {
    let mut it = argv.iter().copied();
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&str> = it.collect();
    if let Some(unknown) = rest
        .iter()
        .find(|a| a.starts_with('-') && !FLAGS.iter().any(|(flag, _)| flag == *a))
    {
        return Err(format!("unknown flag `{unknown}`"));
    }
    // A value-taking flag consumes the next token, which must not itself
    // be a flag; every other token is a positional.
    let mut positionals: Vec<&str> = Vec::new();
    let mut tokens = rest.iter().copied();
    while let Some(a) = tokens.next() {
        match FLAGS.iter().find(|(flag, _)| *flag == a) {
            Some((_, Some(value))) => {
                if tokens.next().is_none_or(|v| v.starts_with('-')) {
                    return Err(format!("{a} requires {value}"));
                }
            }
            Some((_, None)) => {}
            None => positionals.push(a),
        }
    }
    let has_flag = |flag: &str| rest.contains(&flag);
    let flag_value = |flag: &str| -> Option<&str> {
        rest.iter()
            .position(|a| *a == flag)
            .and_then(|i| rest.get(i + 1).copied())
    };
    match sub {
        "zoo" => Ok(Command::Zoo {
            extended: has_flag("--extended"),
        }),
        "show" => Ok(Command::Show {
            network: positionals
                .first()
                .ok_or("show requires a network name")?
                .to_string(),
        }),
        "dot" => Ok(Command::Dot {
            network: positionals
                .first()
                .ok_or("dot requires a network name")?
                .to_string(),
        }),
        "measure" => {
            let network = positionals
                .first()
                .ok_or("measure requires a network name")?
                .to_string();
            let precision = match flag_value("--precision") {
                Some(p) => parse_precision(p)?,
                None => Precision::Int8,
            };
            Ok(Command::Measure { network, precision })
        }
        "cut" => {
            let network = positionals
                .first()
                .ok_or("cut requires a network name")?
                .to_string();
            let blocks: usize = positionals
                .get(1)
                .ok_or("cut requires a block count")?
                .parse()
                .map_err(|_| "block count must be an integer".to_string())?;
            Ok(Command::Cut { network, blocks })
        }
        "trace" => {
            let network = positionals
                .first()
                .ok_or("trace requires a network name")?
                .to_string();
            let precision = match flag_value("--precision") {
                Some(p) => parse_precision(p)?,
                None => Precision::Int8,
            };
            let top = match flag_value("--top") {
                Some(v) => v
                    .parse()
                    .map_err(|_| "--top must be an integer".to_string())?,
                None => 10,
            };
            Ok(Command::Trace {
                network,
                precision,
                top,
            })
        }
        "energy" => {
            let network = positionals
                .first()
                .ok_or("energy requires a network name")?
                .to_string();
            let precision = match flag_value("--precision") {
                Some(p) => parse_precision(p)?,
                None => Precision::Int8,
            };
            Ok(Command::Energy { network, precision })
        }
        "budget" => Ok(Command::Budget),
        "explore" => {
            let deadline_ms = match flag_value("--deadline") {
                Some(v) => v
                    .parse()
                    .map_err(|_| "deadline must be a number (ms)".to_string())?,
                None => 0.9,
            };
            Ok(Command::Explore {
                deadline_ms,
                extended: has_flag("--extended"),
                json: has_flag("--json"),
                jobs: parse_jobs(flag_value("--jobs"))?,
            })
        }
        "sweep" => Ok(Command::Sweep {
            json: has_flag("--json"),
            jobs: parse_jobs(flag_value("--jobs"))?,
        }),
        "serve" => {
            fn num<T: std::str::FromStr>(
                value: Option<&str>,
                flag: &str,
                default: T,
            ) -> Result<T, String> {
                match value {
                    Some(v) => v.parse().map_err(|_| format!("{flag} must be a number")),
                    None => Ok(default),
                }
            }
            // Every default is the library's paper scenario; the library
            // decides whether the resulting config can run.
            let d = ScenarioConfig::default();
            let duration_s: f64 = num(
                flag_value("--duration"),
                "--duration",
                d.duration_us as f64 / 1e6,
            )?;
            if !(duration_s > 0.0 && duration_s.is_finite()) {
                return Err("--duration must be a positive number of seconds".to_string());
            }
            let devices = match flag_value("--devices") {
                Some(list) => list
                    .split(',')
                    .map(|raw| {
                        DeviceModel::by_name(raw.trim()).ok_or_else(|| {
                            format!(
                                "unknown device `{}` (jetson-xavier|jetson-nano|tesla-k20m)",
                                raw.trim()
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?,
                None => d.devices.clone(),
            };
            let exit_pin = match flag_value("--exit-table") {
                None | Some("full") => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| "--exit-table must be `full` or an exit index".to_string())?,
                ),
            };
            let config = ScenarioConfig {
                deadline_us: num(flag_value("--deadline-us"), "--deadline-us", d.deadline_us)?,
                rps: num(flag_value("--rps"), "--rps", d.rps)?,
                // The run is timed in whole microseconds; the cast
                // saturates, and `validate` bounds the result.
                duration_us: (duration_s * 1e6).round() as u64,
                seed: num(flag_value("--seed"), "--seed", d.seed)?,
                jobs: parse_jobs(flag_value("--jobs"))?,
                workers: num(flag_value("--workers"), "--workers", d.workers)?,
                degrade: !has_flag("--no-degrade"),
                faults: !has_flag("--no-faults"),
                batch_max: num(flag_value("--batch-max"), "--batch-max", d.batch_max)?,
                batch_slack_us: num(
                    flag_value("--batch-slack-us"),
                    "--batch-slack-us",
                    d.batch_slack_us,
                )?,
                shards: num(flag_value("--shards"), "--shards", d.shards)?,
                devices,
                timeline_window_us: num(
                    flag_value("--timeline-window-us"),
                    "--timeline-window-us",
                    d.timeline_window_us,
                )?,
                exit_pin,
                thermal_ppm: num(flag_value("--thermal-ppm"), "--thermal-ppm", d.thermal_ppm)?,
                recalibrate: has_flag("--recalibrate"),
                recalib_drift_ppm: num(
                    flag_value("--recalib-drift-ppm"),
                    "--recalib-drift-ppm",
                    d.recalib_drift_ppm,
                )?,
                recalib_cooldown_us: num(
                    flag_value("--recalib-cooldown-us"),
                    "--recalib-cooldown-us",
                    d.recalib_cooldown_us,
                )?,
                ..d
            };
            config.validate().map_err(|e| e.to_string())?;
            Ok(Command::Serve {
                config,
                json: has_flag("--json"),
                timeline_out: flag_value("--timeline-out").map(ToString::to_string),
            })
        }
        "lint" => Ok(Command::Lint {
            target: positionals
                .first()
                .ok_or("lint requires a network name, `all`, `serve`, `det`, or a .json file")?
                .to_string(),
            json: has_flag("--json"),
        }),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    /// Parses and returns just the subcommand.
    fn cmd(parts: &[&str]) -> Command {
        parse(&argv(parts)).unwrap().command
    }

    #[test]
    fn parses_zoo() {
        assert_eq!(cmd(&["zoo"]), Command::Zoo { extended: false });
        assert_eq!(cmd(&["zoo", "--extended"]), Command::Zoo { extended: true });
    }

    #[test]
    fn parses_measure_with_precision() {
        assert_eq!(
            cmd(&["measure", "resnet50", "--precision", "fp16"]),
            Command::Measure {
                network: "resnet50".into(),
                precision: Precision::Fp16
            }
        );
    }

    #[test]
    fn measure_defaults_to_int8() {
        assert_eq!(
            cmd(&["measure", "resnet50"]),
            Command::Measure {
                network: "resnet50".into(),
                precision: Precision::Int8
            }
        );
    }

    #[test]
    fn parses_cut() {
        assert_eq!(
            cmd(&["cut", "densenet121", "12"]),
            Command::Cut {
                network: "densenet121".into(),
                blocks: 12
            }
        );
    }

    #[test]
    fn parses_explore_with_deadline() {
        assert_eq!(
            cmd(&["explore", "--deadline", "1.5", "--json"]),
            Command::Explore {
                deadline_ms: 1.5,
                extended: false,
                json: true,
                jobs: 1,
            }
        );
    }

    #[test]
    fn parses_jobs_and_no_cache() {
        assert_eq!(
            cmd(&["explore", "--jobs", "8"]),
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: false,
                jobs: 8,
            }
        );
        assert_eq!(
            cmd(&["sweep", "--jobs", "0", "--json"]),
            Command::Sweep {
                json: true,
                jobs: 0,
            }
        );
        // The cache is always on: `--no-cache` is no longer a flag.
        for command in ["explore", "sweep"] {
            let err = parse(&argv(&[command, "--jobs", "8", "--no-cache"])).unwrap_err();
            assert_eq!(err, "unknown flag `--no-cache`");
        }
    }

    #[test]
    fn parses_lint() {
        assert_eq!(
            cmd(&["lint", "resnet50"]),
            Command::Lint {
                target: "resnet50".into(),
                json: false
            }
        );
        assert_eq!(
            cmd(&["lint", "all", "--json"]),
            Command::Lint {
                target: "all".into(),
                json: true
            }
        );
        assert_eq!(
            cmd(&["lint", "serve"]),
            Command::Lint {
                target: "serve".into(),
                json: false
            }
        );
        assert_eq!(
            cmd(&["lint", "det", "--json"]),
            Command::Lint {
                target: "det".into(),
                json: true
            }
        );
        assert!(parse(&argv(&["lint"])).is_err());
    }

    #[test]
    fn serve_defaults_match_the_paper_scenario() {
        assert_eq!(
            cmd(&["serve"]),
            Command::Serve {
                config: ScenarioConfig::default(),
                json: false,
                timeline_out: None,
            }
        );
    }

    #[test]
    fn parses_serve_with_every_flag() {
        assert_eq!(
            cmd(&[
                "serve",
                "--deadline-us",
                "1200",
                "--rps",
                "500",
                "--duration",
                "2.5",
                "--seed",
                "7",
                "--jobs",
                "8",
                "--workers",
                "4",
                "--no-degrade",
                "--no-faults",
                "--json",
                "--batch-max",
                "8",
                "--batch-slack-us",
                "150",
                "--shards",
                "2",
                "--devices",
                "xavier,k20m",
                "--timeline-out",
                "tl.jsonl",
                "--timeline-window-us",
                "50000",
                "--exit-table",
                "3",
                "--thermal-ppm",
                "1300000",
                "--recalibrate",
                "--recalib-drift-ppm",
                "200000",
                "--recalib-cooldown-us",
                "250000",
            ]),
            Command::Serve {
                config: ScenarioConfig {
                    deadline_us: 1200,
                    rps: 500,
                    duration_us: 2_500_000,
                    seed: 7,
                    jobs: 8,
                    workers: 4,
                    degrade: false,
                    faults: false,
                    batch_max: 8,
                    batch_slack_us: 150,
                    shards: 2,
                    devices: vec![DeviceModel::jetson_xavier(), DeviceModel::tesla_k20m()],
                    timeline_window_us: 50_000,
                    exit_pin: Some(3),
                    thermal_ppm: 1_300_000,
                    recalibrate: true,
                    recalib_drift_ppm: 200_000,
                    recalib_cooldown_us: 250_000,
                    ..ScenarioConfig::default()
                },
                json: true,
                timeline_out: Some("tl.jsonl".into()),
            }
        );
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse(&argv(&["serve", "--rps", "lots"])).is_err());
        assert!(parse(&argv(&["serve", "--duration", "-1"])).is_err());
        assert!(parse(&argv(&["serve", "--deadline-u", "900"])).is_err());
        assert!(parse(&argv(&["serve", "--devices", "xavier,tpu"])).is_err());
        assert!(parse(&argv(&["serve", "--timeline-out"])).is_err());
        assert!(parse(&argv(&["serve", "--exit-table"])).is_err());
        assert!(parse(&argv(&["serve", "--exit-table", "deep"])).is_err());
    }

    #[test]
    fn serve_rejects_values_the_runtime_would_panic_on() {
        // Each out-of-range value is a flag error carrying the library's
        // `ConfigError` message.
        for (args, message) in [
            (
                &["--duration", "0.0000001"][..],
                "--duration must be at least one microsecond (0.000001)",
            ),
            (
                &["--duration", "0"],
                "--duration must be a positive number of seconds",
            ),
            (
                &["--duration", "inf"],
                "--duration must be a positive number of seconds",
            ),
            (
                &["--duration", "1e15"],
                "--duration must be at most 4294.967295 seconds (got 18446744073709551615 µs)",
            ),
            (&["--deadline-us", "0"], "--deadline-us must be positive"),
            (&["--rps", "0"], "--rps must be positive"),
            (
                &["--batch-max", "0"],
                "--batch-max must be at least 1 (1 = batching off)",
            ),
            (&["--shards", "0"], "--shards must be at least 1"),
            (
                &["--batch-max", "65536"],
                "--batch-max must be at most 65535 (got 65536)",
            ),
            (
                &["--shards", "65536"],
                "--shards must be at most 65535 (got 65536)",
            ),
            (
                &["--timeline-window-us", "0"],
                "--timeline-window-us must be positive",
            ),
            (
                &["--recalib-drift-ppm", "0"],
                "--recalib-drift-ppm must be positive",
            ),
            (
                &["--recalib-cooldown-us", "0"],
                "--recalib-cooldown-us must be positive",
            ),
            (
                &["--workers", "0"],
                "--shards 1 needs at least that many workers (got --workers 0)",
            ),
        ] {
            let parts = [&["serve"][..], args].concat();
            assert_eq!(
                parse(&argv(&parts)).err().as_deref(),
                Some(message),
                "{args:?}"
            );
        }
        let Command::Serve { config, .. } = cmd(&["serve", "--duration", "0.000001"]) else {
            panic!("not a serve command");
        };
        assert_eq!(config.duration_us, 1);
    }

    #[test]
    fn serve_rejects_more_shards_than_workers() {
        assert_eq!(
            parse(&argv(&["serve", "--shards", "3", "--workers", "2"]))
                .err()
                .as_deref(),
            Some("--shards 3 needs at least that many workers (got --workers 2)")
        );
        let Command::Serve { config, .. } = cmd(&["serve", "--shards", "3", "--workers", "3"])
        else {
            panic!("not a serve command");
        };
        assert_eq!((config.shards, config.workers), (3, 3));
    }

    #[test]
    fn a_value_flag_never_swallows_a_flag() {
        for (parts, message) in [
            (
                &["serve", "--timeline-out", "--json"][..],
                "--timeline-out requires a file path",
            ),
            (
                &["budget", "--trace-out", "-v"],
                "--trace-out requires a file path",
            ),
            (&["serve", "--rps", "--json"], "--rps requires a number"),
            (&["serve", "--rps"], "--rps requires a number"),
            (
                &["serve", "--exit-table"],
                "--exit-table requires `full` or an exit index",
            ),
            (
                &["measure", "resnet50", "--precision", "--json"],
                "--precision requires a precision (fp32|fp16|int8)",
            ),
        ] {
            assert_eq!(
                parse(&argv(parts)).err().as_deref(),
                Some(message),
                "{parts:?}"
            );
        }
    }

    #[test]
    fn exit_table_full_is_the_adaptive_default() {
        let Command::Serve { config, .. } = cmd(&["serve", "--exit-table", "full"]) else {
            panic!("not a serve command");
        };
        assert_eq!(config.exit_pin, None);
        let Command::Serve { config, .. } = cmd(&["serve", "--exit-table", "0"]) else {
            panic!("not a serve command");
        };
        assert_eq!(config.exit_pin, Some(0));
    }

    #[test]
    fn serve_device_spellings_canonicalize() {
        let Command::Serve { config, .. } =
            cmd(&["serve", "--devices", "jetson_xavier, nano ,tesla-k20m"])
        else {
            panic!("not a serve command");
        };
        let names: Vec<&str> = config.devices.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["jetson-xavier", "jetson-nano", "tesla-k20m"]);
    }

    #[test]
    fn parses_global_strict_anywhere() {
        for parts in [
            &["--strict", "lint", "all"][..],
            &["lint", "--strict", "all"],
            &["lint", "all", "--strict"],
        ] {
            let inv = parse(&argv(parts)).unwrap();
            assert!(inv.strict, "--strict not seen in {parts:?}");
            assert_eq!(
                inv.command,
                Command::Lint {
                    target: "all".into(),
                    json: false
                }
            );
        }
        assert!(!parse(&argv(&["zoo"])).unwrap().strict);
    }

    #[test]
    fn rejects_bad_jobs_value() {
        let err = parse(&argv(&["explore", "--jobs", "many"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn parses_show_and_dot() {
        assert_eq!(
            cmd(&["show", "vgg16"]),
            Command::Show {
                network: "vgg16".into()
            }
        );
        assert_eq!(
            cmd(&["dot", "alexnet"]),
            Command::Dot {
                network: "alexnet".into()
            }
        );
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            cmd(&["trace", "resnet50", "--top", "5"]),
            Command::Trace {
                network: "resnet50".into(),
                precision: Precision::Int8,
                top: 5
            }
        );
    }

    #[test]
    fn parses_energy_and_budget() {
        assert_eq!(
            cmd(&["energy", "resnet50"]),
            Command::Energy {
                network: "resnet50".into(),
                precision: Precision::Int8
            }
        );
        assert_eq!(cmd(&["budget"]), Command::Budget);
    }

    #[test]
    fn obs_flags_default_off() {
        let inv = parse(&argv(&["zoo"])).unwrap();
        assert_eq!(inv.obs, ObsOptions::default());
        assert!(!inv.obs.verbose);
        assert!(inv.obs.trace_out.is_none());
    }

    #[test]
    fn parses_global_verbose_anywhere() {
        for parts in [
            &["-v", "measure", "resnet50"][..],
            &["measure", "-v", "resnet50"],
            &["measure", "resnet50", "--verbose"],
        ] {
            let inv = parse(&argv(parts)).unwrap();
            assert!(inv.obs.verbose, "verbose not seen in {parts:?}");
            assert_eq!(
                inv.command,
                Command::Measure {
                    network: "resnet50".into(),
                    precision: Precision::Int8
                }
            );
        }
    }

    #[test]
    fn parses_trace_out_with_other_flags() {
        let inv = parse(&argv(&[
            "explore",
            "--trace-out",
            "run.jsonl",
            "--deadline",
            "0.9",
            "-v",
        ]))
        .unwrap();
        assert_eq!(inv.obs.trace_out.as_deref(), Some("run.jsonl"));
        assert!(inv.obs.verbose);
        assert_eq!(
            inv.command,
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: false,
                jobs: 1,
            }
        );
    }

    #[test]
    fn trace_out_requires_a_path() {
        let err = parse(&argv(&["zoo", "--trace-out"])).unwrap_err();
        assert!(err.contains("--trace-out"));
    }

    #[test]
    fn rejects_mistyped_flags() {
        let err = parse(&argv(&["explore", "--trace-ou", "x.jsonl"])).unwrap_err();
        assert!(err.contains("--trace-ou"), "{err}");
        let err = parse(&argv(&["explore", "--deadlin", "0.9"])).unwrap_err();
        assert!(err.contains("--deadlin"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["measure"])).is_err());
        assert!(parse(&argv(&["cut", "resnet50", "many"])).is_err());
        assert!(parse(&argv(&["measure", "x", "--precision", "int4"])).is_err());
    }
}
