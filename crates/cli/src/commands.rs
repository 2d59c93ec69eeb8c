//! Command implementations.

use crate::args::Command;
use netcut::eval::EvalContext;
use netcut::explore::exhaustive_blockwise_with;
use netcut::netcut::NetCut;
use netcut::pareto::{best_meeting_deadline, pareto_frontier};
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::{Retrainer, SurrogateRetrainer};

fn networks(extended: bool) -> Vec<Network> {
    if extended {
        zoo::extended_networks()
    } else {
        zoo::paper_networks()
    }
}

fn find_network(name: &str) -> Result<Network, String> {
    networks(true)
        .into_iter()
        .find(|n| n.name() == name)
        .ok_or_else(|| {
            let known: Vec<String> = networks(true).iter().map(|n| n.name().to_owned()).collect();
            format!("unknown network `{name}`; known: {}", known.join(", "))
        })
}

/// Span name for a command, used to group its whole execution in traces.
fn span_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Zoo { .. } => "cli.zoo",
        Command::Show { .. } => "cli.show",
        Command::Dot { .. } => "cli.dot",
        Command::Measure { .. } => "cli.measure",
        Command::Cut { .. } => "cli.cut",
        Command::Trace { .. } => "cli.trace",
        Command::Energy { .. } => "cli.energy",
        Command::Budget => "cli.budget",
        Command::Explore { .. } => "cli.explore",
        Command::Sweep { .. } => "cli.sweep",
        Command::Serve { .. } => "cli.serve",
        Command::Lint { .. } => "cli.lint",
    }
}

/// Executes a parsed command. `strict` extends debug-only verification to
/// release builds (evaluation boundaries) and promotes lint warnings to
/// failures.
pub fn run(cmd: Command, strict: bool) -> Result<(), String> {
    let _span = netcut_obs::span(span_name(&cmd));
    match cmd {
        Command::Zoo { extended } => {
            println!(
                "{:22} {:>7} {:>8} {:>10} {:>9}",
                "network", "blocks", "layers", "MFLOPs", "Mparams"
            );
            for net in networks(extended) {
                let s = net.stats();
                println!(
                    "{:22} {:>7} {:>8} {:>10.1} {:>9.2}",
                    net.name(),
                    net.num_blocks(),
                    net.layer_count(),
                    s.total_flops as f64 / 1e6,
                    s.total_params as f64 / 1e6
                );
            }
            Ok(())
        }
        Command::Show { network } => {
            let net = find_network(&network)?;
            print!("{}", net.summary());
            Ok(())
        }
        Command::Dot { network } => {
            let net = find_network(&network)?;
            print!("{}", net.to_dot());
            Ok(())
        }
        Command::Measure { network, precision } => {
            let net = find_network(&network)?;
            let session = Session::new(DeviceModel::jetson_xavier(), precision);
            let adapted = net.backbone().with_head(&HeadSpec::default());
            let raw = session.measure(&net, 42);
            let deployed = session.measure(&adapted, 42);
            println!("{network} @ {precision:?} on {}", session.device().name);
            println!(
                "  imagenet head : {:.3} ms (± {:.3})",
                raw.mean_ms, raw.std_ms
            );
            println!(
                "  transfer head : {:.3} ms (± {:.3})",
                deployed.mean_ms, deployed.std_ms
            );
            Ok(())
        }
        Command::Cut { network, blocks } => {
            let net = find_network(&network)?;
            let trn = net
                .cut_blocks(blocks)
                .map_err(|e| e.to_string())?
                .with_head(&HeadSpec::default());
            let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
            let retrainer = SurrogateRetrainer::paper();
            let m = session.measure(&trn, 42);
            let t = retrainer.retrain(&trn);
            let s = trn.stats();
            println!("{}", trn.name());
            println!("  blocks kept     : {}", trn.num_blocks());
            println!("  layers kept     : {}", trn.backbone_layer_count());
            println!("  MFLOPs          : {:.1}", s.total_flops as f64 / 1e6);
            println!("  Mparams         : {:.2}", s.total_params as f64 / 1e6);
            println!("  latency (int8)  : {:.3} ms", m.mean_ms);
            println!("  accuracy        : {:.3}", t.accuracy);
            println!("  retrain cost    : {:.2} h", t.train_hours);
            Ok(())
        }
        Command::Trace {
            network,
            precision,
            top,
        } => {
            let net = find_network(&network)?;
            let adapted = net.backbone().with_head(&HeadSpec::default());
            let session = Session::new(DeviceModel::jetson_xavier(), precision);
            let trace = session.trace(&adapted);
            println!(
                "{network} @ {precision:?}: {} kernels, steady {:.3} ms, total {:.3} ms, {:.0} % memory-bound",
                trace.kernels.len(),
                trace.steady_ms,
                trace.total_ms,
                trace.memory_bound_fraction() * 100.0
            );
            println!(
                "{:40} {:>9} {:>8} {:>10} {:>6}",
                "kernel", "ms", "bound", "kFLOPs", "occ"
            );
            for k in trace.hotspots().into_iter().take(top) {
                println!(
                    "{:40} {:>9.4} {:>8} {:>10.0} {:>5.0}%",
                    k.name,
                    k.duration_ms,
                    format!("{:?}", k.bound),
                    k.flops as f64 / 1e3,
                    k.occupancy * 100.0
                );
            }
            Ok(())
        }
        Command::Energy { network, precision } => {
            let net = find_network(&network)?;
            let adapted = net.backbone().with_head(&HeadSpec::default());
            let session = Session::new(DeviceModel::jetson_xavier(), precision);
            let energy = netcut_sim::EnergyModel::jetson_xavier();
            let mj = energy.network_energy_mj(&adapted, session.device(), precision);
            let latency = session.measure(&adapted, 42).mean_ms;
            println!("{network} @ {precision:?}:");
            println!("  latency : {latency:.3} ms");
            println!("  energy  : {mj:.2} mJ/inference");
            println!(
                "  power   : {:.2} W sustained at frame-back-to-back",
                mj / latency
            );
            Ok(())
        }
        Command::Budget => {
            let b = netcut_hand::LoopBudget::paper();
            println!("control-loop budget (paper SIII-A constants):");
            println!("  reach window        : {:.0} ms", b.reach_window_ms);
            println!("  actuation reserve   : {:.0} ms", b.actuation_ms);
            println!("  decision window     : {:.0} ms", b.decision_window_ms());
            println!("  decisions required  : {}", b.decisions_required);
            println!("  frame period        : {:.1} ms", b.frame_period_ms());
            println!("  fixed per-frame     : {:.1} ms", b.fixed_per_frame_ms());
            println!(
                "  visual budget       : {:.2} ms  <- the NetCut deadline",
                b.visual_budget_ms()
            );
            Ok(())
        }
        Command::Explore {
            deadline_ms,
            extended,
            json,
            jobs,
        } => {
            let sources = networks(extended);
            let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
            let retrainer = SurrogateRetrainer::paper();
            let ctx = EvalContext::new(&session, &retrainer)
                .with_jobs(jobs)
                .with_strict(strict);
            let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 42);
            let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, deadline_ms, &ctx);
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&outcome.proposals).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            println!("NetCut @ {deadline_ms} ms:");
            for p in &outcome.proposals {
                println!(
                    "  {:30} est {:.3} ms | meas {:.3} ms | acc {:.3}",
                    p.name,
                    p.estimated_ms.unwrap_or(f64::NAN),
                    p.latency_ms,
                    p.accuracy
                );
            }
            match outcome.selected() {
                Some(best) => println!(
                    "selected: {} (accuracy {:.3}, {:.2} h total retraining)",
                    best.name, best.accuracy, outcome.exploration_hours
                ),
                None => println!("no family meets the deadline"),
            }
            Ok(())
        }
        Command::Sweep { json, jobs } => {
            let sources = zoo::paper_networks();
            let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
            let retrainer = SurrogateRetrainer::paper();
            let ctx = EvalContext::new(&session, &retrainer)
                .with_jobs(jobs)
                .with_strict(strict);
            let sweep = exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), 42);
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&sweep.points).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            println!(
                "exhaustive blockwise exploration: {} TRNs, {:.1} h of retraining",
                sweep.networks_trained(),
                sweep.total_train_hours
            );
            let frontier = pareto_frontier(&sweep.points);
            println!("Pareto frontier ({} points):", frontier.len());
            for &i in &frontier {
                let p = &sweep.points[i];
                println!(
                    "  {:30} {:.3} ms  acc {:.3}",
                    p.name, p.latency_ms, p.accuracy
                );
            }
            if let Some(best) = best_meeting_deadline(&sweep.points, 0.9) {
                println!("best @0.9 ms: {} (acc {:.3})", best.name, best.accuracy);
            }
            Ok(())
        }
        Command::Serve {
            config,
            json,
            timeline_out,
        } => {
            let scenario = netcut_serve::Scenario::try_build(config).map_err(|e| e.to_string())?;
            let (summary, timeline) = scenario.run_summary();
            if let Some(path) = timeline_out {
                // Same convention as --trace-out: `.jsonl` means the
                // line-oriented schema, anything else a Chrome trace.
                let doc = if path.ends_with(".jsonl") {
                    timeline.to_jsonl()
                } else {
                    timeline.to_chrome_trace()
                };
                std::fs::write(&path, doc)
                    .map_err(|e| format!("cannot write timeline to `{path}`: {e}"))?;
            }
            if json {
                println!("{}", summary.to_json());
            } else {
                print!("{}", summary.render_text());
            }
            Ok(())
        }
        Command::Lint { target, json } => lint(&target, json, strict),
    }
}

/// The networks `lint` analyzes for one source: the source itself, its
/// multi-head early-exit form, then for every blockwise cut depth the raw
/// (headless) TRN, the TRN with the transfer head attached, and the TRN's
/// own multi-exit form. Head-attached TRNs are checked against the
/// default [`HeadSpec`] (NC009) on top of the structural rules;
/// multi-exit graphs additionally exercise the NC013+ exit rules.
fn lint_reports(source: &Network) -> Vec<netcut_verify::Report> {
    let structural = netcut_verify::Analyzer::new();
    let with_head = netcut_verify::Analyzer::with_expected_head(HeadSpec::default());
    let head = HeadSpec::default();
    let mut reports = vec![
        structural.analyze(source),
        structural.analyze(&source.with_exit_heads(&head)),
    ];
    for k in 0..source.num_blocks() {
        if let Ok(trn) = source.cut_blocks(k) {
            reports.push(structural.analyze(&trn));
            reports.push(with_head.analyze(&trn.clone().with_head(&head)));
            reports.push(structural.analyze(&trn.with_exit_heads(&head)));
        }
    }
    reports
}

/// `netcut-cli lint`: run the static analyzer over the target; non-zero
/// exit on any Error (or, under `--strict`, any Warning). Graph targets
/// lint the network and all its blockwise TRNs; `serve` lints the
/// reference scenario matrix through the SV rules; `det` runs the
/// workspace determinism lint; `all` covers every plane.
fn lint(target: &str, json: bool, strict: bool) -> Result<(), String> {
    let sources: Vec<Network> = match target {
        "all" => networks(true),
        "serve" | "det" => Vec::new(),
        t if t.ends_with(".json") => {
            let text = std::fs::read_to_string(t).map_err(|e| format!("cannot read `{t}`: {e}"))?;
            let net: Network = serde_json::from_str(&text)
                .map_err(|e| format!("`{t}` is not an exported network: {e}"))?;
            vec![net]
        }
        t => vec![find_network(t)?],
    };
    let mut total = netcut_verify::Summary::default();
    let mut graphs = 0usize;
    for source in &sources {
        for report in lint_reports(source) {
            graphs += 1;
            total.merge(report.summary());
            if json {
                print!("{}", report.to_json_lines());
            } else if report.summary().total() > 0 {
                print!("{}", report.render_text());
            }
        }
    }
    let mut configs = 0usize;
    if matches!(target, "serve" | "all") {
        for report in netcut_serve::lint_reference_matrix() {
            configs += 1;
            total.merge(report.summary());
            if json {
                print!("{}", report.to_json_lines());
            } else if report.summary().total() > 0 {
                print!("{}", report.render_text());
            }
        }
    }
    let mut det_files = 0usize;
    let mut det_findings = 0usize;
    if matches!(target, "det" | "all") {
        let outcome =
            netcut_verify::detlint::scan_workspace(&netcut_verify::detlint::workspace_root())?;
        det_files = outcome.files_scanned;
        det_findings = outcome.findings.len() + outcome.stale.len();
        total.errors += det_findings;
        if json {
            print!("{}", outcome.to_json_lines());
        } else if !outcome.is_clean() {
            print!("{}", outcome.render_text());
        }
    }
    if !json {
        let mut scope = Vec::new();
        if !matches!(target, "serve" | "det") {
            scope.push(format!("{graphs} graphs"));
        }
        if matches!(target, "serve" | "all") {
            scope.push(format!("{configs} serve configs"));
        }
        if matches!(target, "det" | "all") {
            scope.push(format!(
                "{det_files} source files ({det_findings} determinism finding(s))"
            ));
        }
        println!(
            "linted {}: {} error(s), {} warning(s), {} note(s)",
            scope.join(", "),
            total.errors,
            total.warnings,
            total.notes
        );
    }
    if total.errors > 0 {
        Err(format!("{} error-severity diagnostics", total.errors))
    } else if strict && total.warnings > 0 {
        Err(format!(
            "{} warning-severity diagnostics (strict mode)",
            total.warnings
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_serve::ScenarioConfig;

    #[test]
    fn zoo_show_dot_run() {
        run(Command::Zoo { extended: true }, false).expect("zoo");
        run(
            Command::Show {
                network: "alexnet".into(),
            },
            false,
        )
        .expect("show");
        run(
            Command::Dot {
                network: "squeezenet".into(),
            },
            false,
        )
        .expect("dot");
    }

    /// A 0.1 s serve command over `config`, JSON output.
    fn quick_serve(config: ScenarioConfig) -> Command {
        Command::Serve {
            config: ScenarioConfig {
                duration_us: 100_000,
                ..config
            },
            json: true,
            timeline_out: None,
        }
    }

    #[test]
    fn serve_quick_run() {
        run(quick_serve(Default::default()), false).expect("serve");
    }

    #[test]
    fn serve_batched_sharded_quick_run() {
        let cmd = quick_serve(ScenarioConfig {
            batch_max: 8,
            shards: 2,
            ..Default::default()
        });
        run(cmd, false).expect("serve --batch-max 8 --shards 2");
    }

    #[test]
    fn serve_pinned_exit_runs_and_out_of_range_pin_fails() {
        let base = |exit_pin| {
            quick_serve(ScenarioConfig {
                devices: vec![DeviceModel::jetson_xavier()],
                exit_pin,
                ..Default::default()
            })
        };
        run(base(Some(0)), false).expect("serve --exit-table 0");
        let err = run(base(Some(999)), false).expect_err("pin past the table must fail");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn measure_trace_energy_run() {
        run(
            Command::Measure {
                network: "mobilenet_v1_0.25".into(),
                precision: Precision::Fp16,
            },
            false,
        )
        .expect("measure");
        run(
            Command::Trace {
                network: "mobilenet_v1_0.25".into(),
                precision: Precision::Int8,
                top: 3,
            },
            false,
        )
        .expect("trace");
        run(
            Command::Energy {
                network: "mobilenet_v1_0.25".into(),
                precision: Precision::Int8,
            },
            false,
        )
        .expect("energy");
        run(Command::Budget, false).expect("budget");
    }

    #[test]
    fn cut_command_validates_blocks() {
        run(
            Command::Cut {
                network: "mobilenet_v1_0.25".into(),
                blocks: 3,
            },
            false,
        )
        .expect("cut");
        let err = run(
            Command::Cut {
                network: "mobilenet_v1_0.25".into(),
                blocks: 99,
            },
            false,
        )
        .expect_err("out-of-range cut must fail");
        assert!(err.contains("cutpoint"));
    }

    #[test]
    fn unknown_network_reports_known_names() {
        let err = run(
            Command::Show {
                network: "resnet9000".into(),
            },
            false,
        )
        .expect_err("unknown network");
        assert!(err.contains("resnet50"), "error should list known networks");
    }

    #[test]
    fn lint_zoo_network_is_clean() {
        run(
            Command::Lint {
                target: "mobilenet_v1_0.25".into(),
                json: false,
            },
            false,
        )
        .expect("lint");
        // Strict (warnings fatal) and JSON output over a conv-headed net.
        run(
            Command::Lint {
                target: "squeezenet".into(),
                json: true,
            },
            true,
        )
        .expect("lint --strict --json");
    }

    #[test]
    fn lint_serve_analyzes_the_reference_matrix_clean() {
        let reports = netcut_serve::lint_reference_matrix();
        assert_eq!(reports.len(), netcut_serve::reference_matrix().len());
        for report in &reports {
            assert!(
                report.is_clean(),
                "serve plane must lint clean:\n{}",
                report.render_text()
            );
        }
        // The CLI surface over the same reports, strict + both renderings.
        run(
            Command::Lint {
                target: "serve".into(),
                json: false,
            },
            true,
        )
        .expect("lint serve --strict");
    }

    #[test]
    fn lint_det_passes_against_the_committed_allowlist() {
        let root = netcut_verify::detlint::workspace_root();
        assert!(
            root.join(netcut_verify::detlint::ALLOWLIST_FILE).is_file(),
            "workspace root discovery must find the allowlist (got {})",
            root.display()
        );
        run(
            Command::Lint {
                target: "det".into(),
                json: true,
            },
            false,
        )
        .expect("lint det --json");
    }

    #[test]
    fn lint_unknown_target_fails() {
        assert!(run(
            Command::Lint {
                target: "resnet9000".into(),
                json: false,
            },
            false,
        )
        .is_err());
    }

    #[test]
    fn explore_json_runs() {
        run(
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: true,
                jobs: 1,
            },
            false,
        )
        .expect("explore");
    }

    #[test]
    fn explore_parallel_no_cache_runs() {
        run(
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: true,
                jobs: 4,
            },
            false,
        )
        .expect("explore --jobs 4");
        // A parse error exits 2; the cache switch is gone.
        let argv = ["explore", "--jobs", "4", "--no-cache"].map(String::from);
        let err = crate::args::parse(&argv).unwrap_err();
        assert_eq!(err, "unknown flag `--no-cache`");
    }
}
