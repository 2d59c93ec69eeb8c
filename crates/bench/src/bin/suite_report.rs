//! Runs the entire evaluation in one pass and writes a combined markdown
//! report to `results/REPORT.md` — the single-artifact view of the
//! reproduction.

use netcut::explore::Exploration;
use netcut::netcut::NetCut;
use netcut::pareto::{best_meeting_deadline, frontier_expansion, pareto_frontier};
use netcut_bench::estimator_study::{fit_all, measure_all};
use netcut_bench::{gate, metrics_markdown, timed_phase, Lab, RunMetadata, DEADLINE_MS};
use netcut_estimate::{mean_relative_error, LatencyEstimator};
use netcut_graph::HeadSpec;
use std::fmt::Write as _;

fn exploration_table(md: &mut String, sweep: &Exploration, frontier_only: bool) {
    let frontier = pareto_frontier(&sweep.points);
    let rows: Vec<usize> = if frontier_only {
        frontier.clone()
    } else {
        (0..sweep.points.len()).collect()
    };
    let _ = writeln!(md, "| network | latency (ms) | accuracy | pareto |");
    let _ = writeln!(md, "|---|---|---|---|");
    for i in rows {
        let p = &sweep.points[i];
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.3} | {} |",
            p.name,
            p.latency_ms,
            p.accuracy,
            if frontier.contains(&i) { "*" } else { "" }
        );
    }
}

/// Renders the serving-runtime section from `results/BENCH_serve.json`:
/// the goodput/miss-rate table across the batching × sharding matrix and
/// the batch-on vs batch-off comparison paragraph. Skips the section with
/// a note when the results file is absent (run `bench_serve` first).
fn serving_section(md: &mut String, doc: Option<&serde_json::Value>) {
    let _ = writeln!(md, "\n## Serving runtime (batching × sharding)\n");
    let Some(doc) = doc else {
        let _ = writeln!(
            md,
            "_results/BENCH_serve.json not found — run \
             `cargo run --release -p netcut-bench --bin bench_serve` first._"
        );
        return;
    };
    let leg = |key: &str, field: &str| {
        gate::field(doc, &["configs", key, field]).and_then(serde_json::Value::as_u64)
    };
    let _ = writeln!(
        md,
        "Reference scenario: {}.\n",
        doc.get("scenario").and_then(|v| v.as_str()).unwrap_or("?")
    );
    let _ = writeln!(md, "| configuration | goodput (rps) | miss rate | served |");
    let _ = writeln!(md, "|---|---|---|---|");
    for (key, label) in [
        ("no_degrade", "pinned top rung, no batching, 1 shard"),
        ("baseline", "TRN degradation, no batching, 1 shard"),
        ("batch", "degradation + batching (max 8)"),
        ("shard", "degradation + 2 shards (xavier + nano)"),
        ("batch_shard", "degradation + batching + 2 shards"),
    ] {
        let (Some(goodput), Some(miss), Some(served)) = (
            leg(key, "goodput_mrps"),
            leg(key, "miss_rate_ppm"),
            leg(key, "served"),
        ) else {
            continue;
        };
        let _ = writeln!(
            md,
            "| {label} | {:.1} | {:.2} % | {served} |",
            goodput as f64 / 1e3,
            miss as f64 / 10_000.0
        );
    }
    if let (Some(off), Some(on), Some(miss_off), Some(miss_on)) = (
        leg("baseline", "goodput_mrps"),
        leg("batch_shard", "goodput_mrps"),
        leg("baseline", "miss_rate_ppm"),
        leg("batch_shard", "miss_rate_ppm"),
    ) {
        let _ = writeln!(
            md,
            "\nDynamic batching with two device shards lifts goodput from \
             **{:.1} rps** (batch-off baseline) to **{:.1} rps** \
             (**{:+.1} %**) while cutting the miss rate from {:.2} % to \
             {:.2} %: coalescing queued requests amortizes weight streaming \
             and launch overhead (sublinear batch latency), and the shard \
             router spills load to the slower edge device only when its \
             predicted completion still beats queueing on the primary.",
            off as f64 / 1e3,
            on as f64 / 1e3,
            (on as f64 / off as f64 - 1.0) * 100.0,
            miss_off as f64 / 10_000.0,
            miss_on as f64 / 10_000.0
        );
    }
}

/// Renders the serving-timeline section: per-leg SLO burn rates from
/// `results/BENCH_serve.json` plus the worst windows and the alert tally
/// of the committed `results/BENCH_timeline.jsonl` (the `batch_shard`
/// leg's windowed telemetry). Skips with a note when either file is
/// absent.
fn timeline_section(md: &mut String, doc: Option<&serde_json::Value>) {
    let _ = writeln!(md, "\n## Serving timeline (windowed telemetry)\n");
    let timeline = std::fs::read_to_string(gate::results_path(gate::TIMELINE)).ok();
    let (Some(doc), Some(timeline)) = (doc, timeline) else {
        let _ = writeln!(
            md,
            "_results/BENCH_serve.json or results/BENCH_timeline.jsonl not found — \
             run `cargo run --release -p netcut-bench --bin bench_serve` first._"
        );
        return;
    };

    // Per-leg burn rates out of the summary document.
    let _ = writeln!(
        md,
        "| configuration | run burn (× budget) | worst window (× budget) | alerts |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for key in ["no_degrade", "baseline", "batch", "shard", "batch_shard"] {
        let Some(leg) = gate::field(doc, &["configs", key]) else {
            continue;
        };
        let u = |field: &str| leg.get(field).and_then(serde_json::Value::as_u64);
        let alerts: u64 = leg
            .get("alerts")
            .and_then(|a| a.as_object())
            .map_or(0, |a| {
                a.values().filter_map(serde_json::Value::as_u64).sum()
            });
        let (Some(burn), Some(worst)) = (u("burn_rate_ppm"), u("worst_window_burn_ppm")) else {
            continue;
        };
        let _ = writeln!(
            md,
            "| {key} | {:.2} | {:.2} | {alerts} |",
            burn as f64 / 1e6,
            worst as f64 / 1e6
        );
    }

    // Worst windows + alert tally out of the timeline JSON-lines.
    let rows: Vec<serde_json::Value> = timeline
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    let mut windows: Vec<&serde_json::Value> = rows
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some("window"))
        .collect();
    windows.sort_by_key(|r| {
        let burn = r
            .get("burn_ppm")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        let w = r.get("w").and_then(serde_json::Value::as_u64).unwrap_or(0);
        (std::cmp::Reverse(burn), w)
    });
    let _ = writeln!(
        md,
        "\nWorst windows of the `batch_shard` leg (burn = bad / arrivals, \
         scaled by the miss budget):\n"
    );
    let _ = writeln!(
        md,
        "| window | start (µs) | shard | arrivals | served | bad | queue p95 (µs) | burn (× budget) |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for r in windows.iter().take(5) {
        let u = |field: &str| {
            r.get(field)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        let bad = u("missed") + u("rejected") + u("dropped");
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {bad} | {} | {:.2} |",
            u("w"),
            u("start_us"),
            u("shard"),
            u("arrivals"),
            u("served"),
            u("queue_p95_us"),
            u("burn_ppm") as f64 / 1e6
        );
    }

    let mut alert_counts: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    for r in rows
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some("alert"))
    {
        let code = r.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        let name = r.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        *alert_counts
            .entry((code.to_string(), name.to_string()))
            .or_insert(0) += 1;
    }
    if alert_counts.is_empty() {
        let _ = writeln!(md, "\nNo SLO alerts fired on this leg.");
    } else {
        let _ = writeln!(md, "\n| alert | name | fired |");
        let _ = writeln!(md, "|---|---|---|");
        for ((code, name), n) in &alert_counts {
            let _ = writeln!(md, "| {code} | {name} | {n} |");
        }
    }
}

/// Renders the simulator-throughput section from the committed
/// `results/BENCH_simcore.json`: requests simulated per second of
/// wall-clock for every reference-matrix leg plus the million-request
/// stress leg, with the iteration counts behind each number. Skips with a
/// note when the results file is absent (run `bench_simcore --bless`
/// first).
fn simcore_section(md: &mut String) {
    let _ = writeln!(md, "\n## Simulator throughput (bench_simcore)\n");
    let Ok(doc) = gate::load(&gate::results_path(gate::SIMCORE)) else {
        let _ = writeln!(
            md,
            "_results/BENCH_simcore.json not found — run \
             `cargo run --release -p netcut-bench --bin bench_simcore -- --bless` first._"
        );
        return;
    };
    let _ = writeln!(
        md,
        "Requests simulated per second of wall-clock (`run_full` only; \
         scenario construction excluded), gated in CI against a 10 % \
         regression budget by `bench_simcore`.\n"
    );
    let _ = writeln!(md, "| leg | requests | iters | wall (ms) | req/s |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    let field = |section: &str, key: &str| gate::field(&doc, &[section, key]);
    for (key, _) in netcut_bench::simcore::configs() {
        let (Some(cfg), Some(rps), Some(iters), Some(wall)) = (
            field("configs", key),
            field("rps", key).and_then(serde_json::Value::as_u64),
            field("iters", key).and_then(serde_json::Value::as_u64),
            field("wall_ms", key).and_then(serde_json::Value::as_f64),
        ) else {
            continue;
        };
        let requests = cfg
            .get("requests")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        let _ = writeln!(md, "| {key} | {requests} | {iters} | {wall:.1} | {rps} |");
    }
    if let (Some(stress_rps), Some(stress_req)) = (
        field("rps", "stress_1m").and_then(serde_json::Value::as_u64),
        field("configs", "stress_1m")
            .and_then(|c| c.get("requests"))
            .and_then(serde_json::Value::as_u64),
    ) {
        let _ = writeln!(
            md,
            "\nThe stress leg pushes **{stress_req}** requests through the \
             SoA event loop at **{:.2} M req/s**; the summary and timeline \
             it emits are byte-identical at `--jobs 1` and `--jobs 8` \
             (checked by `crates/serve/tests/simcore_stress.rs`).",
            stress_rps as f64 / 1e6
        );
    }
}

fn main() {
    let lab = Lab::new();
    let mut md = String::new();
    let _ = writeln!(md, "# NetCut reproduction — combined evaluation report\n");
    let _ = writeln!(
        md,
        "Simulated testbed: `{}` at INT8 with fusion; deadline {DEADLINE_MS} ms. \
         Regenerated by `cargo run --release -p netcut-bench --bin suite_report`.\n",
        lab.session.device().name
    );

    // Off-the-shelf landscape.
    let shelf = timed_phase("phase.off_the_shelf_us", || lab.off_the_shelf());
    let best_shelf =
        best_meeting_deadline(&shelf.points, DEADLINE_MS).expect("a network meets the deadline");
    let _ = writeln!(md, "## Off-the-shelf networks (Fig. 1)\n");
    exploration_table(&mut md, &shelf, false);
    let _ = writeln!(
        md,
        "\nBest network meeting the deadline: **{}** at {:.3} ms, accuracy {:.3}.\n",
        best_shelf.name, best_shelf.latency_ms, best_shelf.accuracy
    );

    // Exhaustive sweep + frontier.
    let sweep = timed_phase("phase.exhaustive_us", || lab.exhaustive());
    let expansion = frontier_expansion(&sweep.points, &shelf.points);
    let _ = writeln!(md, "## Blockwise TRN sweep (Figs. 5–7)\n");
    let _ = writeln!(
        md,
        "{} TRNs retrained for {:.1} h. Max relative improvement over the \
         off-the-shelf frontier: **{:.2} %**; {} of {} TRNs improve.\n",
        sweep.networks_trained(),
        sweep.total_train_hours,
        expansion.max_improvement * 100.0,
        expansion.improving_points,
        expansion.evaluated_points
    );
    let _ = writeln!(md, "New Pareto frontier:\n");
    let mut all = sweep.points.clone();
    all.extend(shelf.points.iter().cloned());
    let combined = Exploration {
        points: all,
        total_train_hours: 0.0,
    };
    exploration_table(&mut md, &combined, true);

    // Estimators.
    let measured = timed_phase("phase.measure_all_us", || measure_all(&lab));
    let fitted = timed_phase("phase.fit_estimators_us", || fit_all(&lab, &measured, 17));
    let truth: Vec<f64> = fitted
        .test_indices
        .iter()
        .map(|&i| measured.latency_ms[i])
        .collect();
    let err_of = |est: &dyn LatencyEstimator| -> f64 {
        let pred: Vec<f64> = fitted
            .test_indices
            .iter()
            .map(|&i| est.estimate_ms(&measured.trns[i]))
            .collect();
        mean_relative_error(&pred, &truth)
    };
    let _ = writeln!(md, "\n## Latency estimators (Figs. 8–9)\n");
    let _ = writeln!(md, "| estimator | held-out mean relative error | paper |");
    let _ = writeln!(md, "|---|---|---|");
    let _ = writeln!(
        md,
        "| profiler ratio | {:.2} % | 3.50 % |",
        err_of(&fitted.profiler) * 100.0
    );
    let _ = writeln!(
        md,
        "| RBF SVR (C={:.0e}, γ={}) | {:.2} % | 4.28 % |",
        fitted.svr_params.c,
        fitted.svr_params.gamma,
        err_of(&fitted.svr) * 100.0
    );
    let _ = writeln!(
        md,
        "| linear regression | {:.2} % | 23.81 % |",
        err_of(&fitted.linear) * 100.0
    );

    // NetCut. Both runs evaluate through the lab's shared cache, so every
    // source measurement and any TRN already evaluated by the sweep above
    // is served from the memo instead of re-simulated.
    let (outcome_p, outcome_a) = timed_phase("phase.netcut_us", || {
        (
            NetCut::new(&fitted.profiler, &lab.retrainer).run_with(
                &lab.sources,
                DEADLINE_MS,
                &lab.ctx(),
            ),
            NetCut::new(&fitted.svr, &lab.retrainer).run_with(
                &lab.sources,
                DEADLINE_MS,
                &lab.ctx(),
            ),
        )
    });
    let _ = writeln!(md, "\n## NetCut selections (Fig. 10)\n");
    for (label, outcome) in [("profiler", &outcome_p), ("analytical", &outcome_a)] {
        let sel = outcome.selected().expect("selection exists");
        let _ = writeln!(
            md,
            "* **{label}**: {} ({} kept layers) at {:.3} ms, accuracy {:.3} \
             ({:+.1} % over {}).",
            sel.name,
            sel.kept_layers,
            sel.latency_ms,
            sel.accuracy,
            (sel.accuracy / best_shelf.accuracy - 1.0) * 100.0,
            best_shelf.name
        );
    }
    let mut trained: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut hours = 0.0;
    for p in outcome_p.proposals.iter().chain(outcome_a.proposals.iter()) {
        if trained.insert(&p.name) {
            hours += p.train_hours;
        }
    }
    let _ = writeln!(
        md,
        "\nExploration: **{} networks / {:.1} h** (NetCut, both estimators) vs \
         **{} networks / {:.1} h** (exhaustive) — **{:.0}× speedup** \
         (paper: 9 / 6.7 h vs 148 / 183 h, 27×).",
        trained.len(),
        hours,
        sweep.networks_trained(),
        sweep.total_train_hours,
        sweep.total_train_hours / hours
    );

    // Evaluation cache: how much simulated work the shared memo absorbed
    // across all phases of the suite.
    let stats = lab.eval_stats();
    let _ = writeln!(md, "\n## Evaluation cache\n");
    let _ = writeln!(md, "| metric | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(
        md,
        "| hit rate | {:.1} % ({} hits / {} misses) |",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses
    );
    let _ = writeln!(
        md,
        "| eval wall-clock | {:.2} s computed, {:.2} s saved |",
        stats.eval_wall_s, stats.saved_wall_s
    );
    let _ = writeln!(
        md,
        "| retraining | {} distinct TRNs, {:.1} h fresh, {:.1} h saved |",
        stats.distinct_retrains, stats.fresh_train_hours, stats.saved_train_hours
    );
    println!(
        "eval cache: {:.1} % hit rate, {:.2} s computed vs {:.2} s saved",
        stats.hit_rate() * 100.0,
        stats.eval_wall_s,
        stats.saved_wall_s
    );

    // Serving runtime: the batching × sharding matrix from the committed
    // bench results (results/BENCH_serve.json — regenerated by bench_serve,
    // gated against drift by bench_check in CI).
    let serve_doc = gate::load(&gate::results_path(gate::SERVE)).ok();
    serving_section(&mut md, serve_doc.as_ref());

    // Serving timeline: windowed burn rates and alerts from the committed
    // bench artifacts (BENCH_serve.json + BENCH_timeline.jsonl).
    timeline_section(&mut md, serve_doc.as_ref());

    // Simulator throughput: the committed bench_simcore numbers
    // (results/BENCH_simcore.json — gated against regression in CI).
    simcore_section(&mut md);

    // Static verification: the graph-IR analyzer over every graph the suite
    // touched — each source plus every blockwise TRN, raw and with the
    // HANDS head reattached. A single Error here means the numbers above
    // were computed on a structurally broken graph.
    let (verify_summary, verified_graphs) = timed_phase("phase.verify_us", || {
        let structural = netcut_verify::Analyzer::new();
        let spec = HeadSpec::default();
        let with_head = netcut_verify::Analyzer::with_expected_head(spec.clone());
        let mut total = netcut_verify::Summary::default();
        let mut graphs = 0usize;
        for source in &lab.sources {
            total.merge(structural.analyze(source).summary());
            graphs += 1;
            for k in 0..source.num_blocks() {
                let trn = source.cut_blocks(k).expect("zoo cutpoints are valid");
                total.merge(structural.analyze(&trn).summary());
                total.merge(with_head.analyze(&trn.with_head(&spec)).summary());
                graphs += 2;
            }
        }
        (total, graphs)
    });
    let _ = writeln!(md, "\n## Static verification\n");
    let _ = writeln!(
        md,
        "`netcut-verify` over **{verified_graphs} graphs** (every source, every \
         blockwise TRN raw and head-reattached): {} error(s), {} warning(s), \
         {} note(s).",
        verify_summary.errors, verify_summary.warnings, verify_summary.notes
    );
    assert_eq!(
        verify_summary.errors, 0,
        "suite ran on structurally broken graphs"
    );

    // Serve-plane verification: the SV rules over every reference-matrix
    // scenario — the exact configurations the serving section above
    // benched — plus the workspace determinism lint against its committed
    // allowlist. A ladder-construction failure becomes an SV002 finding.
    let (serve_verify, serve_configs) = timed_phase("phase.verify_serve_us", || {
        let reports = netcut_serve::lint_reference_matrix();
        let mut total = netcut_verify::Summary::default();
        for report in &reports {
            total.merge(report.summary());
        }
        (total, reports.len())
    });
    let detlint = timed_phase("phase.detlint_us", || {
        let root = netcut_verify::detlint::workspace_root();
        netcut_verify::detlint::scan_workspace(&root).expect("detlint scan")
    });
    let _ = writeln!(
        md,
        "\nSV serve-plane rules over **{serve_configs} reference scenarios** \
         (the bench matrix legs): {} error(s), {} warning(s). Determinism \
         lint over **{} source files**: {} finding(s), {} allowed, {} stale.",
        serve_verify.errors,
        serve_verify.warnings,
        detlint.files_scanned,
        detlint.findings.len(),
        detlint.allowed.len(),
        detlint.stale.len()
    );
    assert_eq!(
        serve_verify.errors, 0,
        "suite benched an unsound serve configuration"
    );
    assert!(detlint.is_clean(), "determinism lint failed:\n{}", {
        detlint.render_text()
    });

    // Run metadata & metrics: provenance plus the counters and per-phase
    // wall-clock accumulated across the whole suite.
    let meta = RunMetadata::collect(&lab, 17);
    let _ = writeln!(md, "\n## Run metadata & metrics\n");
    md.push_str(&metrics_markdown(&meta));

    let path = netcut_bench::write_json(
        "suite_summary",
        &serde_json::json!({
            "best_shelf": best_shelf,
            "expansion_max": expansion.max_improvement,
            "netcut_hours": hours,
            "exhaustive_hours": sweep.total_train_hours,
            "eval_cache": stats,
            "verify": {
                "graphs": verified_graphs,
                "errors": verify_summary.errors,
                "warnings": verify_summary.warnings,
                "notes": verify_summary.notes,
                "serve_configs": serve_configs,
                "serve_errors": serve_verify.errors,
                "detlint_files": detlint.files_scanned,
                "detlint_findings": detlint.findings.len(),
                "detlint_allowed": detlint.allowed.len(),
                "detlint_stale": detlint.stale.len(),
            },
            "metadata": meta,
        }),
    );
    let report_path = path.with_file_name("REPORT.md");
    std::fs::write(&report_path, &md).expect("write report");
    println!("{md}");
    println!("written: {}", report_path.display());
}
