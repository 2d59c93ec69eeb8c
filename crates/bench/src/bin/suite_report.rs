//! Regenerates the reproduction in one pass: runs every study of
//! [`netcut_bench::paper::DOCUMENTS`] over one shared lab and writes each
//! `results/<name>.json`, runs the serving runtime's reference matrix
//! ([`netcut_bench::serve_matrix`]) and writes `results/BENCH_serve.json`
//! and `results/BENCH_timeline.jsonl`, and writes the combined report to
//! `results/REPORT.md` — the single-artifact view of the reproduction. It
//! fails when a study's shape claim, a serve acceptance invariant or a
//! verification pass fails.
//!
//! Every written byte is a function of the tree: a rerun on an unchanged
//! tree rewrites the same files, at any CPU count, and CI fails when
//! `git status --porcelain -- results/` is not empty after running it.
//! What varies from run to run (the git state and the wall-clock of each
//! phase) goes to stdout only.

use netcut_bench::estimator_study::STUDY_SEED;
use netcut_bench::serve_matrix::{self, LegResult};
use netcut_bench::{gate, metrics_markdown, paper, timed_phase, Lab, RunMetadata, DEADLINE_MS};
use netcut_graph::HeadSpec;
use netcut_serve::Scenario;
use netcut_verify::Report;
use std::fmt::Write as _;
use std::time::Instant;

/// Renders the serving-runtime section: the goodput/miss-rate table
/// across the batching × sharding matrix and the batch-on vs batch-off
/// comparison paragraph.
fn serving_section(md: &mut String, legs: &[LegResult]) {
    let summary = |key| &serve_matrix::leg(legs, key).summary;
    let _ = writeln!(md, "\n## Serving runtime (batching × sharding)\n");
    let _ = writeln!(md, "Reference scenario: {}.\n", serve_matrix::SCENARIO);
    let _ = writeln!(md, "| configuration | goodput (rps) | miss rate | served |");
    let _ = writeln!(md, "|---|---|---|---|");
    for (key, label) in [
        ("no_degrade", "pinned top rung, no batching, 1 shard"),
        ("baseline", "TRN degradation, no batching, 1 shard"),
        ("batch", "degradation + batching (max 8)"),
        ("shard", "degradation + 2 shards (xavier + nano)"),
        ("batch_shard", "degradation + batching + 2 shards"),
    ] {
        let leg = summary(key);
        let _ = writeln!(
            md,
            "| {label} | {:.1} | {:.2} % | {} |",
            leg.goodput_mrps as f64 / 1e3,
            leg.miss_rate_ppm as f64 / 10_000.0,
            leg.served
        );
    }
    let (off, on) = (summary("baseline"), summary("batch_shard"));
    let _ = writeln!(
        md,
        "\nDynamic batching with two device shards lifts goodput from \
         **{:.1} rps** (batch-off baseline) to **{:.1} rps** \
         (**{:+.1} %**) while cutting the miss rate from {:.2} % to \
         {:.2} %: coalescing queued requests amortizes weight streaming \
         and launch overhead (sublinear batch latency), and the shard \
         router spills load to the slower edge device only when its \
         predicted completion still beats queueing on the primary.",
        off.goodput_mrps as f64 / 1e3,
        on.goodput_mrps as f64 / 1e3,
        (on.goodput_mrps as f64 / off.goodput_mrps as f64 - 1.0) * 100.0,
        off.miss_rate_ppm as f64 / 10_000.0,
        on.miss_rate_ppm as f64 / 10_000.0
    );
}

/// Renders the serving-timeline section: per-leg SLO burn rates, then the
/// worst windows and the alert tally of the
/// [`serve_matrix::TIMELINE_LEG`]'s windowed telemetry.
fn timeline_section(md: &mut String, legs: &[LegResult]) {
    let _ = writeln!(md, "\n## Serving timeline (windowed telemetry)\n");
    let _ = writeln!(
        md,
        "| configuration | run burn (× budget) | worst window (× budget) | alerts |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for key in ["no_degrade", "baseline", "batch", "shard", "batch_shard"] {
        let leg = &serve_matrix::leg(legs, key).summary;
        let _ = writeln!(
            md,
            "| {key} | {:.2} | {:.2} | {} |",
            leg.burn_rate_ppm as f64 / 1e6,
            leg.worst_window_burn_ppm as f64 / 1e6,
            leg.alert_counts.iter().sum::<u64>()
        );
    }

    let timeline = &serve_matrix::leg(legs, serve_matrix::TIMELINE_LEG).timeline;
    let mut windows: Vec<_> = timeline.rows.iter().collect();
    windows.sort_by_key(|r| (std::cmp::Reverse(r.burn_ppm), r.window));
    let _ = writeln!(
        md,
        "\nWorst windows of the `{}` leg (burn = bad / arrivals, \
         scaled by the miss budget):\n",
        serve_matrix::TIMELINE_LEG
    );
    let _ = writeln!(
        md,
        "| window | start (µs) | shard | arrivals | served | bad | queue p95 (µs) | burn (× budget) |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for r in windows.iter().take(5) {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} |",
            r.window,
            r.start_us,
            r.shard,
            r.arrivals,
            r.served,
            r.bad(),
            r.queue_p95_us,
            r.burn_ppm as f64 / 1e6
        );
    }

    let mut fired: std::collections::BTreeMap<(&str, &str), u64> = Default::default();
    for alert in &timeline.alerts {
        *fired
            .entry((alert.code.code(), alert.code.name()))
            .or_insert(0) += 1;
    }
    if fired.is_empty() {
        let _ = writeln!(md, "\nNo SLO alerts fired on this leg.");
    } else {
        let _ = writeln!(md, "\n| alert | name | fired |");
        let _ = writeln!(md, "|---|---|---|");
        for ((code, name), n) in &fired {
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

/// Renders the static-verification section. The graph-IR analyzer runs
/// over every graph the suite touched — each source plus every blockwise
/// TRN, raw and with the HANDS head reattached: a single Error means the
/// numbers above were computed on a structurally broken graph. The SV
/// reports come from the built reference-matrix legs — the exact
/// scenarios the serving sections bench, where a ladder-construction
/// failure is an SV002 finding — and the workspace determinism lint runs
/// over its committed allowlist.
fn verification_section(lab: &Lab, built: &[(&str, Option<Scenario>, Report)]) -> String {
    let mut md = String::new();
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

    let mut serve_verify = netcut_verify::Summary::default();
    for (_, _, report) in built {
        serve_verify.merge(report.summary());
    }
    let detlint = timed_phase("phase.detlint_us", || {
        let root = netcut_verify::detlint::workspace_root();
        netcut_verify::detlint::scan_workspace(&root).expect("detlint scan")
    });
    // The lint's scope by crate, not by file count: adding or splitting a
    // source file must not rewrite this document.
    let scanned: Vec<&str> = netcut_verify::detlint::SCANNED_ROOTS
        .iter()
        .map(|root| root.trim_start_matches("crates/").trim_end_matches("/src"))
        .collect();
    let _ = writeln!(
        md,
        "\nSV serve-plane rules over **{} reference scenarios** \
         (the bench matrix legs): {} error(s), {} warning(s). Determinism \
         lint over `crates/{{{}}}/src`: {} finding(s), {} allowed, {} stale.",
        built.len(),
        serve_verify.errors,
        serve_verify.warnings,
        scanned.join(","),
        detlint.findings.len(),
        detlint.allowed.len(),
        detlint.stale.len()
    );
    let unsound: String = built
        .iter()
        .filter(|(_, _, report)| !report.is_clean())
        .map(|(_, _, report)| report.render_text())
        .collect();
    assert!(
        unsound.is_empty(),
        "suite benched an unsound serve configuration:\n{unsound}"
    );
    assert!(detlint.is_clean(), "determinism lint failed:\n{}", {
        detlint.render_text()
    });
    md
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

    // The figures and ablations, each written as its study returns it.
    for (name, study) in paper::DOCUMENTS {
        let start = Instant::now();
        let document = study(&lab);
        let path = gate::results_path(&format!("{name}.json"));
        gate::write(&path, &document.json);
        md.push_str(&document.report);
        println!(
            "raw data: {} ({:.2} s)\n",
            path.display(),
            start.elapsed().as_secs_f64()
        );
    }

    // Evaluation cache: how much simulated work the shared memo absorbed
    // across every study (each measures, profiles and retrains through
    // the lab's caches). The wall-clock it saved goes to stdout only.
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
        "| retraining | {} distinct TRNs, {:.1} h fresh, {:.1} h saved |",
        stats.distinct_retrains, stats.fresh_train_hours, stats.saved_train_hours
    );
    println!(
        "eval cache: {:.1} % hit rate, {:.2} s computed vs {:.2} s saved",
        stats.hit_rate() * 100.0,
        stats.eval_wall_s,
        stats.saved_wall_s
    );

    // The serve matrix's legs are built and SV-linted once, before the
    // verification passes and the metrics table, and run after them: the
    // table counts the paper studies, the verification passes and the
    // legs' builds, while the runs' own counts are their summaries in
    // BENCH_serve.json. The verification section and the table print
    // after the serve sections. The seed and setup go with the table; the
    // git state and the per-phase wall-clock go to stdout.
    let built = timed_phase("phase.verify_serve_us", serve_matrix::build);
    let verification = verification_section(&lab, &built);
    let meta = RunMetadata::collect(&lab, STUDY_SEED);
    let metrics = metrics_markdown(&meta);

    // Serving runtime: the reference matrix, written as BENCH_serve.json
    // (one summary per leg) and BENCH_timeline.jsonl (the timeline leg's
    // windowed telemetry), then checked against its acceptance invariants.
    // The documents are written first, so a failed run still leaves the
    // fresh files to inspect.
    let start = Instant::now();
    let legs = serve_matrix::run(&built);
    for (file, text) in serve_matrix::documents(&legs) {
        let path = gate::results_path(file);
        gate::write(&path, &text);
        println!("raw data: {}", path.display());
    }
    println!(
        "serve matrix: {} legs run in {:.2} s\n",
        legs.len(),
        start.elapsed().as_secs_f64()
    );
    let violations = serve_matrix::acceptance_violations(&legs);
    assert!(
        violations.is_empty(),
        "serve matrix acceptance violation(s):\n  {}",
        violations.join("\n  ")
    );
    serving_section(&mut md, &legs);
    timeline_section(&mut md, &legs);

    // Simulator throughput: the committed bench_simcore numbers
    // (results/BENCH_simcore.json — gated against regression in CI).
    simcore_section(&mut md);

    md.push_str(&verification);
    let _ = writeln!(md, "\n## Run metadata & metrics\n");
    md.push_str(&metrics);

    let report_path = gate::results_path("REPORT.md");
    gate::write(&report_path, &md);
    println!("written: {}", report_path.display());
    netcut_bench::print_run_summary(&meta);
}
