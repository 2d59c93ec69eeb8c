//! BENCH_serve — the deadline-aware serving runtime under the paper
//! scenario (900 µs deadline, 2000 rps, 5 s, seed 11), across the
//! batching × sharding matrix, the pinned `no_degrade` baseline, and the
//! drift pair (`drift_norecal` / `drift`) that quantifies what closing
//! the recalibration loop recovers under a +30% thermal throttle.
//!
//! Prints every leg's summary and the headline comparisons (degradation
//! must beat the pinned ladder; batching + sharding must strictly beat
//! the single-shard unbatched baseline in raw goodput at an
//! equal-or-lower miss rate; batching must strictly raise
//! accuracy-weighted goodput against the equal-roster unbatched leg;
//! and the multi-exit refactor must keep one resident network per
//! device at least 10× smaller than the per-rung-network fleet),
//! and writes the raw summaries to `results/BENCH_serve.json`. The
//! summaries themselves are hand-rolled integer-only JSON, so reruns at
//! any `--jobs`-equivalent parallelism byte-match; only `git` and the
//! wall-clock fields vary run to run. `bench_check` compares a fresh run
//! against the committed file in CI.
//!
//! Also prints a per-leg SLO burn-rate table and writes the `batch_shard`
//! leg's windowed timeline to `results/BENCH_timeline.jsonl` (schema v1
//! JSON-lines, same format as `serve --timeline-out`), which `bench_check`
//! gates the same way.

use netcut_bench::{gate, serve_matrix};

fn main() {
    println!("BENCH_serve — serving runtime, paper scenario (seed 11)");
    println!();

    let legs = serve_matrix::run();
    for leg in &legs {
        println!("[{}]", leg.key);
        print!("{}", leg.summary.render_text());
        println!();
    }

    let baseline = &legs[0].summary;
    let batch_shard = &legs
        .iter()
        .find(|l| l.key == "batch_shard")
        .expect("matrix has a batch_shard leg")
        .summary;
    println!(
        "goodput: {:.1} rps baseline -> {:.1} rps with --batch-max {} --shards {}",
        baseline.goodput_mrps as f64 / 1e3,
        batch_shard.goodput_mrps as f64 / 1e3,
        serve_matrix::BATCH_MAX,
        serve_matrix::SHARDS,
    );
    let shard = &legs
        .iter()
        .find(|l| l.key == "shard")
        .expect("matrix has a shard leg")
        .summary;
    println!(
        "accuracy-weighted goodput: {:.1} rps sharded -> {:.1} rps batch+shard \
         ({:.1} rps single-device baseline)",
        shard.acc_goodput_mrps as f64 / 1e3,
        batch_shard.acc_goodput_mrps as f64 / 1e3,
        baseline.acc_goodput_mrps as f64 / 1e3,
    );
    println!(
        "miss rate: {:.4}% baseline vs {:.4}% batch+shard",
        baseline.miss_rate_ppm as f64 / 10_000.0,
        batch_shard.miss_rate_ppm as f64 / 10_000.0
    );
    println!(
        "model memory: one multi-exit network per device is {:.1}x smaller than \
         the per-rung-network fleet ({:.1} vs {:.1} MiB on the batch+shard leg)",
        batch_shard.model_reduction_ppm as f64 / 1e6,
        batch_shard.model_bytes.iter().sum::<u64>() as f64 / (1024.0 * 1024.0),
        batch_shard.baseline_model_bytes.iter().sum::<u64>() as f64 / (1024.0 * 1024.0),
    );
    let open = &legs
        .iter()
        .find(|l| l.key == "drift_norecal")
        .expect("matrix has an open-loop drift leg")
        .summary;
    let closed = &legs
        .iter()
        .find(|l| l.key == "drift")
        .expect("matrix has a closed-loop drift leg")
        .summary;
    println!(
        "recalibration (+30% thermal drift): miss rate {:.4}% open loop -> {:.4}% \
         closed loop ({} swap(s)), acc-goodput {:.1} -> {:.1} rps",
        open.miss_rate_ppm as f64 / 10_000.0,
        closed.miss_rate_ppm as f64 / 10_000.0,
        closed.recalibrations,
        open.acc_goodput_mrps as f64 / 1e3,
        closed.acc_goodput_mrps as f64 / 1e3,
    );
    println!();
    println!(
        "SLO burn rates (x of the {} ppm budget):",
        batch_shard.slo_miss_budget_ppm
    );
    print!("{}", serve_matrix::burn_table(&legs));

    let violations = serve_matrix::acceptance_violations(&legs);
    for v in &violations {
        eprintln!("ACCEPTANCE VIOLATION: {v}");
    }
    assert!(violations.is_empty(), "{} violation(s)", violations.len());

    let json = serve_matrix::to_json(&legs, &netcut_bench::git_describe());
    let path = gate::results_path(gate::SERVE);
    gate::write(&path, &json);
    println!("raw data: {}", path.display());

    let tl_path = gate::results_path(gate::TIMELINE);
    let tl = serve_matrix::timeline_leg(&legs).timeline.to_jsonl();
    gate::write(&tl_path, &tl);
    println!(
        "timeline ({} leg): {}",
        serve_matrix::TIMELINE_LEG,
        tl_path.display()
    );
}
