//! The million-request stress leg's determinism contract: the summary and
//! the full timeline are byte-identical whether the scenario is set up on
//! 1 worker or 8. `ScenarioConfig::jobs` only changes set-up (ladder
//! construction and noise precompute); the run itself is serial. Set-up
//! parallelism may only trade wall-clock time, never a byte of output —
//! checked at the scale the `bench_simcore` CI leg actually runs.

use netcut_serve::{stress_scenario, Scenario, ScenarioConfig};

/// The stress scenario at `seed`, set up on `jobs` workers.
fn cfg(seed: u64, jobs: usize) -> ScenarioConfig {
    let (_, base) = stress_scenario();
    ScenarioConfig { seed, jobs, ..base }
}

#[test]
fn stress_summary_and_timeline_identical_at_jobs_1_and_8() {
    if cfg!(debug_assertions) {
        // ~10⁶ requests per run; only worth the wall-clock with optimized
        // code. CI's bench job runs it with `cargo test --release -p
        // netcut-serve --test simcore_stress`.
        eprintln!("skipped: stress-scale determinism check runs in release only");
        return;
    }
    for seed in [11u64, 13] {
        let serial = Scenario::build(cfg(seed, 1));
        let parallel = Scenario::build(cfg(seed, 8));
        assert!(
            serial.requests.len() >= 1_000_000,
            "stress leg shrank below a million requests (seed {seed}: {})",
            serial.requests.len()
        );

        let (out_1, tl_1) = serial.run_full();
        let (out_8, tl_8) = parallel.run_full();
        assert_eq!(out_1, out_8, "outcomes diverged across jobs at seed {seed}");
        assert_eq!(
            tl_1.to_jsonl(),
            tl_8.to_jsonl(),
            "timeline diverged across jobs at seed {seed}"
        );

        // Summaries from the outcomes already in hand (no second run):
        // exactly what `run_summary` aggregates.
        let summarize = |scenario: &Scenario, outcomes, timeline| {
            let meta = netcut_serve::RunMeta::from_server(
                scenario.server(),
                stress_scenario().1.duration_us,
            );
            let mut summary = netcut_serve::ServeSummary::from_outcomes(outcomes, &meta);
            summary.attach_timeline(timeline);
            summary.to_json()
        };
        assert_eq!(
            summarize(&serial, &out_1, &tl_1),
            summarize(&parallel, &out_8, &tl_8),
            "summary diverged across jobs at seed {seed}"
        );
    }
}
