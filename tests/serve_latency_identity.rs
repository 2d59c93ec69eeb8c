//! A completion's latency is its queue delay plus its service time, and
//! a request that never started reports zeros. The run ledger keeps no
//! per-request result: the one pass that builds the outcome records and
//! the registry flush reads a completion's queue delay and service off its
//! batch's row (start − arrival, and the batch's service) and derives the
//! latency from those two, so this identity is what every golden's latency
//! figures rest on. Checked on every reference-matrix leg (the closed-loop
//! `drift` leg included) at two seeds, and on the stress scenario cut to
//! 0.1 s, where batches of up to eight share one service time.

use netcut_repro::serve::{reference_matrix, stress_scenario, Scenario, ScenarioConfig, Status};

/// Checks every outcome of `cfg`'s run; returns how many runs ended in
/// each status, indexed as [`Status`] is declared.
fn check(leg: &str, cfg: ScenarioConfig) -> [usize; 4] {
    let deadline_us = cfg.deadline_us;
    let scenario = Scenario::build(cfg);
    let (outcomes, _) = scenario.run_full();
    let mut seen = [0usize; 4];
    for o in &outcomes {
        seen[o.status as usize] += 1;
        match o.status {
            Status::Served | Status::Missed => {
                assert_eq!(
                    o.latency_us,
                    o.queue_delay_us + o.service_us,
                    "{leg}: request {} latency is not queue delay plus service",
                    o.id
                );
                assert_eq!(
                    o.status == Status::Missed,
                    o.latency_us > deadline_us,
                    "{leg}: request {} is {:?} at {} µs against a {deadline_us} µs deadline",
                    o.id,
                    o.status,
                    o.latency_us
                );
            }
            Status::Rejected | Status::Dropped => {
                assert_eq!(
                    (o.latency_us, o.service_us, o.batch_size, o.rung),
                    (0, 0, 0, None),
                    "{leg}: request {} was {:?} but reports work",
                    o.id,
                    o.status
                );
            }
        }
    }
    seen
}

#[test]
fn completion_latency_is_queue_delay_plus_service() {
    let mut seen = [0usize; 4];
    for seed in [11u64, 13] {
        for (leg, cfg) in reference_matrix() {
            let counts = check(&format!("{leg}@{seed}"), ScenarioConfig { seed, ..cfg });
            for (total, n) in seen.iter_mut().zip(counts) {
                *total += n;
            }
        }
    }
    let (_, stress) = stress_scenario();
    let counts = check(
        "stress@0.1s",
        ScenarioConfig {
            duration_us: 100_000,
            ..stress
        },
    );
    for (total, n) in seen.iter_mut().zip(counts) {
        *total += n;
    }
    // Every disposition occurs, so neither branch above is vacuous.
    assert!(seen.iter().all(|&n| n > 0), "dispositions seen: {seen:?}");
}
