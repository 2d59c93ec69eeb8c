//! The serve runtime flushes each run to the global metrics registry once,
//! as a projection of its run ledger. This pins that flush against the
//! summary — the other projection of the same ledger — on a batched
//! two-shard run with faults, where every disposition occurs. Kept in its
//! own integration binary: the metrics registry is process-global.

use netcut_repro::obs;
use netcut_repro::serve::{Scenario, ScenarioConfig};

#[test]
fn registry_flush_matches_the_summary() {
    let scenario = Scenario::build(ScenarioConfig {
        duration_us: 500_000,
        batch_max: 8,
        shards: 2,
        ..ScenarioConfig::default()
    });
    obs::reset_metrics();
    let (summary, _) = scenario.run_summary();
    let snapshot = obs::snapshot();

    for (name, expected) in [
        ("serve.served", summary.served),
        ("serve.missed", summary.missed),
        ("serve.rejected", summary.rejected),
        ("serve.dropped", summary.dropped),
        ("serve.degraded", summary.degraded),
    ] {
        assert!(expected > 0, "fixture must exercise `{name}`");
        assert_eq!(snapshot.counter(name), expected, "`{name}` disagrees");
    }

    let count = |name: &str| snapshot.histogram(name).map_or(0, |h| h.count);
    let completions = summary.served + summary.missed;
    assert_eq!(count("serve.latency_us"), completions);
    assert_eq!(count("serve.queue_delay_us"), completions);
    let batches: u64 = summary
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(i, &n)| n / (i as u64 + 1))
        .sum();
    assert!(
        summary.batch_histogram[1..].iter().any(|&n| n > 0),
        "fixture must form batches"
    );
    assert_eq!(count("serve.batch_size"), batches);
}
