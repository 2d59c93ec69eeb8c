//! The serve runtime flushes each run to the global metrics registry once,
//! as a projection of its run ledger. This pins that flush against the
//! summary and the outcome records — the other projections of the same
//! ledger — on a batched two-shard run with faults, where every
//! disposition occurs, and on the closed-loop `drift` leg, whose swaps
//! the flush counts and whose last calibration it gauges. Kept in its own
//! integration binary: the metrics registry is process-global.

use netcut_repro::obs::{self, Gauge, Histogram, MetricsSnapshot};
use netcut_repro::serve::{
    reference_matrix, RunMeta, Scenario, ScenarioConfig, ServeSummary, Status, Timeline,
};

/// Runs `scenario` on a freshly reset registry and checks every `serve.*`
/// series the flush writes against the run's outcome records; returns the
/// summary, the timeline and the registry as the run left it.
fn flushed(leg: &str, scenario: &Scenario) -> (ServeSummary, Timeline, MetricsSnapshot) {
    obs::reset_metrics();
    let (outcomes, timeline) = scenario.run_full();
    let snapshot = obs::snapshot();
    let meta = RunMeta::from_server(scenario.server(), scenario.config().duration_us);
    let mut summary = ServeSummary::from_outcomes(&outcomes, &meta);
    summary.attach_timeline(&timeline);

    for (name, expected) in [
        ("serve.served", summary.served),
        ("serve.missed", summary.missed),
        ("serve.rejected", summary.rejected),
        ("serve.dropped", summary.dropped),
        ("serve.degraded", summary.degraded),
    ] {
        assert_eq!(
            snapshot.counter(name),
            expected,
            "{leg}: `{name}` disagrees"
        );
    }

    // The histograms the records imply: latency and queue delay per
    // completion, and each batch's size once per batch (a batch of `n`
    // completions reports `n` in each of its `n` records).
    let (mut latency, mut queue_delay, mut batch_size) = (
        Histogram::default(),
        Histogram::default(),
        Histogram::default(),
    );
    let mut members = vec![
        0u64;
        1 + outcomes
            .iter()
            .map(|o| usize::from(o.batch_size))
            .max()
            .unwrap_or(0)
    ];
    for o in &outcomes {
        if matches!(o.status, Status::Served | Status::Missed) {
            latency.observe(o.latency_us());
            queue_delay.observe(o.queue_delay_us);
            members[usize::from(o.batch_size)] += 1;
        }
    }
    for (size, &n) in members.iter().enumerate().skip(1) {
        assert_eq!(n % size as u64, 0, "{leg}: size-{size} batches split");
        for _ in 0..n / size as u64 {
            batch_size.observe(size as u64);
        }
    }
    for (name, want) in [
        ("serve.latency_us", &latency),
        ("serve.queue_delay_us", &queue_delay),
        ("serve.batch_size", &batch_size),
    ] {
        assert!(want.summary().count > 0, "{leg}: no `{name}` observation");
        assert_eq!(
            snapshot.histogram(name),
            Some(&want.summary()),
            "{leg}: `{name}` disagrees"
        );
    }
    (summary, timeline, snapshot)
}

#[test]
fn registry_flush_matches_the_summary() {
    let scenario = Scenario::build(ScenarioConfig {
        duration_us: 500_000,
        batch_max: 8,
        shards: 2,
        ..ScenarioConfig::default()
    });
    let (summary, _, snapshot) = flushed("batched", &scenario);
    for (name, n) in [
        ("serve.served", summary.served),
        ("serve.missed", summary.missed),
        ("serve.rejected", summary.rejected),
        ("serve.dropped", summary.dropped),
        ("serve.degraded", summary.degraded),
    ] {
        assert!(n > 0, "fixture must exercise `{name}`");
    }
    assert!(
        summary.batch_histogram[1..].iter().any(|&n| n > 0),
        "fixture must form batches"
    );
    assert_eq!(snapshot.counter("recalib.swaps"), 0, "the loop was open");

    // The closed loop: the flush counts every swap in the timeline's log
    // and leaves the gauge at the last swap's calibration.
    let (_, cfg) = reference_matrix()
        .into_iter()
        .find(|(key, _)| *key == "drift")
        .expect("the reference matrix has a drift leg");
    let (_, timeline, snapshot) = flushed("drift", &Scenario::build(cfg));
    let swaps = &timeline.swaps;
    let last = swaps.last().expect("the drift leg must swap");
    assert_eq!(snapshot.counter("recalib.swaps"), swaps.len() as u64);
    assert!(snapshot.counter("recalib.triggers") >= swaps.len() as u64);
    assert_eq!(
        snapshot.gauge("recalib.scale_ppm"),
        Some(Gauge {
            value: last.calib_ppm as i64,
            max: swaps
                .iter()
                .map(|sw| sw.calib_ppm as i64)
                .max()
                .unwrap_or(0),
        })
    );
}
