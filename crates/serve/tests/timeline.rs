//! Determinism and accounting invariants of the windowed timeline.
//!
//! The timeline is part of the deterministic surface: at a fixed seed its
//! JSON-lines rendering must be byte-identical regardless of `jobs`
//! (parallelism only touches order-deterministic ladder construction and
//! noise precompute, never event ordering). These tests pin that, plus
//! the per-cell accounting identity and the alert behavior of a run that
//! is engineered to go badly.

use netcut_serve::{Scenario, ScenarioConfig};

/// A short but eventful configuration: both shards, batching, faults.
fn quick(seed: u64, jobs: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        jobs,
        duration_us: 500_000,
        batch_max: 4,
        shards: 2,
        ..ScenarioConfig::default()
    }
}

fn jsonl(cfg: ScenarioConfig) -> String {
    let (_, timeline) = Scenario::build(cfg).run_full();
    timeline.to_jsonl()
}

#[test]
fn timeline_is_byte_identical_across_jobs_seed_11() {
    assert_eq!(jsonl(quick(11, 1)), jsonl(quick(11, 8)));
}

#[test]
fn timeline_is_byte_identical_across_jobs_seed_13() {
    assert_eq!(jsonl(quick(13, 1)), jsonl(quick(13, 8)));
}

#[test]
fn seeds_differ() {
    assert_ne!(jsonl(quick(11, 1)), jsonl(quick(13, 1)));
}

#[test]
fn every_window_cell_balances() {
    let (_, timeline) = Scenario::build(quick(11, 1)).run_full();
    assert!(!timeline.rows.is_empty(), "eventful run has rows");
    for row in &timeline.rows {
        assert_eq!(
            row.arrivals,
            row.served + row.missed + row.rejected + row.dropped,
            "window {} shard {}: every arrival is served, missed, rejected, \
             or dropped — exactly once, in its arrival window",
            row.window,
            row.shard
        );
        assert!(
            row.served + row.missed >= row.degraded,
            "degraded counts completed (served or missed) requests"
        );
        assert!(row.queue_p95_us <= row.queue_max_us);
    }
}

#[test]
fn every_shard_appears_in_every_window() {
    let (_, timeline) = Scenario::build(quick(11, 1)).run_full();
    let shards = timeline.shard_names.len();
    assert_eq!(shards, 2);
    assert_eq!(timeline.rows.len(), timeline.windows as usize * shards);
    for w in 0..timeline.windows {
        for s in 0..shards {
            let row = &timeline.rows[(w as usize) * shards + s];
            assert_eq!((row.window, row.shard), (w, s));
            assert_eq!(row.start_us, w * timeline.window_us);
        }
    }
}

#[test]
fn pinned_ladder_burns_budget_and_alerts() {
    // The no-degrade baseline under faults blows the 900 µs deadline
    // hard; the timeline must say so — nonzero burn and at least one
    // budget-burn (OBS001) alert.
    let cfg = ScenarioConfig {
        degrade: false,
        ..quick(11, 1)
    };
    let (_, timeline) = Scenario::build(cfg).run_full();
    assert!(
        timeline.rows.iter().any(|r| r.burn_ppm > 0),
        "a pinned ladder under faults burns SLO budget"
    );
    let counts = timeline.alert_counts();
    assert_eq!(counts.len(), 5);
    assert!(counts[0] > 0, "OBS001 budget-burn fires on the bad run");
    // Faults are on, so the fault-window-entered marker fires too.
    assert!(counts[3] > 0, "OBS004 marks the seeded fault windows");
}

#[test]
fn jsonl_roundtrips_through_the_summary_counts() {
    // The run-level summary and the timeline are two views of one run:
    // totals must agree.
    let (summary, timeline) = Scenario::build(quick(11, 1)).run_summary();
    let total =
        |f: fn(&netcut_serve::WindowRow) -> u64| -> u64 { timeline.rows.iter().map(f).sum() };
    assert_eq!(total(|r| r.arrivals), summary.total);
    assert_eq!(total(|r| r.served), summary.served);
    assert_eq!(total(|r| r.missed), summary.missed);
    assert_eq!(total(|r| r.rejected), summary.rejected);
    assert_eq!(total(|r| r.dropped), summary.dropped);
    assert_eq!(total(|r| r.degraded), summary.degraded);
    assert_eq!(timeline.alert_counts(), summary.alert_counts);
}
