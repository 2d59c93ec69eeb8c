//! Golden-trace regression tests for the serving runtime.
//!
//! `tests/golden/serve_seed11.json` is the committed summary of a seeded
//! ~1000-request serve run (deadline 900 µs, 2000 rps, 0.5 s, seed 11,
//! 2 workers, faults on — the CLI defaults at `--duration 0.5`);
//! `tests/golden/serve_seed11_batch2x.json` is the same scenario with
//! dynamic batching and two device shards (`--batch-max 8 --shards 2`);
//! `tests/golden/serve_seed11_pool100.json` pins the many-worker batched
//! path: 100 workers (50 per shard, not a power of two) over two shards at
//! 210 000 rps for 0.1 s with a 5 ms deadline, about 20 000 requests, with
//! the demo stall window inside the run.
//! The simulation is all-integer and fully deterministic, so these runs
//! must reproduce the golden summaries field for field on every platform
//! and at any `--jobs` setting — the CI matrix sets `NETCUT_TEST_JOBS`
//! to pin different parallelism per leg, and this test honours it.
//!
//! If a deliberate behaviour change alters the expected output,
//! regenerate the golden files with:
//!
//! ```text
//! cargo run -p netcut-cli -- serve --duration 0.5 --json \
//!     > tests/golden/serve_seed11.json
//! cargo run -p netcut-cli -- serve --duration 0.5 --json \
//!     --batch-max 8 --shards 2 > tests/golden/serve_seed11_batch2x.json
//! cargo run -p netcut-cli -- serve --rps 210000 --workers 100 --shards 2 \
//!     --batch-max 8 --deadline-us 5000 --duration 0.1 --json \
//!     > tests/golden/serve_seed11_pool100.json
//! ```
//!
//! and explain the change in the commit message. The CI golden-freshness
//! step runs exactly those commands and fails on any diff, so a stale
//! golden cannot merge. Note: the committed values are calibrated against
//! the vendored offline `rand` stand-in (see `offline/README.md`);
//! building against the real registry `rand` changes the workload stream
//! and requires regeneration.

use netcut_serve::{run_scenario, ScenarioConfig};
use serde_json::Value;

const GOLDEN: &str = include_str!("golden/serve_seed11.json");
const GOLDEN_BATCH2X: &str = include_str!("golden/serve_seed11_batch2x.json");
const GOLDEN_POOL100: &str = include_str!("golden/serve_seed11_pool100.json");

/// Evaluation parallelism for this run: `NETCUT_TEST_JOBS` when set (the
/// CI determinism matrix pins 1 and 8), the library default of 1 otherwise.
fn jobs_from_env() -> usize {
    std::env::var("NETCUT_TEST_JOBS").ok().map_or(1, |v| {
        v.parse().expect("NETCUT_TEST_JOBS must be an integer")
    })
}

/// The scenario the golden files were generated from: CLI defaults with
/// `--duration 0.5`.
fn golden_config() -> ScenarioConfig {
    ScenarioConfig {
        duration_us: 500_000,
        jobs: jobs_from_env(),
        ..ScenarioConfig::default()
    }
}

/// Field-by-field comparison, so a regression names exactly what moved.
fn assert_matches_golden(golden_text: &str, cfg: ScenarioConfig, name: &str) {
    let golden: Value = golden_text.parse().expect("golden file is valid JSON");
    let actual: Value = run_scenario(cfg)
        .to_json()
        .parse()
        .expect("summary renders valid JSON");

    let golden_map = golden.as_object().expect("golden summary is an object");
    let actual_map = actual.as_object().expect("summary is an object");

    let mut mismatches = Vec::new();
    for (key, expected) in golden_map {
        match actual_map.get(key) {
            Some(got) if got == expected => {}
            Some(got) => mismatches.push(format!("{key}: golden {expected} != actual {got}")),
            None => mismatches.push(format!("{key}: missing from actual summary")),
        }
    }
    for key in actual_map.keys() {
        if !golden_map.contains_key(key) {
            mismatches.push(format!("{key}: not in golden file (regenerate it?)"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "summary diverged from tests/golden/{name}:\n  {}\n\
         (see file header for the regeneration command)",
        mismatches.join("\n  ")
    );
}

#[test]
fn serve_run_matches_the_golden_summary() {
    assert_matches_golden(GOLDEN, golden_config(), "serve_seed11.json");
}

#[test]
fn batched_sharded_run_matches_the_golden_summary() {
    assert_matches_golden(
        GOLDEN_BATCH2X,
        ScenarioConfig {
            batch_max: 8,
            shards: 2,
            ..golden_config()
        },
        "serve_seed11_batch2x.json",
    );
}

#[test]
fn many_worker_batched_run_matches_the_golden_summary() {
    assert_matches_golden(
        GOLDEN_POOL100,
        ScenarioConfig {
            deadline_us: 5_000,
            rps: 210_000,
            duration_us: 100_000,
            workers: 100,
            batch_max: 8,
            shards: 2,
            ..golden_config()
        },
        "serve_seed11_pool100.json",
    );
}

#[test]
fn golden_summary_sanity() {
    // Guards against committing a degenerate golden file: the scenario is
    // supposed to be a loaded, ~1000-request run that actually exercises
    // degradation and the fault injector.
    let golden: Value = GOLDEN.parse().expect("golden file is valid JSON");
    let field = |k: &str| golden.get(k).and_then(Value::as_u64).expect(k);
    assert!(
        (900..1100).contains(&field("total")),
        "total = {}",
        field("total")
    );
    assert!(field("degraded") > 0);
    assert!(field("served") > field("total") / 2);
    assert_eq!(
        field("total"),
        field("served") + field("missed") + field("rejected") + field("dropped")
    );
}

#[test]
fn batched_golden_summary_sanity() {
    // The batched/sharded golden must actually exercise the new machinery:
    // two shards, and at least one batch of two or more formed.
    let golden: Value = GOLDEN_BATCH2X.parse().expect("golden file is valid JSON");
    let field = |k: &str| golden.get(k).and_then(Value::as_u64).expect(k);
    assert_eq!(field("shards"), 2);
    assert_eq!(field("batch_max"), 8);
    let batches: Vec<u64> = golden
        .get("batch_histogram")
        .and_then(Value::as_array)
        .expect("batch_histogram")
        .iter()
        .map(|v| v.as_u64().expect("integer histogram"))
        .collect();
    assert!(
        batches[1..].iter().sum::<u64>() > 0,
        "no batches of 2+ in the golden: {batches:?}"
    );
    assert_eq!(
        field("total"),
        field("served") + field("missed") + field("rejected") + field("dropped")
    );
}
