//! Golden-trace regression test for the closed recalibration loop.
//!
//! `tests/golden/serve_seed11_recalib.json` is the committed summary of
//! the seeded drift scenario: deadline 900 µs, 2000 rps, 0.5 s, seed 11,
//! demo faults off, a +30% thermal-throttle window over 25%–85% of the
//! run, and the control loop closed with a 150 ms cooldown
//! (`--no-faults --thermal-ppm 1300000 --recalibrate
//! --recalib-cooldown-us 150000`). The run recalibrates mid-stream and
//! hot-swaps a new ladder generation, so this golden locks down the
//! whole loop — refit scale, swap count, generation tags, and the OBS005
//! alert — field for field at any `NETCUT_TEST_JOBS`.
//!
//! `tests/golden/serve_seed11_recalib_batch.json` closes the same loop
//! with dynamic batching on: two shards, `--batch-max 8` and a 2 ms
//! deadline, so batches of up to six form on both sides of the one
//! hot-swap. Batch admission is tabulated per ladder, and this golden is
//! what shows a swapped-in ladder admitting from its own lists rather than
//! from its predecessor's.
//!
//! If a deliberate behaviour change alters the expected output,
//! regenerate the golden files with:
//!
//! ```text
//! cargo run -p netcut-cli -- serve --duration 0.5 --json --no-faults \
//!     --thermal-ppm 1300000 --recalibrate --recalib-cooldown-us 150000 \
//!     > tests/golden/serve_seed11_recalib.json
//! cargo run -p netcut-cli -- serve --duration 0.5 --json --batch-max 8 \
//!     --shards 2 --no-faults --thermal-ppm 1300000 --recalibrate \
//!     --recalib-cooldown-us 150000 --deadline-us 2000 \
//!     > tests/golden/serve_seed11_recalib_batch.json
//! ```
//!
//! and explain the change in the commit message. The CI golden-freshness
//! step runs exactly those commands and fails on any diff. The committed
//! values are calibrated against the vendored offline `rand` stand-in
//! (see `offline/README.md`).

use netcut_serve::{run_scenario, Scenario, ScenarioConfig};
use serde_json::Value;

const GOLDEN: &str = include_str!("golden/serve_seed11_recalib.json");
const GOLDEN_BATCH: &str = include_str!("golden/serve_seed11_recalib_batch.json");
const GOLDEN_BASELINE: &str = include_str!("golden/serve_seed11.json");
const GOLDEN_TIMELINE: &str = include_str!("golden/serve_seed11_timeline.jsonl");

/// Evaluation parallelism for this run: `NETCUT_TEST_JOBS` when set (the
/// CI determinism matrix pins 1 and 8), the library default of 1 otherwise.
fn jobs_from_env() -> usize {
    std::env::var("NETCUT_TEST_JOBS").ok().map_or(1, |v| {
        v.parse().expect("NETCUT_TEST_JOBS must be an integer")
    })
}

/// The scenario the golden file was generated from (see module docs).
fn golden_config() -> ScenarioConfig {
    ScenarioConfig {
        duration_us: 500_000,
        jobs: jobs_from_env(),
        faults: false,
        thermal_ppm: 1_300_000,
        recalibrate: true,
        recalib_cooldown_us: 150_000,
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
fn recalibrating_run_matches_the_golden_summary() {
    assert_matches_golden(GOLDEN, golden_config(), "serve_seed11_recalib.json");
}

#[test]
fn batched_recalibrating_run_matches_the_golden_summary() {
    assert_matches_golden(
        GOLDEN_BATCH,
        ScenarioConfig {
            deadline_us: 2_000,
            batch_max: 8,
            shards: 2,
            ..golden_config()
        },
        "serve_seed11_recalib_batch.json",
    );
}

#[test]
fn batched_recalib_golden_sanity() {
    // The golden must batch on both sides of a swap to pin per-ladder
    // admission: at least one hot-swap, and batches past size two.
    let golden: Value = GOLDEN_BATCH.parse().expect("golden file is valid JSON");
    assert!(golden["recalibrations"].as_u64().expect("recalibrations") >= 1);
    let batches: Vec<u64> = golden["batch_histogram"]
        .as_array()
        .expect("batch histogram")
        .iter()
        .map(|v| v.as_u64().expect("integer count"))
        .collect();
    assert!(
        batches.iter().skip(2).any(|&n| n > 0),
        "no batch of three or more: {batches:?}"
    );
}

#[test]
fn recalib_golden_sanity() {
    // Guards against committing a golden that never exercised the loop:
    // the run must have swapped at least once, reached generation ≥ 1,
    // fired OBS005, and reported one scale factor per swap.
    let golden: Value = GOLDEN.parse().expect("golden file is valid JSON");
    let field = |k: &str| golden.get(k).and_then(Value::as_u64).expect(k);
    assert!(field("recalibrations") >= 1);
    let generations: Vec<u64> = golden["generations"]
        .as_array()
        .expect("generations")
        .iter()
        .map(|v| v.as_u64().expect("integer generation"))
        .collect();
    assert_eq!(generations.iter().sum::<u64>(), field("recalibrations"));
    assert_eq!(
        golden["recalib_scale_ppm"]
            .as_array()
            .expect("scales")
            .len() as u64,
        field("recalibrations")
    );
    assert!(
        golden["alerts"]["OBS005"].as_u64().expect("OBS005 count") >= 1,
        "every swap must be an OBS005 alert"
    );
    assert_eq!(
        field("total"),
        field("served") + field("missed") + field("rejected") + field("dropped")
    );
}

#[test]
fn open_loop_goldens_are_untouched_by_the_recalibration_path() {
    // The closed-loop machinery must be invisible when `--recalibrate` is
    // off: the pre-existing seed-11 goldens reproduce *byte*-identically
    // (stronger than the field-by-field checks in serve_golden.rs — the
    // summary and timeline renderers must not even reorder or add
    // fields for open-loop runs).
    let baseline = run_scenario(ScenarioConfig {
        duration_us: 500_000,
        jobs: jobs_from_env(),
        ..ScenarioConfig::default()
    });
    assert_eq!(
        baseline.to_json(),
        GOLDEN_BASELINE.trim_end(),
        "open-loop summary must stay byte-identical to tests/golden/serve_seed11.json"
    );

    let (_, timeline) = Scenario::build(ScenarioConfig {
        duration_us: 500_000,
        jobs: jobs_from_env(),
        batch_max: 8,
        shards: 2,
        ..ScenarioConfig::default()
    })
    .run_full();
    assert_eq!(
        timeline.to_jsonl(),
        GOLDEN_TIMELINE,
        "open-loop timeline must stay byte-identical to tests/golden/serve_seed11_timeline.jsonl"
    );
}
