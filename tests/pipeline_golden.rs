//! Golden output of the paper pipeline.
//!
//! `tests/golden/sweep_seed42.json` is what `netcut-cli sweep --json`
//! prints: the exhaustive blockwise sweep of the seven paper networks on
//! the Xavier Int8 model at seed 42. `tests/golden/explore_0.9ms.json` is
//! what `netcut-cli explore --json` prints: Algorithm 1's proposals at the
//! 0.9 ms deadline. `tests/golden/explore_extended_0.5ms.json` is the same
//! over the extended zoo's ten families at 0.5 ms, where Inception-v3 runs
//! out of blocks above the deadline. Measurement, the evaluation cache
//! keys, the profiler's estimates and the retraining surrogate all feed
//! these bytes, so every document is recomputed here through the library —
//! at `NETCUT_TEST_JOBS` workers, which the CI matrix pins to 1 and 8 — and
//! compared byte for byte.
//!
//! If a deliberate behaviour change alters the output, regenerate with:
//!
//! ```text
//! cargo run -p netcut-cli -- sweep --json > tests/golden/sweep_seed42.json
//! cargo run -p netcut-cli -- explore --json > tests/golden/explore_0.9ms.json
//! cargo run -p netcut-cli -- explore --extended --deadline 0.5 --json \
//!     > tests/golden/explore_extended_0.5ms.json
//! ```
//!
//! and explain the change in the commit message. The CI golden-freshness
//! step runs exactly those commands and fails on any diff.

use netcut::eval::EvalContext;
use netcut::explore::exhaustive_blockwise_with;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

const GOLDEN_SWEEP: &str = include_str!("golden/sweep_seed42.json");
const GOLDEN_EXPLORE: &str = include_str!("golden/explore_0.9ms.json");
const GOLDEN_EXPLORE_EXTENDED: &str = include_str!("golden/explore_extended_0.5ms.json");

/// Evaluation parallelism for this run: `NETCUT_TEST_JOBS` when set, 1
/// otherwise.
fn jobs_from_env() -> usize {
    std::env::var("NETCUT_TEST_JOBS").ok().map_or(1, |v| {
        v.parse().expect("NETCUT_TEST_JOBS must be an integer")
    })
}

#[test]
fn sweep_json_matches_the_golden_bytes() {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer).with_jobs(jobs_from_env());
    let sweep = exhaustive_blockwise_with(&ctx, &zoo::paper_networks(), &HeadSpec::default(), 42);
    // What the CLI prints under `--json`: pretty JSON and a newline.
    let printed = serde_json::to_string_pretty(&sweep.points).expect("serializable") + "\n";
    assert_eq!(printed, GOLDEN_SWEEP);
}

/// What `netcut-cli explore [--extended] --deadline <d> --json` prints.
fn explore_json(sources: &[Network], deadline_ms: f64) -> String {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer).with_jobs(jobs_from_env());
    let estimator = ProfilerEstimator::profile_with(&ctx, sources, 42);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(sources, deadline_ms, &ctx);
    serde_json::to_string_pretty(&outcome.proposals).expect("serializable") + "\n"
}

#[test]
fn explore_json_matches_the_golden_bytes() {
    assert_eq!(explore_json(&zoo::paper_networks(), 0.9), GOLDEN_EXPLORE);
}

#[test]
fn extended_explore_json_matches_the_golden_bytes() {
    assert_eq!(
        explore_json(&zoo::extended_networks(), 0.5),
        GOLDEN_EXPLORE_EXTENDED
    );
}
