//! Golden output of the paper pipeline.
//!
//! `tests/golden/sweep_seed42.json` is what `netcut-cli sweep --json`
//! prints: the exhaustive blockwise sweep of the seven paper networks on
//! the Xavier Int8 model at seed 42. `tests/golden/explore_0.9ms.json` is
//! what `netcut-cli explore --json` prints: Algorithm 1's proposals at the
//! 0.9 ms deadline. Measurement, the evaluation cache keys and the
//! retraining surrogate all feed these bytes, so both documents are
//! recomputed here through the library — at `NETCUT_TEST_JOBS` workers,
//! which the CI matrix pins to 1 and 8 — and compared byte for byte.
//!
//! If a deliberate behaviour change alters the output, regenerate with:
//!
//! ```text
//! cargo run -p netcut-cli -- sweep --json > tests/golden/sweep_seed42.json
//! cargo run -p netcut-cli -- explore --json > tests/golden/explore_0.9ms.json
//! ```
//!
//! and explain the change in the commit message. The CI golden-freshness
//! step runs exactly those commands and fails on any diff.

use netcut::eval::EvalContext;
use netcut::explore::exhaustive_blockwise_with;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

const GOLDEN_SWEEP: &str = include_str!("golden/sweep_seed42.json");
const GOLDEN_EXPLORE: &str = include_str!("golden/explore_0.9ms.json");

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

#[test]
fn explore_json_matches_the_golden_bytes() {
    let sources = zoo::paper_networks();
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer).with_jobs(jobs_from_env());
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 42);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.9, &ctx);
    let printed = serde_json::to_string_pretty(&outcome.proposals).expect("serializable") + "\n";
    assert_eq!(printed, GOLDEN_EXPLORE);
}
