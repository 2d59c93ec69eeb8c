//! Cross-crate properties of the multi-exit refactor: the serve exit
//! table built from a real exploration is monotone (a deeper exit costs
//! at least as much latency and answers with at least as much accuracy),
//! and joint multi-head fine-tuning is bit-identical whether it runs
//! under a 1-job or an 8-job evaluation context — training is serial and
//! seed-driven, so the `--jobs` level above it must be invisible.

use netcut::eval::EvalContext;
use netcut_data::Dataset;
use netcut_serve::{Scenario, ScenarioConfig};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::engine::MiniConfig;
use netcut_train::{
    calibrated_exit_curve, joint_fine_tune, JointOutcome, JointTrainConfig, MultiHeadNet,
    SurrogateRetrainer,
};
use proptest::prelude::*;

#[test]
fn scenario_exit_table_is_monotone_in_latency_and_accuracy() {
    let scenario = Scenario::build(ScenarioConfig::default());
    let ladder = scenario.ladder();
    assert!(ladder.len() >= 2, "ladder needs at least two exits");
    for pair in ladder.rungs().windows(2) {
        assert!(
            pair[1].latency_us > pair[0].latency_us,
            "deeper exit must cost strictly more latency: {} -> {} µs",
            pair[0].latency_us,
            pair[1].latency_us
        );
        assert!(
            pair[1].accuracy >= pair[0].accuracy,
            "deeper exit must not lose accuracy: {} -> {}",
            pair[0].accuracy,
            pair[1].accuracy
        );
    }
    // The integer ppm view the serve summary reports inherits the same
    // ordering.
    for pair in ladder.exit_accuracy_ppm().windows(2) {
        assert!(pair[1] >= pair[0]);
    }
}

#[test]
fn joint_training_yields_a_monotone_calibrated_curve_at_both_seeds() {
    for seed in [11u64, 13] {
        let out = small_joint_run(seed, 1);
        assert_eq!(
            out.calibrated_accuracy,
            calibrated_exit_curve(&out.exit_accuracy)
        );
        for pair in out.calibrated_accuracy.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "seed {seed}: calibrated curve dipped: {:?}",
                out.calibrated_accuracy
            );
        }
    }
}

/// One small joint fine-tune, run inside an [`EvalContext::par_map`] at
/// the given jobs level so the training sits under the same parallel
/// harness the CLI uses.
fn small_joint_run(seed: u64, jobs: usize) -> JointOutcome {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer).with_jobs(jobs);
    // par_map over a two-element batch exercises the worker pool even for
    // the single outcome we keep.
    let mut outcomes = ctx.par_map(vec![seed, seed + 100], |_, s| {
        let cfg = MiniConfig {
            conv_blocks: 3,
            width: 6,
            seed: s,
        };
        let (train_data, test_data) = Dataset::hands(120, s).split(0.2);
        let mut net = MultiHeadNet::build(&cfg, 5);
        joint_fine_tune(
            &mut net,
            &train_data,
            &test_data,
            &JointTrainConfig {
                epochs: 2,
                seed: s,
                ..JointTrainConfig::default()
            },
        )
    });
    outcomes.swap_remove(0)
}

/// Bit patterns of every float a [`JointOutcome`] carries, so equality is
/// bit-identity rather than float comparison.
fn bits(out: &JointOutcome) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    (
        out.head_losses.iter().map(|l| l.to_bits()).collect(),
        out.exit_accuracy.iter().map(|a| a.to_bits()).collect(),
        out.calibrated_accuracy
            .iter()
            .map(|a| a.to_bits())
            .collect(),
    )
}

#[test]
fn multi_head_training_is_bit_identical_at_jobs_1_and_8() {
    for seed in [11u64, 13] {
        let serial = small_joint_run(seed, 1);
        let parallel = small_joint_run(seed, 8);
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "seed {seed}: joint fine-tune drifted between --jobs 1 and --jobs 8"
        );
    }
}

proptest! {
    /// The calibrated deployment curve is a running maximum: monotone
    /// nondecreasing, pointwise at least the raw curve, and never above
    /// the raw maximum seen so far.
    #[test]
    fn calibrated_curve_is_a_running_maximum(raw in prop::collection::vec(0.0f64..1.0, 1..16)) {
        let cal = calibrated_exit_curve(&raw);
        prop_assert_eq!(cal.len(), raw.len());
        let mut best = f64::NEG_INFINITY;
        for (c, r) in cal.iter().zip(&raw) {
            best = best.max(*r);
            prop_assert!(*c >= *r);
            prop_assert_eq!(*c, best);
        }
        for pair in cal.windows(2) {
            prop_assert!(pair[1] >= pair[0]);
        }
    }
}
