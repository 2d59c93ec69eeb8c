//! Integration tests asserting the paper's headline claims hold on the
//! simulated testbed — the quantitative contract of the reproduction.

use netcut::eval::EvalContext;
use netcut::explore::{exhaustive_blockwise_with, off_the_shelf_with};
use netcut::netcut::NetCut;
use netcut::pareto::{best_meeting_deadline, frontier_expansion, relative_improvement};
use netcut::removal::{blockwise_candidate_count, blockwise_trns, iterative_trns};
use netcut_estimate::{LatencyEstimator, ProfilerEstimator};
use netcut_graph::{zoo, HeadSpec};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::{SurrogateRetrainer, TransferModel};

const DEADLINE_MS: f64 = 0.9;

fn session() -> Session {
    Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
}

#[test]
fn fig1_mobilenet_v1_05_is_the_off_the_shelf_selection() {
    // §III-C: "to meet the 0.9 ms deadline, MobileNetV1 (0.5) can achieve
    // an accuracy of 0.81".
    let (s, retrainer) = (session(), SurrogateRetrainer::paper());
    let shelf = off_the_shelf_with(
        &EvalContext::new(&s, &retrainer),
        &zoo::paper_networks(),
        &HeadSpec::default(),
        1,
    );
    let best = best_meeting_deadline(&shelf.points, DEADLINE_MS).expect("a network meets 0.9 ms");
    assert_eq!(best.family, "mobilenet_v1_0.50");
    assert!(
        (best.accuracy - 0.81).abs() < 0.01,
        "accuracy {}",
        best.accuracy
    );
    assert!(best.latency_ms < 0.45);
    // There is an accuracy gap: slower nets are clearly better.
    let best_overall = shelf
        .points
        .iter()
        .map(|p| p.accuracy)
        .fold(f64::MIN, f64::max);
    assert!(best_overall - best.accuracy > 0.05, "no visible gap");
}

#[test]
fn search_space_is_about_148_trns() {
    // §IV-B: blockwise removal over the 7 networks yields 148 candidates
    // (145 with our block inventory).
    let count = blockwise_candidate_count(zoo::paper_networks().iter());
    assert!((140..=155).contains(&count), "count = {count}");
}

#[test]
fn fig4_blockwise_loses_less_than_003_accuracy() {
    // §IV-A: removing whole blocks instead of individual layers costs
    // < 0.03 accuracy for InceptionV3.
    let source = zoo::inception_v3();
    let head = HeadSpec::default();
    let model = TransferModel::paper();
    let source_layers = source.weighted_layer_count();
    let iterative = iterative_trns(&source, &head);
    for block_trn in blockwise_trns(&source, &head) {
        let removed = source_layers - block_trn.weighted_layer_count();
        let block_acc = model.accuracy(&block_trn);
        let best_iterative = iterative
            .iter()
            .filter(|t| source_layers - t.weighted_layer_count() >= removed)
            .map(|t| model.accuracy(t))
            .fold(f64::MIN, f64::max);
        assert!(
            best_iterative - block_acc < 0.03,
            "block {} loses {:.3}",
            block_trn.name(),
            best_iterative - block_acc
        );
    }
}

#[test]
fn fig7_trns_expand_the_pareto_frontier() {
    // §IV-C: max relative improvement ≈ 10.43 %, with many TRNs improving
    // on the off-the-shelf frontier.
    let s = session();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let sources = zoo::paper_networks();
    let head = HeadSpec::default();
    let sweep = exhaustive_blockwise_with(&ctx, &sources, &head, 1);
    let shelf = off_the_shelf_with(&ctx, &sources, &head, 1);
    let expansion = frontier_expansion(&sweep.points, &shelf.points);
    assert!(
        (0.08..=0.14).contains(&expansion.max_improvement),
        "max improvement {:.3}",
        expansion.max_improvement
    );
    assert!(expansion.improving_points > 30);
    // The flagship example: one block off MobileNetV1 (0.5) ≈ +10.43 %.
    let cut1 = sweep
        .points
        .iter()
        .find(|p| p.name == "mobilenet_v1_0.50/cut1")
        .expect("cut1 exists");
    let improvement = relative_improvement(cut1, &shelf.points).expect("baseline exists");
    assert!(
        (0.09..=0.12).contains(&improvement),
        "cut1 improvement {improvement:.4}"
    );
}

#[test]
fn fig9_estimator_quality_ordering() {
    // §V-C: profiler and SVR errors are small single-digit percentages;
    // linear regression is several times worse. Checked here with the
    // profiler only (the SVR study lives in the fig09 harness); the
    // profiler must stay under 5 % on every family's mid cut.
    let s = session();
    let sources = zoo::paper_networks();
    let estimator = ProfilerEstimator::profile_with(&s, &sources, 3);
    let head = HeadSpec::default();
    for source in &sources {
        let trn = source
            .cut_blocks(source.num_blocks() / 2)
            .expect("mid cut valid")
            .with_head(&head);
        let predicted = estimator.estimate_ms(&trn);
        let truth = s.measure(&trn, 77).mean_ms;
        let rel = (predicted - truth).abs() / truth;
        assert!(
            rel < 0.08,
            "{}: profiler off by {:.1} %",
            trn.name(),
            rel * 100.0
        );
    }
}

#[test]
fn fig10_netcut_selects_a_trimmed_resnet_with_27x_class_speedup() {
    // §V-C: NetCut retrains a handful of networks instead of 148 and picks
    // a trimmed ResNet that beats the off-the-shelf selection.
    let s = session();
    let sources = zoo::paper_networks();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, DEADLINE_MS, &ctx);
    let selected = outcome.selected().expect("a real-time TRN exists");
    assert_eq!(selected.family, "resnet50");
    assert!(selected.cutpoint > 0);
    // Accuracy improvement over the off-the-shelf selection in the paper's
    // 2–6 % band.
    let shelf = off_the_shelf_with(&ctx, &sources, &HeadSpec::default(), 1);
    let best_shelf = best_meeting_deadline(&shelf.points, DEADLINE_MS).expect("exists");
    let improvement = selected.accuracy / best_shelf.accuracy - 1.0;
    assert!(
        (0.02..=0.08).contains(&improvement),
        "improvement {improvement:.3}"
    );
    // Exploration speedup in the paper's order of magnitude (27×).
    let exhaustive = exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), 1);
    let speedup = exhaustive.total_train_hours / outcome.exploration_hours;
    assert!(
        (15.0..=60.0).contains(&speedup),
        "speedup {speedup:.1} outside the expected band"
    );
}

#[test]
fn exploration_hours_match_paper_scale() {
    // §V-C: 183 h for the exhaustive sweep on the K20m-class trainer.
    let (s, retrainer) = (session(), SurrogateRetrainer::paper());
    let exhaustive = exhaustive_blockwise_with(
        &EvalContext::new(&s, &retrainer),
        &zoo::paper_networks(),
        &HeadSpec::default(),
        1,
    );
    assert!(
        (120.0..=250.0).contains(&exhaustive.total_train_hours),
        "{} h",
        exhaustive.total_train_hours
    );
}
