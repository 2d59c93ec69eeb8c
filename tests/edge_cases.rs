//! Edge-case behaviour across crate boundaries: degenerate networks, empty
//! inputs, extreme configurations — the corners a downstream user will hit
//! eventually.

use netcut::eval::EvalContext;
use netcut::netcut::NetCut;
use netcut::pareto::{best_meeting_deadline, pareto_frontier};
use netcut::removal::blockwise_trns;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{GraphError, HeadSpec, NetworkBuilder, Padding, Shape};
use netcut_hand::LoopBudget;
use netcut_sim::{fuse_network, DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

fn session() -> Session {
    Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
}

#[test]
fn single_node_network_is_measurable() {
    let mut b = NetworkBuilder::new("tiny", Shape::map(1, 4, 4));
    let x = b.input();
    let c = b.conv(x, 1, 1, 1, Padding::Same, "c");
    let net = b.finish(c).expect("valid");
    let m = session().measure(&net, 1);
    assert!(m.mean_ms > 0.0 && m.mean_ms < 0.1);
    assert_eq!(fuse_network(&net).len(), 1);
}

#[test]
fn blockless_network_rejects_cuts() {
    let mut b = NetworkBuilder::new("flat", Shape::map(1, 4, 4));
    let x = b.input();
    let c = b.conv(x, 2, 3, 1, Padding::Same, "c");
    let net = b.finish(c).expect("valid");
    assert!(matches!(
        net.cut_blocks(0),
        Err(GraphError::InvalidCutpoint { .. })
    ));
    assert!(blockwise_trns(&net, &HeadSpec::default()).is_empty());
}

#[test]
fn valid_padding_collapse_to_empty_map_is_priced_as_overhead() {
    // A Valid conv larger than its input produces a 0×0 map; the simulator
    // must not divide by zero and charges only launch overhead.
    let mut b = NetworkBuilder::new("collapse", Shape::map(1, 3, 3));
    let x = b.input();
    let c = b.conv(x, 4, 5, 1, Padding::Valid, "c");
    let net = b.finish(c).expect("builds");
    assert_eq!(net.output_shape().elements(), 0);
    let m = session().measure(&net, 2);
    assert!(m.mean_ms.is_finite() && m.mean_ms > 0.0);
}

#[test]
fn netcut_with_no_sources_selects_nothing() {
    let s = session();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let estimator = ProfilerEstimator::profile_with(&ctx, &[], 1);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&[], 0.9, &ctx);
    assert!(outcome.proposals.is_empty());
    assert!(outcome.selected().is_none());
    assert_eq!(outcome.exploration_hours, 0.0);
}

#[test]
fn impossible_deadline_still_returns_proposals() {
    // At 1 µs nothing fits; NetCut proposes the deepest cut per family and
    // the selection (which requires a met estimate) is empty.
    let s = session();
    let sources = netcut_graph::zoo::paper_networks();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.001, &ctx);
    assert_eq!(outcome.proposals.len(), sources.len());
    assert!(outcome.selected().is_none());
    for p in &outcome.proposals {
        let family = sources
            .iter()
            .find(|n| n.name() == p.family)
            .expect("family exists");
        assert_eq!(
            p.cutpoint,
            family.num_blocks() - 1,
            "{} not fully cut",
            p.name
        );
    }
}

#[test]
fn pareto_of_empty_and_singleton_sets() {
    assert!(pareto_frontier(&[]).is_empty());
    assert!(best_meeting_deadline(&[], 1.0).is_none());
    let single = vec![netcut::CandidatePoint {
        name: "only".into(),
        family: "only".into(),
        cutpoint: 0,
        kept_layers: 1,
        layers_removed: 0,
        latency_ms: 0.5,
        estimated_ms: None,
        accuracy: 0.8,
        train_hours: 0.0,
    }];
    assert_eq!(pareto_frontier(&single), vec![0]);
}

#[test]
fn zero_jitter_device_measures_exactly() {
    let mut device = DeviceModel::jetson_xavier();
    device.jitter_rel = 0.0;
    let s = Session::new(device, Precision::Int8);
    let net = netcut_graph::zoo::mobilenet_v1(0.25);
    let m = s.measure(&net, 5);
    assert_eq!(m.std_ms, 0.0);
    assert!((m.mean_ms - s.ideal_latency_ms(&net)).abs() < 1e-12);
}

#[test]
fn extreme_budgets_behave() {
    let mut b = LoopBudget::paper();
    // A classifier with zero latency achieves the most frames possible.
    let max_frames = b.decisions_achieved(0.0);
    assert!(max_frames >= b.decisions_required);
    // Requiring absurd decision counts drives the visual budget negative,
    // and nothing sustains it.
    b.decisions_required = 10_000;
    assert!(b.visual_budget_ms() < 0.0);
    assert!(!b.sustains(0.0001));
}

#[test]
fn head_with_no_hidden_layers_works_end_to_end() {
    let head = HeadSpec {
        hidden: vec![],
        classes: 5,
    };
    let net = netcut_graph::zoo::mobilenet_v1(0.25)
        .cut_blocks(3)
        .expect("valid")
        .with_head(&head);
    assert_eq!(net.output_shape(), Shape::vector(5));
    let m = session().measure(&net, 7);
    assert!(m.mean_ms > 0.0);
    let retrained = netcut_train::SurrogateRetrainer::paper();
    use netcut_train::Retrainer;
    assert!(retrained.retrain(&net).accuracy > 0.3);
}

#[test]
fn many_class_head_scales() {
    let head = HeadSpec::with_classes(1000);
    let net = netcut_graph::zoo::squeezenet().backbone().with_head(&head);
    assert_eq!(net.output_shape(), Shape::vector(1000));
    netcut_verify::validate(&net).expect("valid with wide head");
}
