//! Determinism and serialization contracts: every result in the
//! reproduction must be bit-identical across runs given the same seeds,
//! and every reportable artifact must round-trip through JSON.

use netcut::eval::EvalContext;
use netcut::explore::off_the_shelf_with;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

fn session() -> Session {
    Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
}

#[test]
fn measurements_are_bit_identical_across_runs() {
    let net = zoo::densenet121();
    let a = session().measure(&net, 7);
    let b = session().measure(&net, 7);
    assert_eq!(a, b);
    let ta = session().profile(&net, 7);
    let tb = session().profile(&net, 7);
    assert_eq!(ta.end_to_end_ms(), tb.end_to_end_ms());
    assert_eq!(ta.total_layer_time_ms(), tb.total_layer_time_ms());
}

#[test]
fn netcut_outcome_is_deterministic() {
    let sources = zoo::paper_networks();
    let retrainer = SurrogateRetrainer::paper();
    // Each run gets its own context: a shared cache would answer the
    // second run from the first.
    let run = || {
        let s = session();
        let ctx = EvalContext::new(&s, &retrainer);
        let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
        NetCut::new(&estimator, &retrainer).run_with(&sources, 0.9, &ctx)
    };
    let a = run();
    let b = run();
    assert_eq!(a.proposals.len(), b.proposals.len());
    for (pa, pb) in a.proposals.iter().zip(&b.proposals) {
        assert_eq!(pa, pb);
    }
}

#[test]
fn network_serializes_and_round_trips() {
    let net = zoo::mobilenet_v2(1.0);
    let json = serde_json::to_string(&net).expect("network serializes");
    let back: Network = serde_json::from_str(&json).expect("network deserializes");
    assert_eq!(back, net);
    netcut_verify::validate(&back).expect("deserialized network is valid");
    assert_eq!(back.stats(), net.stats());
}

#[test]
fn trimmed_network_round_trips() {
    let trn = zoo::inception_v3()
        .cut_blocks(5)
        .expect("valid cut")
        .with_head(&HeadSpec::default());
    let json = serde_json::to_string(&trn).expect("TRN serializes");
    let back: Network = serde_json::from_str(&json).expect("TRN deserializes");
    assert_eq!(back.cutpoint(), 5);
    assert_eq!(back.base_name(), "inception_v3");
    assert_eq!(
        session().measure(&back, 9).mean_ms,
        session().measure(&trn, 9).mean_ms
    );
}

#[test]
fn exploration_points_round_trip_as_json() {
    let (s, retrainer) = (session(), SurrogateRetrainer::paper());
    let shelf = off_the_shelf_with(
        &EvalContext::new(&s, &retrainer),
        &[zoo::mobilenet_v1(0.25)],
        &HeadSpec::default(),
        1,
    );
    let json = serde_json::to_string(&shelf.points).expect("points serialize");
    let back: Vec<netcut::CandidatePoint> =
        serde_json::from_str(&json).expect("points deserialize");
    assert_eq!(back, shelf.points);
}

#[test]
fn trace_is_deterministic_and_serializable() {
    let net = zoo::squeezenet();
    let a = session().trace(&net);
    let b = session().trace(&net);
    assert_eq!(a.total_ms, b.total_ms);
    let json = serde_json::to_string(&a).expect("trace serializes");
    let back: netcut_sim::Trace = serde_json::from_str(&json).expect("trace deserializes");
    assert_eq!(back.kernels.len(), a.kernels.len());
    assert_eq!(back.total_ms, a.total_ms);
}
