//! Cross-crate integration tests: the full pipeline wired together in ways
//! the per-crate unit tests cannot exercise.

use netcut::eval::EvalContext;
use netcut::explore::exhaustive_blockwise_with;
use netcut::netcut::NetCut;
use netcut::removal::blockwise_trns;
use netcut_estimate::{AnalyticalEstimator, ProfilerEstimator, SourceInfo, SvrParams};
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_sim::{fuse_network, DeviceModel, Precision, Session};
use netcut_train::{Retrainer, SurrogateRetrainer};
use std::collections::HashMap;

fn session() -> Session {
    Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
}

#[test]
fn every_blockwise_trn_of_every_family_is_deployable() {
    // Cut → head → fuse → measure must work for all 145 TRNs.
    let s = session();
    let head = HeadSpec::default();
    for source in zoo::paper_networks() {
        for trn in blockwise_trns(&source, &head) {
            netcut_verify::validate(&trn).expect("TRN is a valid graph");
            let kernels = fuse_network(&trn);
            assert!(!kernels.is_empty());
            let m = s.measure(&trn, 5);
            assert!(m.mean_ms > 0.0 && m.mean_ms.is_finite());
        }
    }
}

#[test]
fn netcut_with_both_estimator_kinds_agrees_on_the_family() {
    let s = session();
    let sources = zoo::paper_networks();
    let head = HeadSpec::default();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    // Profiler estimator.
    let profiler = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    // Analytical estimator trained on a handful of measured TRNs.
    let mut source_latency = HashMap::new();
    let mut train_trns: Vec<Network> = Vec::new();
    let mut train_lat: Vec<f64> = Vec::new();
    for source in &sources {
        let mut adapted = source.backbone().with_head(&head);
        adapted.rename(source.name());
        source_latency.insert(source.name().to_owned(), s.measure(&adapted, 3).mean_ms);
        for k in [0, source.num_blocks() / 2, source.num_blocks() - 1] {
            let trn = source.cut_blocks(k).expect("valid cut").with_head(&head);
            train_lat.push(s.measure(&trn, 4).mean_ms);
            train_trns.push(trn);
        }
    }
    let info = SourceInfo::new(&sources, &source_latency);
    let samples: Vec<(&Network, f64)> = train_trns.iter().zip(train_lat.iter().copied()).collect();
    let svr = AnalyticalEstimator::fit(&samples, &info, &SvrParams::paper());

    let a = NetCut::new(&profiler, &retrainer).run_with(&sources, 0.9, &ctx);
    let b = NetCut::new(&svr, &retrainer).run_with(&sources, 0.9, &ctx);
    let fam_a = &a.selected().expect("selection").family;
    let fam_b = &b.selected().expect("selection").family;
    assert_eq!(fam_a, fam_b, "estimators disagree on the winning family");
}

#[test]
fn netcut_proposals_track_their_estimates() {
    // Measured latency of each proposal must be within 15 % of the
    // estimate that justified it (the estimator-quality contract NetCut
    // depends on).
    let s = session();
    let sources = zoo::paper_networks();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.9, &ctx);
    for p in &outcome.proposals {
        let est = p.estimated_ms.expect("proposal carries its estimate");
        let rel = (est - p.latency_ms).abs() / p.latency_ms;
        assert!(
            rel < 0.15,
            "{}: estimate {est:.3} vs measured {:.3}",
            p.name,
            p.latency_ms
        );
    }
}

#[test]
fn retrainer_is_consistent_between_exploration_paths() {
    // The same TRN must get the same accuracy whether reached by NetCut or
    // by the exhaustive sweep (determinism across code paths). Each path
    // gets its own context, so the sweep cannot answer from NetCut's
    // retrain cache.
    let s = session();
    let sources = zoo::paper_networks();
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&s, &retrainer);
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.9, &ctx);
    let sweep = exhaustive_blockwise_with(
        &EvalContext::new(&s, &retrainer),
        &sources,
        &HeadSpec::default(),
        1,
    );
    for p in &outcome.proposals {
        if let Some(match_point) = sweep.points.iter().find(|q| q.name == p.name) {
            assert!(
                (match_point.accuracy - p.accuracy).abs() < 1e-12,
                "{}: {} vs {}",
                p.name,
                match_point.accuracy,
                p.accuracy
            );
        }
    }
}

#[test]
fn quantization_precision_affects_latency_ordering() {
    // INT8 < FP16 < FP32 end to end for a compute-heavy network.
    let net = zoo::resnet50();
    let device = DeviceModel::jetson_xavier();
    let latencies: Vec<f64> = [Precision::Int8, Precision::Fp16, Precision::Fp32]
        .into_iter()
        .map(|p| Session::new(device.clone(), p).measure(&net, 9).mean_ms)
        .collect();
    assert!(latencies[0] < latencies[1]);
    assert!(latencies[1] < latencies[2]);
}

#[test]
fn retrainer_rewards_shallower_cuts_of_the_same_family() {
    let retrainer = SurrogateRetrainer::paper();
    let head = HeadSpec::default();
    let net = zoo::inception_v3();
    let shallow = retrainer.retrain(&net.cut_blocks(1).expect("valid").with_head(&head));
    let deep = retrainer.retrain(&net.cut_blocks(9).expect("valid").with_head(&head));
    assert!(shallow.accuracy > deep.accuracy);
    assert!(shallow.train_hours > deep.train_hours);
}
