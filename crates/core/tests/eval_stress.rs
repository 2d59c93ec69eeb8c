//! Concurrency stress tests for [`netcut::eval::EvalCaches`]: many threads
//! hammering the sharded memo cache with colliding and distinct keys must
//! produce bit-identical results and exact entry counts.
//!
//! The networks are deliberately tiny so the whole file stays tractable
//! under `cargo miri test` (the CI nightly job runs exactly this target).

use netcut::eval::{EvalCaches, EvalContext};
use netcut::CandidatePoint;
use netcut_graph::{HeadSpec, Network, NetworkBuilder, Padding, Shape};
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::{
    Retrainer, SurrogateRetrainer, TrainingCostModel, TransferModel, TransferProfile,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A three-block toy backbone small enough for miri.
fn tiny_net() -> Network {
    let mut b = NetworkBuilder::new("tiny_stress", Shape::map(3, 8, 8));
    let mut x = b.input();
    for (i, channels) in [8usize, 16, 16].iter().enumerate() {
        let name = format!("b{i}");
        b.begin_block(&name);
        x = b.conv_bn_relu(x, *channels, 3, 1, Padding::Same, &name);
        b.end_block(x).expect("non-empty block");
    }
    b.finish(x).expect("tiny net is valid")
}

fn session() -> Session {
    Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
}

/// A retrainer whose accuracy surrogate knows the toy family (the paper
/// calibration only covers the zoo).
fn tiny_retrainer(source: &Network) -> SurrogateRetrainer {
    let mut profiles = HashMap::new();
    profiles.insert(
        source.name().to_owned(),
        TransferProfile {
            base_accuracy: 0.8,
            drop_coeff: 0.3,
            drop_exponent: 1.5,
            source_layers: source.weighted_layer_count(),
        },
    );
    SurrogateRetrainer::new(
        TransferModel::from_profiles(profiles, 0.004, 7),
        TrainingCostModel::paper(),
    )
}

/// Threads racing on the *same* key: every thread gets the identical
/// measurement, and the cache ends up with exactly one entry (racing
/// computes are allowed, racing inserts must collapse).
#[test]
fn colliding_keys_collapse_to_one_entry() {
    let s = session();
    let r = SurrogateRetrainer::paper();
    let net = tiny_net();
    let caches = Arc::new(EvalCaches::new());

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let caches = Arc::clone(&caches);
                let (s, r, net) = (&s, &r, &net);
                scope.spawn(move || {
                    let ctx = EvalContext::new(s, r).with_shared_caches(caches);
                    (0..4).map(|_| ctx.measure(net, 7)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let first = results[0][0];
    for per_thread in &results {
        for m in per_thread {
            assert_eq!(*m, first, "racing threads must agree bit-for-bit");
        }
    }
    let stats = caches.stats();
    assert_eq!(stats.entries, 1, "one key -> one entry, even under races");
    // 32 lookups total; at most one compute per thread can race the rest.
    assert_eq!(stats.hits + stats.misses, 32);
    assert!(
        stats.misses >= 1 && stats.misses <= 8,
        "misses: {}",
        stats.misses
    );
}

/// Distinct seeds are distinct keys: no false sharing between them, and a
/// second pass over the same seeds is pure hits.
#[test]
fn distinct_seeds_get_distinct_entries() {
    let s = session();
    let r = SurrogateRetrainer::paper();
    let net = tiny_net();
    let ctx = EvalContext::new(&s, &r);

    let first: Vec<_> = (0..6u64).map(|seed| ctx.measure(&net, seed)).collect();
    assert_eq!(ctx.stats().entries, 6);
    assert_eq!(ctx.stats().misses, 6);

    let second: Vec<_> = (0..6u64).map(|seed| ctx.measure(&net, seed)).collect();
    assert_eq!(first, second);
    assert_eq!(ctx.stats().entries, 6, "second pass adds no entries");
    assert_eq!(ctx.stats().hits, 6);
}

/// Threads racing retrain on the same TRN: one cache entry, and parallel
/// evaluations (`par_map` over `evaluate`) match each evaluation on a
/// fresh context of its own, and the session and retrainer called
/// directly.
#[test]
fn parallel_evaluations_match_serial() {
    let s = session();
    let source = tiny_net();
    let r = tiny_retrainer(&source);
    let trn = source
        .cut_blocks(1)
        .expect("valid cutpoint")
        .with_head(&HeadSpec::default());

    let seeds: Vec<u64> = (0..16).map(|i| i % 4).collect(); // 4 distinct, repeated
    let parallel_ctx = EvalContext::new(&s, &r).with_jobs(8);
    let parallel: Vec<CandidatePoint> =
        parallel_ctx.par_map(seeds, |_, seed| parallel_ctx.evaluate(&trn, &source, seed));

    // Each distinct task on a fresh context of its own, and the session
    // and retrainer called directly.
    let fresh: Vec<CandidatePoint> = (0..4u64)
        .map(|seed| EvalContext::new(&s, &r).evaluate(&trn, &source, seed))
        .collect();
    for (i, p) in parallel.iter().enumerate() {
        assert_eq!(*p, fresh[i % 4], "task {i}: shared and fresh must agree");
    }
    let trained = r.retrain(&trn);
    for (seed, p) in fresh.iter().enumerate() {
        let direct = s.measure(&trn, seed as u64).mean_ms;
        assert_eq!((p.latency_ms, p.accuracy), (direct, trained.accuracy));
        assert_eq!(p.train_hours, trained.train_hours);
    }
    // One TRN retrained once; 4 distinct measurement keys + 1 retrain key.
    let stats = parallel_ctx.stats();
    assert_eq!(stats.distinct_retrains, 1);
    assert_eq!(stats.entries, 5, "4 measure entries + 1 retrain entry");
}
