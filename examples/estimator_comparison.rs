//! Latency-estimator shoot-out (§V-B): profiler ratio vs RBF-SVR vs linear
//! regression, plus the grid-search / random-search comparison the paper
//! remarks on.
//!
//! ```text
//! cargo run --release --example estimator_comparison
//! ```

use netcut::removal::blockwise_trns;
use netcut_estimate::{
    grid_search, k_fold_indices, mean_relative_error, random_search, trn_features,
    AnalyticalEstimator, LatencyEstimator, LinearLatencyEstimator, ProfilerEstimator, SourceInfo,
    Standardizer,
};
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_sim::{DeviceModel, Precision, Session};
use std::collections::HashMap;

fn main() {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let sources = zoo::paper_networks();
    let head = HeadSpec::default();

    // Measure every blockwise TRN (deployment only — no retraining).
    let mut trns: Vec<Network> = Vec::new();
    let mut truth: Vec<f64> = Vec::new();
    let mut source_latency = HashMap::new();
    for source in &sources {
        let mut adapted = source.backbone().with_head(&head);
        adapted.rename(source.name());
        source_latency.insert(
            source.name().to_owned(),
            session.measure(&adapted, 3).mean_ms,
        );
        for trn in blockwise_trns(source, &head) {
            truth.push(session.measure(&trn, 5).mean_ms);
            trns.push(trn);
        }
    }
    println!(
        "measured {} TRNs across {} families",
        trns.len(),
        sources.len()
    );
    let info = SourceInfo::new(&sources, &source_latency);

    // 20 % train / 80 % test, as in the paper.
    let train: Vec<(&Network, f64)> = trns
        .iter()
        .zip(&truth)
        .enumerate()
        .filter(|(i, _)| i % 5 == 0)
        .map(|(_, (t, &l))| (t, l))
        .collect();
    let test_idx: Vec<usize> = (0..trns.len()).filter(|i| i % 5 != 0).collect();

    let (svr, search) = AnalyticalEstimator::fit_with_grid_search(&train, &info, 10, 7);
    let linear = LinearLatencyEstimator::fit(&train, &info);
    let profiler = ProfilerEstimator::profile_with(&session, &sources, 7);

    let eval = |est: &dyn LatencyEstimator| -> f64 {
        let pred: Vec<f64> = test_idx
            .iter()
            .map(|&i| est.estimate_ms(&trns[i]))
            .collect();
        let t: Vec<f64> = test_idx.iter().map(|&i| truth[i]).collect();
        mean_relative_error(&pred, &t)
    };
    println!();
    println!("held-out mean relative error:");
    println!("  profiler ratio : {:.2} %", eval(&profiler) * 100.0);
    println!(
        "  RBF SVR        : {:.2} %  (grid-searched C={:.0e}, gamma={})",
        eval(&svr) * 100.0,
        search.params.c,
        search.params.gamma
    );
    println!("  linear         : {:.2} %", eval(&linear) * 100.0);

    // Grid vs random search at an equal evaluation budget (§V-B-2: "grid
    // search outperforms random search as the sample size was not huge").
    let x: Vec<Vec<f64>> = train
        .iter()
        .map(|(t, _)| {
            let src = sources
                .iter()
                .find(|s| s.name() == t.base_name())
                .expect("family exists");
            trn_features(t, &src.backbone_stats(), source_latency[t.base_name()])
        })
        .collect();
    let y: Vec<f64> = train.iter().map(|(_, l)| *l).collect();
    let std = Standardizer::fit(&x);
    let xs = std.transform_all(&x);
    let folds = k_fold_indices(xs.len(), 10, 3).len();
    let grid = grid_search(&xs, &y, folds, 3);
    let random = random_search(&xs, &y, folds, grid.evaluated, 3);
    println!();
    println!(
        "hyper-parameter search at {} evaluations (10-fold CV error):",
        grid.evaluated
    );
    println!("  grid   : {:.4}", grid.cv_error);
    println!("  random : {:.4}", random.cv_error);
}
