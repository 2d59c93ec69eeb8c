//! Model selection: k-fold cross-validation and hyper-parameter search.
//! The paper tunes (γ, C) by **grid search with 10-fold CV on the train
//! set** and notes that grid search outperformed random search at this
//! sample size (§V-B-2).

use crate::mean_absolute_error;
use crate::svr::{Svr, SvrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of a hyper-parameter search.
#[derive(Debug, Clone, Copy)]
pub struct GridSearchResult {
    /// The winning hyper-parameters.
    pub params: SvrParams,
    /// Cross-validation error of the winner: the mean absolute error over
    /// the held-out folds, in the units of the targets. The analytical
    /// estimator's targets are each TRN's latency ÷ its source's latency.
    pub cv_error: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
}

/// Splits `n` samples into `k` contiguous folds of near-equal size,
/// shuffled by `seed`. Returns per-fold index lists.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds `n`.
pub fn k_fold_indices(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0 && k <= n, "need 0 < k <= n (k={k}, n={n})");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let mut folds = vec![Vec::new(); k];
    for (pos, &i) in idx.iter().enumerate() {
        folds[pos % k].push(i);
    }
    folds
}

/// Mean absolute CV error of an SVR configuration, averaged over the
/// folds, in the units of `y`. The analytical estimator trains on each
/// TRN's latency divided by its source network's latency, so for it this
/// is the mean absolute error of that ratio.
fn cv_error(x: &[Vec<f64>], y: &[f64], params: &SvrParams, folds: &[Vec<usize>]) -> f64 {
    let mut total = 0.0;
    for fold in folds {
        let in_fold: std::collections::HashSet<usize> = fold.iter().copied().collect();
        let (mut tx, mut ty) = (Vec::new(), Vec::new());
        for i in 0..x.len() {
            if !in_fold.contains(&i) {
                tx.push(x[i].clone());
                ty.push(y[i]);
            }
        }
        if tx.is_empty() || fold.is_empty() {
            continue;
        }
        let model = Svr::fit(&tx, &ty, params);
        let pred: Vec<f64> = fold.iter().map(|&i| model.predict(&x[i])).collect();
        let truth: Vec<f64> = fold.iter().map(|&i| y[i]).collect();
        total += mean_absolute_error(&pred, &truth);
    }
    total / folds.len() as f64
}

/// Exhaustive grid search over (C, γ) with `k`-fold CV (ε fixed small, as
/// in the paper). Returns the best configuration.
///
/// # Panics
///
/// Panics if the training set is empty or smaller than `k`.
pub fn grid_search(x: &[Vec<f64>], y: &[f64], k: usize, seed: u64) -> GridSearchResult {
    let folds = k_fold_indices(x.len(), k.min(x.len()), seed);
    let cs = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7];
    let gammas = [0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0];
    let mut best = GridSearchResult {
        params: SvrParams::paper(),
        cv_error: f64::INFINITY,
        evaluated: 0,
    };
    let mut evaluated = 0;
    for &c in &cs {
        for &gamma in &gammas {
            let params = SvrParams {
                c,
                gamma,
                epsilon: 1e-3,
            };
            let err = cv_error(x, y, &params, &folds);
            evaluated += 1;
            if err < best.cv_error {
                best = GridSearchResult {
                    params,
                    cv_error: err,
                    evaluated,
                };
            }
        }
    }
    best.evaluated = evaluated;
    best
}

/// Random search over the same (C, γ) ranges with an equal evaluation
/// budget — the alternative the paper found inferior at this sample size.
pub fn random_search(
    x: &[Vec<f64>],
    y: &[f64],
    k: usize,
    budget: usize,
    seed: u64,
) -> GridSearchResult {
    let folds = k_fold_indices(x.len(), k.min(x.len()), seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
    let mut best = GridSearchResult {
        params: SvrParams::paper(),
        cv_error: f64::INFINITY,
        evaluated: budget,
    };
    for _ in 0..budget {
        let params = SvrParams {
            c: 10f64.powf(rng.gen_range(0.0..6.0)),
            gamma: 10f64.powf(rng.gen_range(-2.0..0.5)),
            epsilon: 1e-3,
        };
        let err = cv_error(x, y, &params, &folds);
        if err < best.cv_error {
            best.params = params;
            best.cv_error = err;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| (2.0 * v[0]).sin() + v[0]).collect();
        (x, y)
    }

    #[test]
    fn folds_partition_indices() {
        let folds = k_fold_indices(23, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let folds = k_fold_indices(25, 10, 2);
        for f in &folds {
            assert!(f.len() == 2 || f.len() == 3);
        }
    }

    #[test]
    fn grid_search_finds_low_error_config() {
        let (x, y) = toy();
        let result = grid_search(&x, &y, 10, 3);
        assert!(result.cv_error < 0.05, "cv error = {}", result.cv_error);
        assert_eq!(result.evaluated, 8 * 8);
    }

    #[test]
    fn random_search_runs_budget() {
        let (x, y) = toy();
        let result = random_search(&x, &y, 5, 10, 4);
        assert!(result.cv_error.is_finite());
        assert_eq!(result.evaluated, 10);
    }

    #[test]
    fn searches_are_deterministic_per_seed() {
        let (x, y) = toy();
        let a = grid_search(&x, &y, 5, 9);
        let b = grid_search(&x, &y, 5, 9);
        assert_eq!(a.params, b.params);
        assert_eq!(a.cv_error, b.cv_error);
    }
}
