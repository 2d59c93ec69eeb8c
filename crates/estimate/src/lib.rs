//! Latency estimation for TRimmed Networks (§V-B of the paper).
//!
//! Two estimators predict a TRN's inference latency *without deploying it*:
//!
//! * [`ProfilerEstimator`] — per-layer latency tables recorded once per
//!   source network; a TRN's latency is the source's measured end-to-end
//!   latency scaled by the ratio of surviving per-layer time (the ratio
//!   form corrects for per-layer measurement overhead, §V-B-1).
//! * [`AnalyticalEstimator`] — an ε-SVR with RBF kernel over
//!   device-agnostic features (source latency, FLOPs, parameters, layer
//!   count, filter sizes), hyper-parameters tuned by grid search with
//!   10-fold cross-validation (§V-B-2). A linear-regression baseline
//!   ([`LinearModel`]) reproduces the paper's negative result.
//!
//! # Example
//!
//! ```
//! use netcut_estimate::{Svr, SvrParams};
//!
//! // Fit y = x² on a few points; RBF SVR adapts to the non-linearity.
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
//! let svr = Svr::fit(&xs, &ys, &SvrParams { c: 100.0, gamma: 1.0, epsilon: 0.01 });
//! let pred = svr.predict(&[1.0]);
//! assert!((pred - 1.0).abs() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytical;
mod features;
mod linreg;
mod modelsel;
mod per_family;
mod profiler;
mod refit;
mod svr;

pub use analytical::{AnalyticalEstimator, LinearLatencyEstimator, SourceInfo};
pub use features::{trn_features, Standardizer, FEATURE_COUNT};
pub use linreg::LinearModel;
pub use modelsel::{grid_search, k_fold_indices, random_search, GridSearchResult};
pub use per_family::PerFamilyLinear;
pub use profiler::ProfilerEstimator;
pub use refit::refit_scale_ppm;
pub use svr::{Svr, SvrParams};

use netcut_graph::Network;
use netcut_sim::{LatencyTable, Session};

/// Predicts the deployed inference latency of a TRN from static
/// information, in milliseconds.
///
/// Estimators are `Send + Sync` so a fitted model can be shared by
/// reference across evaluation worker threads (every estimator here is
/// immutable after fitting).
pub trait LatencyEstimator: Send + Sync {
    /// Predicted latency of `trn`, milliseconds.
    fn estimate_ms(&self, trn: &Network) -> f64;

    /// Estimator name for reports.
    fn name(&self) -> &str;
}

/// A source of per-layer latency tables, abstracted so estimator fitting
/// can run against either a raw [`Session`] (always profiles) or a memoized
/// evaluation context that reuses cached tables across fits.
pub trait ProfileProvider {
    /// Builds (or retrieves) the per-layer latency table of `net` under
    /// measurement seed `seed`.
    fn profile_table(&self, net: &Network, seed: u64) -> LatencyTable;
}

impl ProfileProvider for Session {
    fn profile_table(&self, net: &Network, seed: u64) -> LatencyTable {
        self.profile(net, seed)
    }
}

/// Mean relative error `|pred − truth| / truth` over paired slices.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mean_relative_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty error computation");
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs() / t.abs().max(1e-12))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute error over paired slices.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mean_absolute_error(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty error computation");
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Kendall rank correlation `tau` between predictions and ground truth —
/// the quality NetCut actually depends on: the estimator must *order*
/// cutpoints correctly so the first real-time TRN it proposes is the
/// right one. `tau = 1` is a perfect ordering, `0` random, `-1` reversed
/// (tau-a convention: ties are excluded from the pair count).
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two elements.
pub fn kendall_tau(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(pred.len() >= 2, "need at least two points to rank");
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..pred.len() {
        for j in i + 1..pred.len() {
            let product = (pred[i] - pred[j]) * (truth[i] - truth[j]);
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = concordant + discordant;
    if pairs == 0 {
        0.0
    } else {
        (concordant - discordant) as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert!((mean_relative_error(&[1.1], &[1.0]) - 0.1).abs() < 1e-12);
        assert_eq!(mean_relative_error(&[2.0, 2.0], &[2.0, 4.0]), 0.25);
    }

    #[test]
    fn absolute_error_basics() {
        assert_eq!(mean_absolute_error(&[1.0, 3.0], &[2.0, 1.0]), 1.5);
    }

    #[test]
    fn kendall_tau_extremes() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&[10.0, 20.0, 30.0, 40.0], &truth), 1.0);
        assert_eq!(kendall_tau(&[40.0, 30.0, 20.0, 10.0], &truth), -1.0);
    }

    #[test]
    fn kendall_tau_partial_order() {
        // One swapped pair out of six: tau = (5 - 1) / 6.
        let truth = [1.0, 2.0, 3.0, 4.0];
        let pred = [1.0, 3.0, 2.0, 4.0];
        assert!((kendall_tau(&pred, &truth) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_all_ties_is_zero() {
        assert_eq!(kendall_tau(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }
}
