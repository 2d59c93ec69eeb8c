//! Incremental estimator refit from observed-latency residuals.
//!
//! The closed-loop control plane (ROADMAP item 3, DESIGN.md §17) feeds
//! this module the bounded recent-sample window a `ResidualTracker`
//! keeps: each sample is `observed / predicted` in parts per million.
//! [`refit_scale_ppm`] condenses the window into one multiplicative
//! correction — the **median** ratio, which is robust to the seeded
//! service-noise outliers a mean would chase. The serve plane applies it
//! by re-tagging a ladder's calibration (`calib_ppm`), not by wrapping an
//! estimator.
//!
//! Everything is integer arithmetic over ppm samples: refitting the same
//! window always yields the same scale, bit-identical across `--jobs`
//! settings and platforms, which is what lets a mid-run recalibration
//! stay inside the serving plane's determinism contract.

/// Condenses a window of `observed / predicted` residual samples (ppm)
/// into one multiplicative correction factor, ppm: the median sample.
/// Even-length windows take the lower median so the result is always an
/// actually-observed ratio (no averaging artifacts). Returns `None` for
/// an empty window — no evidence, no refit.
pub fn refit_scale_ppm(samples_ppm: &[u64]) -> Option<u64> {
    if samples_ppm.is_empty() {
        return None;
    }
    let mut sorted = samples_ppm.to_vec();
    sorted.sort_unstable();
    Some(sorted[(sorted.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_yields_no_refit() {
        assert_eq!(refit_scale_ppm(&[]), None);
    }

    #[test]
    fn median_is_robust_to_outliers() {
        // A +30% thermal plateau with one noise spike: the median sits on
        // the plateau, where a mean would be dragged toward the spike.
        let window = [1_300_000, 1_310_000, 1_290_000, 5_000_000, 1_300_000];
        assert_eq!(refit_scale_ppm(&window), Some(1_300_000));
    }

    #[test]
    fn even_windows_take_the_lower_median() {
        assert_eq!(refit_scale_ppm(&[1_000_000, 2_000_000]), Some(1_000_000));
        assert_eq!(
            refit_scale_ppm(&[4, 3, 2, 1]),
            Some(2),
            "sorted [1,2,3,4] → index (4-1)/2 = 1"
        );
    }

    #[test]
    fn refit_is_order_invariant() {
        let a = [1_200_000, 900_000, 1_100_000];
        let b = [900_000, 1_100_000, 1_200_000];
        assert_eq!(refit_scale_ppm(&a), refit_scale_ppm(&b));
        assert_eq!(refit_scale_ppm(&a), Some(1_100_000));
    }
}
