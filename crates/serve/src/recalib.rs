//! The closed-loop recalibration control plane (DESIGN.md §17).
//!
//! A serving run's latency *predictions* come from the build-time
//! exploration; the device's *observed* service times drift away from
//! them under thermal throttling, contention, or firmware changes. The
//! windowed timeline already detects that drift (OBS002); this module
//! closes the loop: at deterministic virtual-time watermarks the
//! controller inspects its own predicted-vs-observed residual window and,
//! when drift crosses the configured threshold, (1) refits the shard's
//! calibration factor from the recent observed-latency window
//! ([`netcut_estimate::refit_scale_ppm`] — a truncating lower median,
//! robust to noise outliers), (2) asks its [`Recalibrator`] for a
//! corrected ladder (scenarios re-tag the shard's resident exit table
//! with the new factor: one uniform factor cannot reorder a Pareto
//! front, so re-exploring would only rebuild the same table), and (3)
//! hot-swaps the new ladder in under a bumped **generation** tag. Queued
//! and in-flight requests finish on the generation they were admitted
//! under — the shard's open batch is closed at the swap instant so no
//! batch ever spans generations, and no request is dropped or re-queued.
//!
//! Everything is virtual time: watermarks are multiples of
//! [`RecalibConfig::watermark_us`], never wall clock, so a recalibrating
//! run is exactly as deterministic as a plain one — bit-identical
//! summaries across `--jobs` settings, machines, and reruns.

use crate::ladder::TrnLadder;

/// Controller parameters, all integer virtual-time or ppm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalibConfig {
    /// Residual-drift trigger threshold, ppm deviation from unity — the
    /// controller's own OBS002 condition (`--recalib-drift-ppm`).
    pub drift_ppm: u64,
    /// Minimum virtual time between swaps on one shard, µs
    /// (`--recalib-cooldown-us`).
    pub cooldown_us: u64,
    /// Watermark spacing, µs: the controller only acts at multiples of
    /// this virtual-time interval.
    pub watermark_us: u64,
    /// Residual samples a shard must have accumulated before it may
    /// trigger.
    pub min_samples: u64,
    /// Capacity of the bounded recent-sample window the refit draws from.
    pub window: usize,
}

impl Default for RecalibConfig {
    /// 15% drift trigger, 0.5 ms cooldown, 0.1 ms watermarks, 8-sample
    /// minimum over a 64-sample window — one decisive swap per sustained
    /// fault window at the default 5 s / 100 ms-window scenario scale.
    fn default() -> Self {
        RecalibConfig {
            drift_ppm: 150_000,
            cooldown_us: 500_000,
            watermark_us: 100_000,
            min_samples: 8,
            window: 64,
        }
    }
}

impl RecalibConfig {
    /// Panics unless the configuration is self-consistent: positive
    /// thresholds and intervals, and a refit window at least as large as
    /// the trigger's minimum sample count (the SV013 rule, enforced at
    /// run start too).
    pub fn validate(&self) {
        assert!(
            self.drift_ppm > 0,
            "recalib drift threshold must be positive"
        );
        assert!(self.cooldown_us > 0, "recalib cooldown must be positive");
        assert!(self.watermark_us > 0, "recalib watermark must be positive");
        assert!(self.min_samples > 0, "recalib min_samples must be positive");
        assert!(
            self.window >= self.min_samples as usize,
            "refit window ({}) must hold at least min_samples ({})",
            self.window,
            self.min_samples,
        );
    }
}

/// Produces the corrected ladder a hot-swap installs.
///
/// The runtime computes *when* to swap and *what calibration factor* the
/// refit demands; the recalibrator decides what ladder embodies it.
/// [`CalibrateOnly`], which scenarios use, re-tags the build-time ladder;
/// an implementation whose candidate set or device changed could
/// re-explore instead. Returning `None` declines the swap: the trigger
/// still counts and the cooldown still arms, while the shard's tracker,
/// generation and ladder stay as they were.
pub trait Recalibrator {
    /// Builds the ladder for `shard`'s generation `generation` at
    /// calibration factor `calib_ppm`.
    fn recalibrate(&self, shard: usize, generation: u64, calib_ppm: u64) -> Option<TrnLadder>;
}

/// Re-issues each shard's build-time ladder with the refit calibration
/// applied — no re-exploration. The refit is one uniform factor on every
/// prediction, so it keeps the front's order and the rungs' physics; a
/// re-derived front would be this same table.
#[derive(Debug, Clone)]
pub struct CalibrateOnly {
    ladders: Vec<TrnLadder>,
}

impl CalibrateOnly {
    /// One base ladder per shard, routing order.
    pub fn new(ladders: Vec<TrnLadder>) -> Self {
        CalibrateOnly { ladders }
    }
}

impl Recalibrator for CalibrateOnly {
    fn recalibrate(&self, shard: usize, _generation: u64, calib_ppm: u64) -> Option<TrnLadder> {
        self.ladders
            .get(shard)
            .map(|l| l.clone().with_calibration(calib_ppm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Rung;

    fn ladder() -> TrnLadder {
        TrnLadder::from_rungs(vec![Rung {
            name: "cut0".into(),
            cutpoint: 0,
            latency_us: 500,
            accuracy: 0.8,
        }])
    }

    #[test]
    fn defaults_validate() {
        RecalibConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn starved_window_is_rejected() {
        RecalibConfig {
            min_samples: 8,
            window: 7,
            ..RecalibConfig::default()
        }
        .validate();
    }

    #[test]
    fn calibrate_only_reissues_the_base_ladder() {
        let r = CalibrateOnly::new(vec![ladder()]);
        let swapped = r.recalibrate(0, 1, 1_300_000).expect("shard exists");
        assert_eq!(swapped.calib_ppm(), 1_300_000);
        assert_eq!(swapped.rung(0).latency_us, 500, "physics unchanged");
        assert!(r.recalibrate(9, 1, 1_300_000).is_none(), "unknown shard");
    }
}
