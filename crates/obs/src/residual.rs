//! Predicted-vs-observed latency residuals, tracked as integer-ppm EWMAs
//! per (shard, rung) cell.
//!
//! A residual sample is the ratio `observed / predicted` in parts per
//! million: `PPM` means the estimator was exact, `1_050_000` means the
//! device ran 5% slower than the ladder's prediction. Each cell smooths
//! its samples with an exponential moving average computed entirely in
//! integer arithmetic —
//!
//! ```text
//! ewma' = (alpha × sample + (PPM − alpha) × ewma) / PPM
//! ```
//!
//! with one truncation per update (in `u64` when the weighted sum fits,
//! which a realistic ratio always does, `u128` otherwise — the quotient is
//! the same) — so a residual trace is a pure function of the sample
//! sequence: bit-identical across `--jobs` settings, platforms, and
//! reruns. This is the drift signal the ROADMAP's closed-loop
//! recalibration consumes: a cell whose EWMA walks away from `PPM` is a
//! rung whose latency table needs re-fitting.
//!
//! Each shard also keeps a bounded window of its most recent raw samples,
//! oldest first, for the refit to read. Its buffer holds up to twice the
//! window and drops the oldest half at once when full, so a sample costs
//! O(1) amortized instead of shifting the whole window.

/// One part per million; the fixed-point unit of residual arithmetic.
pub const PPM: u64 = 1_000_000;

/// Default smoothing factor: 1/8 per sample — heavy enough that one noisy
/// batch cannot trip the drift alert, light enough that a real shift shows
/// within a dozen samples.
pub const DEFAULT_ALPHA_PPM: u64 = 125_000;

/// Default capacity of the per-shard recent-sample window the refit API
/// reads: large enough for a robust median, small enough that stale
/// pre-drift samples age out within a telemetry window or two.
pub const DEFAULT_WINDOW: usize = 64;

/// One (shard, rung) residual cell: the running EWMA and sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidualCell {
    ewma_ppm: u64,
    samples: u64,
}

impl ResidualCell {
    /// Folds `sample_ppm` into the EWMA. The first sample initializes the
    /// average directly (no decay from a synthetic starting point).
    pub fn observe(&mut self, sample_ppm: u64, alpha_ppm: u64) {
        self.ewma_ppm = if self.samples == 0 {
            sample_ppm
        } else if sample_ppm.max(self.ewma_ppm) <= u64::MAX / PPM {
            // The weights sum to PPM, so the weighted sum fits in u64.
            (alpha_ppm * sample_ppm + (PPM - alpha_ppm) * self.ewma_ppm) / PPM
        } else {
            ((u128::from(alpha_ppm) * u128::from(sample_ppm)
                + u128::from(PPM - alpha_ppm) * u128::from(self.ewma_ppm))
                / u128::from(PPM)) as u64
        };
        self.samples += 1;
    }

    /// Current EWMA, ppm. A cell that has never seen a sample reads the
    /// neutral `PPM` (ratio 1.0), so untouched rungs never look drifted.
    pub fn ewma_ppm(&self) -> u64 {
        if self.samples == 0 {
            PPM
        } else {
            self.ewma_ppm
        }
    }

    /// Samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Absolute distance of the EWMA from neutral, ppm — the drift signal.
    pub fn drift_ppm(&self) -> u64 {
        self.ewma_ppm().abs_diff(PPM)
    }
}

/// Residual EWMAs for every (shard, rung) cell of a sharded server, plus a
/// blended per-shard cell (all rungs folded together, the timeline's
/// per-window summary figure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualTracker {
    alpha_ppm: u64,
    cells: Vec<Vec<ResidualCell>>,
    blended: Vec<ResidualCell>,
    /// Per-shard buffer of the most recent raw samples (ppm), oldest
    /// first — the refit API's evidence is its last `window_cap` entries.
    /// It holds up to `2 × window_cap` and drops the oldest `window_cap`
    /// at once when full, so eviction costs O(1) per sample amortized
    /// instead of a shift per sample.
    recent: Vec<Vec<u64>>,
    window_cap: usize,
}

impl ResidualTracker {
    /// Builds a tracker for shards with the given ladder lengths, keeping
    /// the default [`DEFAULT_WINDOW`] recent samples per shard.
    ///
    /// # Panics
    /// Panics if `alpha_ppm` is zero or exceeds [`PPM`].
    pub fn new(ladder_lens: &[usize], alpha_ppm: u64) -> Self {
        assert!(
            (1..=PPM).contains(&alpha_ppm),
            "alpha must be in (0, PPM], got {alpha_ppm}"
        );
        ResidualTracker {
            alpha_ppm,
            cells: ladder_lens
                .iter()
                .map(|&len| vec![ResidualCell::default(); len])
                .collect(),
            blended: vec![ResidualCell::default(); ladder_lens.len()],
            recent: vec![Vec::new(); ladder_lens.len()],
            window_cap: DEFAULT_WINDOW,
        }
    }

    /// Same tracker with a recent-sample window of `capacity` per shard.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_window(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        self.window_cap = capacity;
        self
    }

    /// Records one prediction/observation pair and returns the sample in
    /// ppm. A zero prediction is clamped to 1 µs (the runtime's service
    /// floor), never divided by.
    ///
    /// # Panics
    /// Panics if `shard` or `rung` is out of range.
    pub fn observe(
        &mut self,
        shard: usize,
        rung: usize,
        predicted_us: u64,
        observed_us: u64,
    ) -> u64 {
        let sample_ppm = match observed_us.checked_mul(PPM) {
            Some(scaled) => scaled / predicted_us.max(1),
            None => {
                (u128::from(observed_us) * u128::from(PPM) / u128::from(predicted_us.max(1))) as u64
            }
        };
        self.cells[shard][rung].observe(sample_ppm, self.alpha_ppm);
        self.blended[shard].observe(sample_ppm, self.alpha_ppm);
        let window = &mut self.recent[shard];
        if window.len() == 2 * self.window_cap {
            window.drain(..self.window_cap);
        }
        window.push(sample_ppm);
        sample_ppm
    }

    /// The shard's bounded window of recent raw samples (ppm), oldest
    /// first — at most the window capacity, FIFO-evicted. This is the
    /// refit API's input: the EWMA says *whether* to recalibrate, the
    /// window says *by how much*.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn recent_samples(&self, shard: usize) -> &[u64] {
        let window = &self.recent[shard];
        &window[window.len().saturating_sub(self.window_cap)..]
    }

    /// Capacity of the per-shard recent-sample window.
    pub fn window_capacity(&self) -> usize {
        self.window_cap
    }

    /// Forgets everything tracked for `shard` — EWMA cells, blended cell,
    /// and the recent-sample window. Called after a recalibration swap so
    /// pre-swap drift (measured against the old calibration) cannot
    /// re-trigger against the new one.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn reset_shard(&mut self, shard: usize) {
        for cell in &mut self.cells[shard] {
            *cell = ResidualCell::default();
        }
        self.blended[shard] = ResidualCell::default();
        self.recent[shard].clear();
    }

    /// The (shard, rung) cell.
    ///
    /// # Panics
    /// Panics if `shard` or `rung` is out of range.
    pub fn cell(&self, shard: usize, rung: usize) -> &ResidualCell {
        &self.cells[shard][rung]
    }

    /// The shard's blended cell (every rung's samples folded together).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn blended(&self, shard: usize) -> &ResidualCell {
        &self.blended[shard]
    }

    /// Worst drift across the shard's rungs, ppm (0 when nothing sampled).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn max_drift_ppm(&self, shard: usize) -> u64 {
        self.cells[shard]
            .iter()
            .map(ResidualCell::drift_ppm)
            .max()
            .unwrap_or(0)
    }

    /// Samples folded in across all of the shard's rungs (the evidence
    /// count the drift alert is gated on).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_samples(&self, shard: usize) -> u64 {
        self.blended[shard].samples()
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Number of rungs tracked for `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn rungs(&self, shard: usize) -> usize {
        self.cells[shard].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_the_ewma() {
        let mut t = ResidualTracker::new(&[3], DEFAULT_ALPHA_PPM);
        assert_eq!(t.cell(0, 1).ewma_ppm(), PPM, "untouched cell is neutral");
        assert_eq!(t.cell(0, 1).drift_ppm(), 0);
        let sample = t.observe(0, 1, 100, 110);
        assert_eq!(sample, 1_100_000);
        assert_eq!(t.cell(0, 1).ewma_ppm(), 1_100_000);
        assert_eq!(t.cell(0, 1).samples(), 1);
    }

    #[test]
    fn ewma_converges_toward_a_steady_ratio() {
        let mut t = ResidualTracker::new(&[2], DEFAULT_ALPHA_PPM);
        t.observe(0, 0, 100, 100); // start neutral
        for _ in 0..60 {
            t.observe(0, 0, 100, 105); // device steadily 5% slow
        }
        let ewma = t.cell(0, 0).ewma_ppm();
        assert!(
            (1_045_000..=1_050_000).contains(&ewma),
            "ewma = {ewma} should approach 1.05"
        );
        assert!(t.cell(0, 0).drift_ppm() >= 45_000);
        assert_eq!(t.max_drift_ppm(0), t.cell(0, 0).drift_ppm());
    }

    #[test]
    fn update_is_exact_integer_arithmetic() {
        // One hand-computed step: alpha 1/8, ewma 1_000_000, sample
        // 1_200_000 → (125000×1200000 + 875000×1000000)/1000000 = 1025000.
        let mut cell = ResidualCell::default();
        cell.observe(1_000_000, 125_000);
        cell.observe(1_200_000, 125_000);
        assert_eq!(cell.ewma_ppm(), 1_025_000);
    }

    #[test]
    fn blended_cell_folds_every_rung() {
        let mut t = ResidualTracker::new(&[2], PPM); // alpha 1: last sample wins
        t.observe(0, 0, 100, 90);
        t.observe(0, 1, 100, 130);
        assert_eq!(t.blended(0).samples(), 2);
        assert_eq!(t.blended(0).ewma_ppm(), 1_300_000);
        assert_eq!(t.shard_samples(0), 2);
        assert_eq!(t.shards(), 1);
        assert_eq!(t.rungs(0), 2);
    }

    #[test]
    fn zero_prediction_is_floored_not_divided() {
        let mut t = ResidualTracker::new(&[1], DEFAULT_ALPHA_PPM);
        assert_eq!(t.observe(0, 0, 0, 7), 7 * PPM);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        let _ = ResidualTracker::new(&[1], 0);
    }

    #[test]
    fn recent_window_is_bounded_fifo_oldest_first() {
        let mut t = ResidualTracker::new(&[2, 2], DEFAULT_ALPHA_PPM).with_window(3);
        assert_eq!(t.window_capacity(), 3);
        assert!(t.recent_samples(0).is_empty());
        for (i, obs) in [110, 120, 130].into_iter().enumerate() {
            t.observe(0, 0, 100, obs);
            assert_eq!(t.recent_samples(0).len(), i + 1);
        }
        // Full at capacity, oldest first.
        assert_eq!(t.recent_samples(0), &[1_100_000, 1_200_000, 1_300_000]);
        // A fourth sample evicts exactly the oldest (FIFO, not LIFO).
        t.observe(0, 1, 100, 140);
        assert_eq!(t.recent_samples(0), &[1_200_000, 1_300_000, 1_400_000]);
        // Past twice the capacity the buffer compacts; the window still
        // reads the last three samples, oldest first, after every one.
        let mut all = vec![1_100_000, 1_200_000, 1_300_000, 1_400_000];
        for obs in 150..170 {
            all.push(t.observe(0, 0, 100, obs));
            assert_eq!(t.recent_samples(0), &all[all.len() - 3..]);
        }
        // Windows are per shard: shard 1 is untouched.
        assert!(t.recent_samples(1).is_empty());
    }

    #[test]
    fn reset_shard_forgets_cells_blend_and_window() {
        let mut t = ResidualTracker::new(&[2, 2], DEFAULT_ALPHA_PPM).with_window(4);
        t.observe(0, 0, 100, 150);
        t.observe(1, 0, 100, 150);
        t.reset_shard(0);
        assert_eq!(t.cell(0, 0).ewma_ppm(), PPM);
        assert_eq!(t.shard_samples(0), 0);
        assert_eq!(t.max_drift_ppm(0), 0);
        assert!(t.recent_samples(0).is_empty());
        // Only the named shard is reset.
        assert_eq!(t.shard_samples(1), 1);
        assert_eq!(t.recent_samples(1), &[1_500_000]);
    }
}
