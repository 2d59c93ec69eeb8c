//! The integer window histogram: the per-(window, shard) queue-delay
//! distribution of the serving timeline.
//!
//! Observations are integer microseconds of the simulation's virtual
//! clock, and every statistic — count, sum, min, max, quantiles — is
//! integer arithmetic, so a derived timeline is bit-identical across
//! thread counts and platforms.

/// Number of log-scaled buckets, matching [`crate::Histogram`]'s layout
/// over the integer range (bucket `i` holds values in `[2^i, 2^(i+1))`).
const BUCKETS: usize = 44;

/// An all-integer streaming histogram for one (window, metric) cell:
/// count/sum/min/max plus power-of-two buckets.
///
/// Quantiles follow the crate-wide rule (see [`crate::metrics`]): nearest
/// rank `ceil(q × count)`, estimated as the holding bucket's upper edge,
/// clamped to the observed `[min, max]` — integer arithmetic end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for WindowHistogram {
    fn default() -> Self {
        WindowHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl WindowHistogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let exp = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        };
        self.buckets[exp.min(BUCKETS - 1)] += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean, truncated (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// Quantile `q_ppm` (parts per million of the population) under the
    /// crate-wide nearest-rank / upper-edge / clamp rule.
    pub fn quantile(&self, q_ppm: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(q_ppm) * u128::from(self.count))
            .div_ceil(1_000_000)
            .max(1) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_track_quantiles_per_window() {
        let mut h = WindowHistogram::default();
        for v in [100u64, 200, 300, 400, 1_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 1_000);
        assert_eq!(h.mean(), 400);
        assert_eq!(h.quantile(500_000), 512); // rank 3 → [256,512) upper edge
        assert_eq!(h.quantile(990_000), 1_000); // clamped to max
        let mut late = WindowHistogram::default();
        late.observe(7);
        assert_eq!(late.count(), 1);
        assert_eq!(late.quantile(500_000), 7);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = WindowHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(500_000), 0);
    }

    #[test]
    fn zero_observation_lands_in_the_bottom_bucket() {
        let mut h = WindowHistogram::default();
        h.observe(0);
        h.observe(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(1), 1); // upper edge 2 clamps to max 1
    }
}
