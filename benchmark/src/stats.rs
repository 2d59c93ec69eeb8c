//! Order statistics over a metric's samples, and the bound check that
//! decides whether a change in a reported value counts as a regression.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The sample at rank `n - 10` in ascending order: the highest
    /// percentile with at least ten samples beyond it. `None` below 11
    /// samples.
    pub tail: Option<f64>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest sample.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method), so
/// spreads computed here match spreads computed from the printed values.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len > 0, "quartiles of no samples");
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The sample at 1-based rank `n - 10` of the ascending order, if any.
pub fn tail(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    (v.len() > 10).then(|| v[v.len() - 11])
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        min: min(values),
        median: median(values),
        q1,
        q3,
        tail: tail(values),
    }
}

/// How much worse `new` is than `old`, as a share of `|old|`: positive
/// when worse, negative when better, 0 when equal.
pub fn worse_by(old: f64, new: f64, better: Better) -> f64 {
    if old == new {
        return 0.0;
    }
    let delta = match better {
        Better::Lower => new - old,
        Better::Higher => old - new,
    };
    if old == 0.0 {
        return delta.signum() * f64::INFINITY;
    }
    delta / old.abs()
}

/// `true` when `new` is worse than `old` by more than `bound`.
pub fn exceeds(old: f64, new: f64, better: Better, bound: f64) -> bool {
    worse_by(old, new, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_is_rank_n_minus_ten() {
        assert_eq!(tail(&(1..=10).map(f64::from).collect::<Vec<_>>()), None);
        assert_eq!(
            tail(&(1..=11).map(f64::from).collect::<Vec<_>>()),
            Some(1.0)
        );
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some(90.0));
    }

    #[test]
    fn summary_collects_every_statistic() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 20);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 10.5);
        assert_eq!((s.q1, s.q3), (5.25, 15.75));
        assert_eq!(s.tail, Some(10.0));
    }

    #[test]
    fn bound_check_respects_direction() {
        assert!((worse_by(1.0, 1.2, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worse_by(1.0, 0.8, Better::Higher) - 0.2).abs() < 1e-12);
        assert!(worse_by(1.0, 0.8, Better::Lower) < 0.0);
        assert!(exceeds(1.0, 1.11, Better::Lower, 0.10));
        assert!(!exceeds(1.0, 1.09, Better::Lower, 0.10));
        assert!(!exceeds(1.0, 2.0, Better::Higher, 0.10));
        // An exact metric (bound 0) trips on any worsening, never on equality.
        assert!(!exceeds(5.0, 5.0, Better::Lower, 0.0));
        assert!(exceeds(5.0, 5.000_001, Better::Lower, 0.0));
        assert!(exceeds(0.0, 1.0, Better::Lower, 0.25));
    }
}
