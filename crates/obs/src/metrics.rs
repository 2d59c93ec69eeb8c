//! Always-on process-wide metrics: named counters and latency histograms.
//!
//! Metrics are aggregated in memory regardless of whether an event sink is
//! installed (one mutexed map update per observation — negligible next to
//! the measurement and retraining work they count) and rendered on demand
//! via [`snapshot`].
//!
//! Metric names are either `&'static str` literals (the common case — no
//! allocation) or owned strings built with [`labeled`], which renders the
//! `name{label=value}` convention for per-entity series such as
//! `serve.shard.busy{shard=5}`. Labeled names let a dynamic population
//! (shards, devices, deadline classes) report without a static name table,
//! so no entity is ever silently unreported. Base names must appear in
//! [`crate::registry::METRIC_NAMES`]; the repo's registry-check test fails
//! when an unregistered name is introduced.
//!
//! # Quantile rule
//!
//! Histograms hold integer observations (microseconds, counts, seconds —
//! the unit is in the metric name) in power-of-two buckets: bucket `i`
//! holds `[2^i, 2^(i+1))`, and 0 shares bucket 0. Quantile `q` is
//! estimated by **nearest rank**: the estimate for rank `ceil(q × count)`
//! is the **upper edge** of the bucket holding that rank, clamped to the
//! observed `[min, max]`. There is no interpolation inside a bucket, so
//! the estimate is exact to within a power of two for every value below
//! 2^44 (about 200 days in µs), and because it is pure integer arithmetic
//! the same observations produce bit-identical quantiles on every
//! platform.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A metric name: a static literal or an owned labeled name. All the
/// registry entry points take `impl Into<MetricName>`, so existing
/// `&'static str` call sites and [`labeled`] strings both work.
pub type MetricName = Cow<'static, str>;

/// Renders the labeled-metric convention: `base{label=value}`.
///
/// ```
/// assert_eq!(netcut_obs::labeled("serve.shard.busy", "shard", 5), "serve.shard.busy{shard=5}");
/// ```
pub fn labeled<V: std::fmt::Display>(base: &str, label: &str, value: V) -> String {
    format!("{base}{{{label}={value}}}")
}

/// Number of power-of-two buckets; values of 2^43 and above share the
/// last one.
const BUCKETS: usize = 44;

/// Streaming integer histogram: count/sum/min/max plus power-of-two
/// buckets for quantiles (see the module-level quantile rule). The global
/// registry, the serve runtime's once-per-run flush and the timeline's
/// per-(window, shard) queue-delay cells all use it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let exp = value.max(1).ilog2() as usize;
        self.buckets[exp.min(BUCKETS - 1)] += 1;
    }

    /// Quantile `q_ppm` (parts per million of the population) under the
    /// module-level rule; 0 when empty.
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
                return (1u64 << (i + 1)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. A histogram is an order-independent fold
    /// of its observation multiset, so accumulating locally in a hot loop
    /// and merging once is identical to observing one at a time; merging
    /// an empty histogram changes nothing.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Immutable summary of the histogram; every field is 0 when empty.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: self
                .sum
                .checked_div(u128::from(self.count))
                .map_or(0, |m| m as u64),
            p50: self.quantile(500_000),
            p95: self.quantile(950_000),
        }
    }
}

/// Snapshot statistics of one histogram, in the metric's own unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u128,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean, truncated.
    pub mean: u64,
    /// Median (bucket estimate).
    pub p50: u64,
    /// 95th percentile (bucket estimate).
    pub p95: u64,
}

/// Last-set value plus the high-water mark, for level-style metrics
/// (queue depth, in-flight requests) where both the instant value and the
/// worst case matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub value: i64,
    /// Largest value ever set.
    pub max: i64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, Gauge>,
    histograms: BTreeMap<MetricName, Histogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().expect("metrics registry poisoned");
    f(guard.get_or_insert_with(Registry::default))
}

/// Adds `delta` to the named counter.
pub fn counter_add(name: impl Into<MetricName>, delta: u64) {
    let name = name.into();
    with_registry(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `value`, updating its high-water mark.
pub fn gauge_set(name: impl Into<MetricName>, value: i64) {
    let name = name.into();
    with_registry(|r| {
        let g = r.gauges.entry(name).or_default();
        g.value = value;
        g.max = g.max.max(value);
    });
}

/// Records one observation into the named histogram.
pub fn observe(name: impl Into<MetricName>, value: u64) {
    let name = name.into();
    with_registry(|r| r.histograms.entry(name).or_default().observe(value));
}

/// Folds a locally-accumulated histogram into the named registry series in
/// one registry operation — the batch flush for hot loops that would
/// otherwise pay a mutex + map lookup per [`observe`] call. A no-op for
/// an empty histogram, so flushing never creates a phantom series.
pub fn histogram_merge(name: impl Into<MetricName>, local: &Histogram) {
    if local.count == 0 {
        return;
    }
    let name = name.into();
    with_registry(|r| r.histograms.entry(name).or_default().merge(local));
}

/// Point-in-time copy of every metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(MetricName, u64)>,
    /// Gauge name → last value + high-water mark, sorted by name.
    pub gauges: Vec<(MetricName, Gauge)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(MetricName, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of a counter, `0` if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Last value + high-water mark of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, g)| *g)
    }

    /// Summary of a histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// `true` when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as an aligned plain-text block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:{:>38} {:>12}", "value", "max");
            for (name, g) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {:>10} {:>12}", g.value, g.max);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms:{:>24} {:>10} {:>10} {:>10} {:>10}",
                "count", "mean", "p50", "p95", "max"
            );
            for (name, s) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    s.count, s.mean, s.p50, s.p95, s.max
                );
            }
        }
        out
    }
}

/// Copies the current state of every counter and histogram.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
        gauges: r.gauges.iter().map(|(n, g)| (n.clone(), *g)).collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.summary()))
            .collect(),
    })
}

/// Clears every metric (used by tests and long-lived hosts between runs).
pub fn reset() {
    with_registry(|r| {
        r.counters.clear();
        r.gauges.clear();
        r.histograms.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{MutexGuard, PoisonError};

    /// The registry is process-global and the harness runs tests on
    /// parallel threads, so every test that resets or reads it holds this
    /// lock: otherwise one test's `reset` can wipe another's series
    /// between its writes and its asserts.
    fn registry_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate() {
        let _registry = registry_guard();
        reset();
        counter_add("test.counter_a", 2);
        counter_add("test.counter_a", 3);
        counter_add("test.counter_b", 1);
        let snap = snapshot();
        assert_eq!(snap.counter("test.counter_a"), 5);
        assert_eq!(snap.counter("test.counter_b"), 1);
        assert_eq!(snap.counter("test.counter_missing"), 0);
        reset();
        assert_eq!(snapshot().counter("test.counter_a"), 0);
    }

    #[test]
    fn gauges_keep_last_value_and_high_water_mark() {
        let _registry = registry_guard();
        reset();
        gauge_set("test.depth", 3);
        gauge_set("test.depth", 9);
        gauge_set("test.depth", 2);
        let g = snapshot().gauge("test.depth").expect("gauge recorded");
        assert_eq!(g.value, 2);
        assert_eq!(g.max, 9);
        assert!(snapshot().gauge("test.depth_missing").is_none());
        reset();
        assert!(snapshot().gauge("test.depth").is_none());
    }

    #[test]
    fn labeled_names_form_distinct_series() {
        let _registry = registry_guard();
        reset();
        for shard in 0..6 {
            gauge_set(labeled("test.shard.busy", "shard", shard), shard);
        }
        let snap = snapshot();
        // Every shard reports — including indices past any static table.
        for shard in 0..6i64 {
            let name = labeled("test.shard.busy", "shard", shard);
            assert_eq!(snap.gauge(&name).expect("series exists").value, shard);
        }
        assert_eq!(labeled("test.x", "k", "v"), "test.x{k=v}");
        reset();
    }

    #[test]
    fn histogram_summary_tracks_distribution() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i);
        }
        let s = h.summary();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.mean),
            (100, 5_050, 1, 100, 50)
        );
        // Rank 50 sits in [32, 64); rank 95 in [64, 128), clamped to max.
        assert_eq!((s.p50, s.p95), (64, 100));
    }

    #[test]
    fn integer_quantiles_are_exact_rank_and_clamped() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 400, 1_000] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.mean), (5, 100, 1_000, 400));
        // Rank for p50 over 5 samples is ceil(0.5×5)=3 → the 300 µs sample's
        // bucket [256,512) → upper edge 512.
        assert_eq!(h.quantile(500_000), 512);
        // p99 rank 5 → bucket [512,1024) upper edge 1024 clamps to max 1000.
        assert_eq!(h.quantile(990_000), 1_000);
        // Degenerate: single value clamps to itself at every quantile.
        let mut one = Histogram::default();
        one.observe(750);
        assert_eq!(one.quantile(1), 750);
        assert_eq!(one.quantile(1_000_000), 750);
        // 0 shares bucket [0, 2), whose upper edge 2 clamps to max 1.
        let mut low = Histogram::default();
        low.observe(0);
        low.observe(1);
        assert_eq!(low.summary().min, 0);
        assert_eq!(low.quantile(1), 1);
        assert_eq!(Histogram::default().quantile(500_000), 0);
    }

    #[test]
    fn seconds_scale_quantiles_stay_within_a_power_of_two() {
        // Values past 2^23 µs (8.4 s) keep buckets of their own: each
        // estimate is at least the exact nearest-rank value, below twice it.
        let values = [10_000_000u64, 16_000_000, 100_000_000, 1 << 40];
        let mut h = Histogram::default();
        for &v in &values {
            h.observe(v);
        }
        for (q_ppm, exact) in [250_000u64, 500_000, 750_000, 1_000_000]
            .into_iter()
            .zip(values)
        {
            let estimate = h.quantile(q_ppm);
            assert!(
                estimate >= exact && estimate < 2 * exact,
                "q {q_ppm} ppm: {estimate} against {exact}"
            );
        }
    }

    #[test]
    fn merged_histogram_matches_streaming_observation() {
        // Split one observation stream across two local histograms, merge,
        // and compare against observing the whole stream into one — the
        // hot-loop batching contract.
        let stream: Vec<u64> = (1..=500).map(|i| i * 37 % 1_024 + 1).collect();
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &v) in stream.iter().enumerate() {
            whole.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        left.merge(&right);
        left.merge(&Histogram::default()); // empty merge is a no-op
        assert_eq!(left, whole);

        // The registry flush: merging creates/extends the named series, and
        // an empty flush creates nothing.
        let _registry = registry_guard();
        reset();
        histogram_merge("test.merge_us", &left);
        histogram_merge("test.merge_empty", &Histogram::default());
        let snap = snapshot();
        assert_eq!(snap.histogram("test.merge_us"), Some(&whole.summary()));
        assert!(snap.histogram("test.merge_empty").is_none());
        reset();
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().summary();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.mean, s.p50, s.p95),
            (0, 0, 0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn render_text_lists_metrics() {
        let _registry = registry_guard();
        reset();
        counter_add("test.render", 7);
        observe("test.render_us", 500);
        let text = snapshot().render_text();
        assert!(text.contains("test.render"));
        assert!(text.contains('7'));
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with("test.render_us"))
            .expect("histogram row");
        // count, mean, p50, p95, max — all integers.
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields, ["test.render_us", "1", "500", "500", "500", "500"]);
        reset();
    }
}
