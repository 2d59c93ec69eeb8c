//! Measurement harness replicating the paper's methodology (§IV-B-2):
//! warm the device with 200 inferences, then report the mean over another
//! 800 runs. Run-to-run noise is seeded and reproducible.

use crate::device::{DeviceModel, Precision};
use crate::fusion::fuse_network;
use crate::latency::{kernel_latency_ms, network_latency_ms};
use crate::profile::{LatencyTable, LayerProfile};
use crate::rng::{XorShift64Star, JUMP_DRAWS};
use netcut_graph::{Fnv1a, Network};
use netcut_obs as obs;
use serde::{Deserialize, Serialize};

/// Short stable label for a precision, used in trace fields.
fn precision_label(precision: Precision) -> &'static str {
    match precision {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
        Precision::Int8 => "int8",
    }
}

/// Number of warm-up inferences before timing starts.
pub const WARMUP_RUNS: usize = 200;
/// Number of timed inferences averaged into a [`Measurement`].
pub const TIMED_RUNS: usize = 800;

/// Uniform draws behind one run's noise.
pub(crate) const DRAWS_PER_RUN: usize = 4;
/// Interleaved lanes the timed runs are drawn in: lane `k` draws runs
/// `k * LANE_RUNS ..` from its own copy of the generator.
pub(crate) const LANES: usize = 4;
/// Timed runs per lane.
const LANE_RUNS: usize = TIMED_RUNS / LANES;

// One jump skips the warm-up's draws, and one more separates the starts of
// consecutive lanes.
const _: () = assert!(
    WARMUP_RUNS * DRAWS_PER_RUN == JUMP_DRAWS
        && LANE_RUNS * DRAWS_PER_RUN == JUMP_DRAWS
        && LANE_RUNS * LANES == TIMED_RUNS
);

/// Result of timing a network on the device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Mean latency over the timed runs, milliseconds.
    pub mean_ms: f64,
    /// Sample standard deviation over the timed runs, milliseconds.
    pub std_ms: f64,
    /// 95th-percentile run latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile run latency, milliseconds — the figure a hard
    /// real-time budget should be checked against.
    pub p99_ms: f64,
    /// Worst observed run, milliseconds.
    pub max_ms: f64,
    /// Number of timed runs.
    pub runs: usize,
}

impl Measurement {
    /// Fraction of timed runs that exceeded `deadline_ms`, assuming the
    /// observed Gaussian-like jitter (computed from mean/std rather than
    /// stored samples).
    pub fn miss_rate(&self, deadline_ms: f64) -> f64 {
        if self.std_ms <= 0.0 {
            return if self.mean_ms > deadline_ms { 1.0 } else { 0.0 };
        }
        // Normal-tail approximation via the complementary error function
        // (Abramowitz–Stegun rational approximation).
        let z = (deadline_ms - self.mean_ms) / self.std_ms;
        0.5 * erfc_approx(z / std::f64::consts::SQRT_2)
    }
}

/// Rational approximation of `erfc(x)` accurate to ~1e-7.
fn erfc_approx(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.5 * ax);
    let tau = t
        * (-ax * ax - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

/// The nearest-rank 95th and 99th percentiles and the maximum of
/// `samples` under [`f64::total_cmp`], reordering `samples` in place.
///
/// Selects the 95th-percentile rank, then sorts only the samples above it:
/// the same order statistics a full sort yields, bit for bit, without
/// paying to order the bottom 95 %.
///
/// # Panics
///
/// Panics if `samples` is empty.
fn tail_order_statistics(samples: &mut [f64]) -> (f64, f64, f64) {
    let last = samples.len() - 1;
    let rank = |q: f64| (last as f64 * q).round() as usize;
    let p95 = rank(0.95);
    samples.select_nth_unstable_by(p95, f64::total_cmp);
    samples[p95 + 1..].sort_unstable_by(f64::total_cmp);
    (samples[p95], samples[rank(0.99)], samples[last])
}

/// A device + precision pair on which networks are timed and profiled.
///
/// # Example
///
/// ```
/// use netcut_graph::zoo;
/// use netcut_sim::{DeviceModel, Precision, Session};
///
/// let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
/// let table = session.profile(&zoo::resnet50(), 7);
/// assert!(table.total_layer_time_ms() > table.end_to_end_ms());
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    device: DeviceModel,
    precision: Precision,
}

// Sessions are shared across evaluation worker threads by reference; they
// are plain data, so this holds structurally — assert it stays that way.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl Session {
    /// Creates a session for `device` at `precision`.
    pub fn new(device: DeviceModel, precision: Precision) -> Self {
        Session { device, precision }
    }

    /// A stable 64-bit hash of the measurement configuration: every
    /// [`DeviceModel`] constant plus the precision. Two sessions with the
    /// same fingerprint produce bit-identical measurements for the same
    /// network and seed, so the value is usable as a memo-cache key
    /// component alongside whatever names the network's structure.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let d = &self.device;
        h.str(&d.name);
        for v in [
            d.peak_gflops,
            d.fp16_speedup,
            d.int8_speedup,
            d.mem_bandwidth_gbs,
            d.kernel_overhead_us,
            d.event_overhead_us,
            d.jitter_rel,
            d.occupancy_half_elems,
            d.ramp_penalty,
            d.ramp_halfpoint_ms,
        ] {
            h.u64(v.to_bits());
        }
        h.byte(match self.precision {
            Precision::Fp32 => 0,
            Precision::Fp16 => 1,
            Precision::Int8 => 2,
        });
        h.finish()
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The deployment precision in use.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Noise-free analytic latency of `net` (no measurement jitter).
    pub fn ideal_latency_ms(&self, net: &Network) -> f64 {
        network_latency_ms(net, &self.device, self.precision)
    }

    /// Times `net` end to end: 200 warm-up runs followed by 800 timed runs
    /// whose mean and standard deviation are returned. The RNG is seeded
    /// from `seed` and the network name, so measurements are reproducible.
    ///
    /// The runs take their noise from one serial stream of draws. The
    /// discarded warm-up is skipped with one jump, and the timed runs are
    /// drawn in four interleaved lanes that start one jump apart, so every
    /// run gets the draws a serial loop would give it and the sums run in
    /// run order: the result is that loop's, bit for bit.
    pub fn measure(&self, net: &Network, seed: u64) -> Measurement {
        let mut span = obs::span("sim.measure");
        if span.is_recording() {
            span.field("network", net.name());
            span.field("device", self.device.name.as_str());
            span.field("precision", precision_label(self.precision));
            span.field("seed", seed);
        }
        let base = self.ideal_latency_ms(net);
        let mut rng = self.rng(net, seed);
        // Warm-up: the first runs are slower (cold caches, clock ramp) and
        // are discarded, as the paper does, so only their draws matter.
        {
            let mut warmup = obs::span("sim.measure.warmup");
            warmup.field("runs", WARMUP_RUNS);
            rng.jump();
        }
        let mut timed = obs::span("sim.measure.timed");
        timed.field("runs", TIMED_RUNS);
        let mut lanes: [XorShift64Star; LANES] = std::array::from_fn(|k| {
            if k > 0 {
                rng.jump();
            }
            rng.clone()
        });
        let mut samples = vec![0.0; TIMED_RUNS];
        for run in 0..LANE_RUNS {
            for (k, lane) in lanes.iter_mut().enumerate() {
                samples[k * LANE_RUNS + run] = base * (1.0 + self.noise(lane));
            }
        }
        let (sum, sum_sq) = samples.iter().fold((0.0, 0.0), |(sum, sum_sq), &run| {
            (sum + run, sum_sq + run * run)
        });
        drop(timed);
        let n = TIMED_RUNS as f64;
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0) * n / (n - 1.0);
        let (p95_ms, p99_ms, max_ms) = tail_order_statistics(&mut samples);
        let measurement = Measurement {
            mean_ms: mean,
            std_ms: var.sqrt(),
            p95_ms,
            p99_ms,
            max_ms,
            runs: TIMED_RUNS,
        };
        obs::counter_add("sim.measurements", 1);
        let mean_us = (measurement.mean_ms * 1e3).round() as u64;
        obs::observe("sim.measure.mean_us", mean_us);
        span.field("mean_ms", measurement.mean_ms);
        span.field("std_ms", measurement.std_ms);
        span.field("p99_ms", measurement.p99_ms);
        measurement
    }

    /// Profiles `net` per fused kernel with CUDA-event-style
    /// instrumentation: each recorded kernel pays
    /// [`DeviceModel::event_overhead_us`] extra, so the per-layer sum
    /// exceeds the end-to-end measurement — the over-additivity the paper's
    /// ratio estimator corrects for.
    pub fn profile(&self, net: &Network, seed: u64) -> LatencyTable {
        let mut span = obs::span("sim.profile");
        if span.is_recording() {
            span.field("network", net.name());
            span.field("device", self.device.name.as_str());
            span.field("precision", precision_label(self.precision));
        }
        let kernels = fuse_network(net);
        span.field("kernels", kernels.len());
        let mut rng = self.rng(net, seed ^ 0x9e3779b97f4a7c15);
        let event_ms = self.device.event_overhead_us * 1e-3;
        // Per-layer records are taken during full-network runs, so every
        // layer executes under the same (ramped) clocks as the end-to-end
        // measurement.
        let steady: f64 = kernels
            .iter()
            .map(|k| kernel_latency_ms(k, &self.device, self.precision))
            .sum();
        let ramp = self.device.ramp_factor(steady);
        let layers = kernels
            .iter()
            .map(|k| {
                let base = kernel_latency_ms(k, &self.device, self.precision) * ramp;
                let noisy = base * (1.0 + self.noise(&mut rng)) + event_ms;
                if obs::enabled() {
                    obs::instant(
                        "sim.profile.layer",
                        &[
                            ("layer", net.node(k.primary).name().into()),
                            ("latency_ms", noisy.into()),
                        ],
                    );
                }
                LayerProfile {
                    tail: k.tail(),
                    name: net.node(k.primary).name().to_owned(),
                    members: k.members.clone(),
                    latency_ms: noisy,
                }
            })
            .collect();
        let end_to_end = self.measure(net, seed).mean_ms;
        obs::counter_add("sim.profiles", 1);
        span.field("end_to_end_ms", end_to_end);
        LatencyTable::new(net.name().to_owned(), layers, end_to_end)
    }

    fn rng(&self, net: &Network, seed: u64) -> XorShift64Star {
        let mut h = Fnv1a::new();
        h.bytes(net.name().as_bytes());
        XorShift64Star::seed_from_u64(h.finish() ^ seed)
    }

    fn noise(&self, rng: &mut XorShift64Star) -> f64 {
        // Sum of uniforms ≈ Gaussian; cheap, deterministic, bounded.
        let sum = (0..DRAWS_PER_RUN).fold(0.0, |sum, _| sum + rng.next_f64());
        let u = sum / DRAWS_PER_RUN as f64 - 0.5;
        u * 2.0 * 1.732 * self.device.jitter_rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::{zoo, HeadSpec};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn session() -> Session {
        Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
    }

    /// The serial loop `measure` and `profile` ran before the jump and the
    /// lanes: every draw from the `rand` stand-in's `SmallRng`, in order.
    mod serial {
        use super::*;

        fn rng(net: &Network, seed: u64) -> SmallRng {
            let mut h = Fnv1a::new();
            h.bytes(net.name().as_bytes());
            SmallRng::seed_from_u64(h.finish() ^ seed)
        }

        fn noise(session: &Session, rng: &mut SmallRng) -> f64 {
            let u: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 4.0 - 0.5;
            u * 2.0 * 1.732 * session.device.jitter_rel
        }

        pub(super) fn measure(session: &Session, net: &Network, seed: u64) -> Measurement {
            let base = session.ideal_latency_ms(net);
            let mut rng = rng(net, seed);
            let mut warm_penalty = 0.35;
            for _ in 0..WARMUP_RUNS {
                let _cold = base * (1.0 + warm_penalty + noise(session, &mut rng));
                warm_penalty *= 0.97;
            }
            let mut samples = Vec::with_capacity(TIMED_RUNS);
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for _ in 0..TIMED_RUNS {
                let run = base * (1.0 + noise(session, &mut rng));
                sum += run;
                sum_sq += run * run;
                samples.push(run);
            }
            let n = TIMED_RUNS as f64;
            let mean = sum / n;
            let var = (sum_sq / n - mean * mean).max(0.0) * n / (n - 1.0);
            let (p95_ms, p99_ms, max_ms) = tail_order_statistics(&mut samples);
            Measurement {
                mean_ms: mean,
                std_ms: var.sqrt(),
                p95_ms,
                p99_ms,
                max_ms,
                runs: TIMED_RUNS,
            }
        }

        pub(super) fn profile(session: &Session, net: &Network, seed: u64) -> LatencyTable {
            let (device, precision) = (&session.device, session.precision);
            let kernels = fuse_network(net);
            let mut rng = rng(net, seed ^ 0x9e3779b97f4a7c15);
            let event_ms = device.event_overhead_us * 1e-3;
            let steady: f64 = kernels
                .iter()
                .map(|k| kernel_latency_ms(k, device, precision))
                .sum();
            let ramp = device.ramp_factor(steady);
            let layers = kernels
                .iter()
                .map(|k| {
                    let base = kernel_latency_ms(k, device, precision) * ramp;
                    LayerProfile {
                        tail: k.tail(),
                        name: net.node(k.primary).name().to_owned(),
                        members: k.members.clone(),
                        latency_ms: base * (1.0 + noise(session, &mut rng)) + event_ms,
                    }
                })
                .collect();
            let end_to_end = measure(session, net, seed).mean_ms;
            LatencyTable::new(net.name().to_owned(), layers, end_to_end)
        }
    }

    fn measurement_bits(m: &Measurement) -> [u64; 6] {
        [
            m.mean_ms.to_bits(),
            m.std_ms.to_bits(),
            m.p95_ms.to_bits(),
            m.p99_ms.to_bits(),
            m.max_ms.to_bits(),
            m.runs as u64,
        ]
    }

    fn table_bits(t: &LatencyTable) -> Vec<u64> {
        let layers = t.layers().iter().map(|l| l.latency_ms.to_bits());
        layers.chain([t.end_to_end_ms().to_bits()]).collect()
    }

    #[test]
    fn measure_and_profile_equal_the_serial_loop_bit_for_bit() {
        let s = session();
        let head = HeadSpec::default();
        let mut trns = 0;
        for source in zoo::extended_networks() {
            for k in 0..source.num_blocks() {
                let trn = source.cut_blocks(k).unwrap().with_head(&head);
                for seed in [0, 11, 13, 42, u64::MAX] {
                    let at = format!("{} at seed {seed}", trn.name());
                    let (m, reference) = (s.measure(&trn, seed), serial::measure(&s, &trn, seed));
                    assert_eq!(measurement_bits(&m), measurement_bits(&reference), "{at}");
                    let (t, reference) = (s.profile(&trn, seed), serial::profile(&s, &trn, seed));
                    assert_eq!(t, reference, "{at}");
                    assert_eq!(table_bits(&t), table_bits(&reference), "{at}");
                }
                trns += 1;
            }
        }
        assert_eq!(trns, 163, "blockwise TRNs of the extended zoo");
    }

    #[test]
    fn session_fingerprint_separates_configurations() {
        let a = session();
        assert_eq!(a.fingerprint(), session().fingerprint());
        let fp16 = Session::new(DeviceModel::jetson_xavier(), Precision::Fp16);
        assert_ne!(a.fingerprint(), fp16.fingerprint());
        let nano = Session::new(DeviceModel::jetson_nano(), Precision::Int8);
        assert_ne!(a.fingerprint(), nano.fingerprint());
    }

    #[test]
    fn measurement_is_reproducible() {
        let net = zoo::mobilenet_v1(0.5);
        let a = session().measure(&net, 1);
        let b = session().measure(&net, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_jitter_slightly() {
        let net = zoo::mobilenet_v1(0.5);
        let a = session().measure(&net, 1);
        let b = session().measure(&net, 2);
        assert_ne!(a.mean_ms, b.mean_ms);
        assert!((a.mean_ms - b.mean_ms).abs() / a.mean_ms < 0.02);
    }

    #[test]
    fn mean_tracks_ideal_latency() {
        let net = zoo::mobilenet_v2(1.0);
        let s = session();
        let m = s.measure(&net, 3);
        let ideal = s.ideal_latency_ms(&net);
        assert!((m.mean_ms - ideal).abs() / ideal < 0.01);
        assert!(m.std_ms > 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let net = zoo::resnet50();
        let m = session().measure(&net, 21);
        assert!(m.mean_ms <= m.p95_ms);
        assert!(m.p95_ms <= m.p99_ms);
        assert!(m.p99_ms <= m.max_ms);
        // With 2 % jitter the p99 sits roughly 2.3 sigma above the mean.
        let sigmas = (m.p99_ms - m.mean_ms) / m.std_ms;
        assert!((1.8..=3.2).contains(&sigmas), "p99 at {sigmas} sigma");
    }

    #[test]
    fn miss_rate_tracks_the_tail() {
        let net = zoo::mobilenet_v2(1.0);
        let m = session().measure(&net, 22);
        assert!(m.miss_rate(m.mean_ms * 2.0) < 1e-6);
        assert!(m.miss_rate(m.mean_ms * 0.5) > 0.999);
        let at_mean = m.miss_rate(m.mean_ms);
        assert!((0.4..=0.6).contains(&at_mean), "miss at mean = {at_mean}");
        // Around p99 the miss rate is ≈ 1 %.
        let at_p99 = m.miss_rate(m.p99_ms);
        assert!((0.001..=0.05).contains(&at_p99), "miss at p99 = {at_p99}");
    }

    #[test]
    fn miss_rate_with_zero_std_is_a_step() {
        let mut m = Measurement {
            mean_ms: 1.0,
            std_ms: 0.0,
            p95_ms: 1.0,
            p99_ms: 1.0,
            max_ms: 1.0,
            runs: 800,
        };
        // Deterministic latency: miss iff the mean exceeds the deadline.
        assert_eq!(m.miss_rate(2.0), 0.0);
        assert_eq!(m.miss_rate(0.5), 1.0);
        // Exactly on the deadline counts as a hit (<=, not <).
        assert_eq!(m.miss_rate(1.0), 0.0);
        // Negative std (corrupt input) degrades to the same step function.
        m.std_ms = -0.1;
        assert_eq!(m.miss_rate(2.0), 0.0);
        assert_eq!(m.miss_rate(0.5), 1.0);
    }

    #[test]
    fn miss_rate_saturates_at_extreme_z() {
        let m = Measurement {
            mean_ms: 1.0,
            std_ms: 1e-9,
            p95_ms: 1.0,
            p99_ms: 1.0,
            max_ms: 1.0,
            runs: 800,
        };
        // z -> +inf / -inf must saturate cleanly, not overflow to NaN.
        let far_above = m.miss_rate(1e9);
        let far_below = m.miss_rate(-1e9);
        assert!(far_above.is_finite() && far_above >= 0.0);
        assert!(far_below.is_finite() && far_below <= 1.0);
        assert!(far_above < 1e-12, "miss far above deadline = {far_above}");
        assert!(far_below > 1.0 - 1e-12, "miss far below = {far_below}");
    }

    #[test]
    fn miss_rate_at_mean_is_one_half() {
        let m = Measurement {
            mean_ms: 3.0,
            std_ms: 0.2,
            p95_ms: 3.3,
            p99_ms: 3.5,
            max_ms: 3.6,
            runs: 800,
        };
        // Deadline at the mean of a symmetric distribution: 50 % misses.
        assert!((m.miss_rate(3.0) - 0.5).abs() < 1e-6);
        // Symmetry: P(miss at mean - d) + P(miss at mean + d) = 1.
        for d in [0.01, 0.1, 0.5, 1.0] {
            let total = m.miss_rate(3.0 - d) + m.miss_rate(3.0 + d);
            assert!((total - 1.0).abs() < 1e-6, "asymmetric at d={d}: {total}");
        }
    }

    #[test]
    fn miss_rate_is_monotone_in_the_deadline() {
        let m = Measurement {
            mean_ms: 1.0,
            std_ms: 0.05,
            p95_ms: 1.08,
            p99_ms: 1.12,
            max_ms: 1.2,
            runs: 800,
        };
        let mut prev = 1.0;
        let mut deadline = 0.5;
        while deadline <= 1.5 {
            let rate = m.miss_rate(deadline);
            assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
            assert!(rate <= prev + 1e-9, "not monotone at {deadline}");
            prev = rate;
            deadline += 0.01;
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        // Reference values for the Abramowitz–Stegun approximation
        // (accurate to ~1.2e-7): erfc(0) = 1, erfc(±1), erfc(2).
        assert!((erfc_approx(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc_approx(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc_approx(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!((erfc_approx(2.0) - 0.004_677_735).abs() < 1e-6);
        // One-sigma deadline headroom corresponds to ~15.87 % miss rate.
        let m = Measurement {
            mean_ms: 1.0,
            std_ms: 0.1,
            p95_ms: 1.16,
            p99_ms: 1.23,
            max_ms: 1.3,
            runs: 800,
        };
        assert!((m.miss_rate(1.1) - 0.158_655_3).abs() < 1e-4);
    }

    #[test]
    fn tail_order_statistics_match_a_full_sort() {
        // Seeded draws from a handful of levels, so every vector carries
        // ties (and the signed zeros `total_cmp` orders apart).
        let mut rng = SmallRng::seed_from_u64(0x0d5e);
        for len in [1usize, 2, 20, 21, 799, 800, 801, 1000] {
            for _ in 0..8 {
                let levels = 1 + rng.gen_range(0..12u32);
                let samples: Vec<f64> = (0..len)
                    .map(|_| match rng.gen_range(0..levels) {
                        0 => -0.0,
                        1 => 0.0,
                        l => f64::from(l) * 0.125 - 0.5,
                    })
                    .collect();
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let pct = |q: f64| sorted[((len - 1) as f64 * q).round() as usize];
                let mut reordered = samples.clone();
                let (p95, p99, max) = tail_order_statistics(&mut reordered);
                assert_eq!(p95.to_bits(), pct(0.95).to_bits(), "p95 of {samples:?}");
                assert_eq!(p99.to_bits(), pct(0.99).to_bits(), "p99 of {samples:?}");
                assert_eq!(
                    max.to_bits(),
                    sorted[len - 1].to_bits(),
                    "max of {samples:?}"
                );
            }
        }
    }

    #[test]
    fn profile_is_over_additive() {
        let net = zoo::resnet50();
        let table = session().profile(&net, 11);
        assert!(
            table.total_layer_time_ms() > table.end_to_end_ms(),
            "event overhead must inflate the per-layer sum"
        );
        // ...but not wildly: within ~25 %.
        assert!(table.total_layer_time_ms() < table.end_to_end_ms() * 1.25);
    }
}
