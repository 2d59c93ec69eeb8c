//! Simulated request streams: the mixed EMG + visual-frame arrival process
//! the serving runtime schedules.
//!
//! Arrivals are a seeded Poisson process (exponential inter-arrival times,
//! rounded to integer microseconds); the EMG/visual split is likewise a
//! pure function of the seed, so a workload is fully reproducible from
//! `(rps, duration, seed)` alone. Service-time noise is not part of a
//! request: each shard draws it with [`service_noise_ppm`] when it prices
//! the request.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// One million — the fixed-point base for all parts-per-million arithmetic
/// in this crate (noise factors, fault magnitudes, miss rates).
pub const PPM: u64 = 1_000_000;

/// What kind of inference a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A camera frame for the visual classifier — served by some rung of
    /// the TRN ladder.
    Visual,
    /// An EMG window classification — fixed-cost, never degraded.
    Emg,
}

/// One simulated inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Sequential id (0-based, arrival order).
    pub id: u64,
    /// Arrival time, microseconds since the start of the run.
    pub arrival_us: u64,
    /// Request kind.
    pub kind: RequestKind,
}

/// Mixed into [`Workload::seed`] to seed the arrival stream.
const ARRIVAL_SALT: u64 = 0x7365_7276_655f_7771;

/// Parameters of a simulated request stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Mean arrival rate, requests per second.
    pub rps: u64,
    /// Stream duration, microseconds.
    pub duration_us: u64,
    /// Fraction of requests that are EMG windows, parts per million.
    pub emg_share_ppm: u64,
    /// Seed for arrivals and the kind mix.
    pub seed: u64,
}

impl Workload {
    /// Generates the request stream: Poisson arrivals at `rps` over
    /// `duration_us`, each tagged EMG with probability `emg_share_ppm`.
    ///
    /// # Panics
    /// Panics if `rps` is zero.
    pub fn generate(&self) -> Vec<Request> {
        assert!(self.rps > 0, "workload needs a positive request rate");
        let mean_us = 1_000_000.0 / self.rps as f64;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ARRIVAL_SALT);
        let mut requests = Vec::new();
        let mut t = 0u64;
        let mut id = 0u64;
        loop {
            // Exponential inter-arrival, clamped to at least 1 µs so ids
            // and arrival order coincide.
            let u: f64 = rng.gen();
            let dt = round_half_away(-(1.0 - u).ln() * mean_us).max(1);
            t = t.saturating_add(dt);
            if t >= self.duration_us {
                break;
            }
            let kind = if rng.next_u64() % PPM < self.emg_share_ppm {
                RequestKind::Emg
            } else {
                RequestKind::Visual
            };
            requests.push(Request {
                id,
                arrival_us: t,
                kind,
            });
            id += 1;
        }
        requests
    }
}

/// `x` rounded half away from zero — the same integer as
/// `x.round() as u64` for `-0.0 ≤ x < 2⁵³`, without the libm call
/// `f64::round` is on the x86-64 baseline. `x − trunc(x)` is exact in that
/// range, so the half-way test has no rounding of its own. An
/// inter-arrival time is at most `−ln(2⁻⁵³) · 10⁶ / rps` ≈ 3.7 × 10⁷ µs.
fn round_half_away(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

/// Per-request service-time noise factor in parts per million, uniform in
/// `[PPM - jitter_ppm, PPM + jitter_ppm]`. A pure function of
/// `(seed, id)`, so a shard draws it when it prices a request
/// ([`crate::Shard::draw_noise_ppm`]) and nothing stores it.
pub fn service_noise_ppm(seed: u64, id: u64, jitter_ppm: u64) -> u64 {
    let h = splitmix64(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x006e_6f69_7365);
    let span = 2 * jitter_ppm + 1;
    PPM - jitter_ppm + h % span
}

/// SplitMix64 finalizer — the one hash used for every per-request
/// pseudo-random decision (noise, fault drops) in this crate.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload {
            rps: 2000,
            duration_us: 1_000_000,
            emg_share_ppm: 100_000,
            seed: 11,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = workload().generate();
        let b = workload().generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_us, y.arrival_us);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn arrival_count_tracks_rate() {
        let n = workload().generate().len() as u64;
        // One second at 2000 rps: Poisson, so allow a generous band.
        assert!((1500..=2500).contains(&n), "generated {n} requests");
    }

    #[test]
    fn arrivals_are_ordered_and_in_range() {
        let reqs = workload().generate();
        for pair in reqs.windows(2) {
            assert!(pair[0].arrival_us < pair[1].arrival_us);
        }
        for (k, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, k as u64);
            assert!(r.arrival_us < 1_000_000);
        }
    }

    #[test]
    fn emg_share_is_roughly_honoured() {
        let reqs = workload().generate();
        let emg = reqs.iter().filter(|r| r.kind == RequestKind::Emg).count();
        let share = emg as f64 / reqs.len() as f64;
        assert!((0.05..=0.16).contains(&share), "EMG share {share}");
    }

    /// The arrival rounding against the `f64::round` expression it
    /// replaced, on the edge cases (`2⁵² + 1` catches `(x + 0.5) as u64`,
    /// whose sum rounds to even there) and on 10⁶ inter-arrival draws of
    /// the generator's own stream at three rates.
    #[test]
    fn round_half_away_matches_f64_round() {
        let reference = |x: f64| x.round().max(1.0) as u64;
        for x in [
            -0.0,
            0.0,
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_497.0,
            9_007_199_254_740_991.0,
        ] {
            assert_eq!(round_half_away(x).max(1), reference(x), "x = {x:e}");
        }
        for rps in [1u64, 2_000, 210_000] {
            let w = Workload { rps, ..workload() };
            let mean_us = 1_000_000.0 / rps as f64;
            let mut rng = SmallRng::seed_from_u64(w.seed ^ ARRIVAL_SALT);
            for _ in 0..1_000_000 {
                let u: f64 = rng.gen();
                let x = -(1.0 - u).ln() * mean_us;
                assert_eq!(
                    round_half_away(x).max(1),
                    reference(x),
                    "rps {rps}, x = {x:e}"
                );
                rng.next_u64();
            }
        }
    }

    #[test]
    fn noise_stays_inside_the_jitter_band() {
        for id in 0..10_000 {
            let n = service_noise_ppm(11, id, 30_000);
            assert!((PPM - 30_000..=PPM + 30_000).contains(&n));
        }
        // Zero jitter collapses to the neutral factor.
        assert_eq!(service_noise_ppm(11, 7, 0), PPM);
    }

    #[test]
    fn noise_is_a_pure_function() {
        assert_eq!(
            service_noise_ppm(3, 42, 30_000),
            service_noise_ppm(3, 42, 30_000)
        );
        // Different ids decorrelate.
        let distinct: std::collections::BTreeSet<u64> = (0..100)
            .map(|id| service_noise_ppm(3, id, 30_000))
            .collect();
        assert!(distinct.len() > 90);
    }
}
