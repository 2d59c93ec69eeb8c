//! Sharded serving: partitioning the worker pool across simulated devices.
//!
//! A [`Shard`] is one device's slice of the runtime — its own TRN ladder
//! (the Pareto set re-explored *on that device*: a Jetson Nano keeps fewer,
//! faster rungs than a Xavier under the same deadline), its own fault plan,
//! and its own service-noise seed and jitter. The [`ShardRouter`] is
//! the placement policy: **least predicted completion time** over every
//! dispatch candidate the shards offer, with spill — a request that one
//! shard would reject at admission routes to any shard that can still take
//! it.
//!
//! Routing is a pure function of virtual-time queue state (no wall clock,
//! no randomness), so placement — like batching — is bit-identical across
//! `--jobs` settings.

use crate::faults::FaultPlan;
use crate::ladder::TrnLadder;
use crate::request::service_noise_ppm;

/// One device's slice of a sharded server.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Device name, used as the shard key in summaries (`jetson-xavier`).
    pub name: String,
    /// The degradation ladder explored on this shard's device.
    pub ladder: TrnLadder,
    /// Workers this shard owns (its share of the pool).
    pub workers: usize,
    /// Fault plan injected on this shard's device.
    pub faults: FaultPlan,
    /// Seed of this shard's service-noise draws.
    pub noise_seed: u64,
    /// Half-width of this shard's service-noise band, ppm (its device's
    /// jitter; 0 = no noise).
    pub jitter_ppm: u64,
}

impl Shard {
    /// This shard's service-noise factor for request `id`, ppm: a pure
    /// function of `(noise_seed, id)`, drawn when a request is priced.
    pub fn draw_noise_ppm(&self, id: u64) -> u64 {
        service_noise_ppm(self.noise_seed, id, self.jitter_ppm)
    }
}

/// One way a request could be dispatched right now: solo on some shard's
/// earliest-free worker, or joining a shard's still-pending batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Shard index the dispatch lands on.
    pub shard: usize,
    /// `true` when this candidate joins an open batch instead of starting
    /// a fresh dispatch.
    pub join: bool,
    /// Predicted start of service, microseconds of virtual time.
    pub start_us: u64,
    /// Predicted completion, microseconds of virtual time.
    pub completion_us: u64,
    /// `false` when taking this candidate would bust admission control
    /// (queue delay alone reaches the deadline).
    pub admissible: bool,
}

/// Least-predicted-completion-time placement with spill.
///
/// Preference order: admissible candidates before inadmissible ones (the
/// *spill* rule — one full shard never forces a reject while another shard
/// has room), then earliest predicted completion, then batch joins over
/// solo dispatches (a join consumes no extra worker time), then the lowest
/// shard index. The total order makes routing deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRouter;

impl ShardRouter {
    /// The routing order: a candidate with a smaller key wins. The event
    /// loop keeps the best candidate so far by this key as the shards
    /// offer theirs, replacing it only on a strictly smaller one, which
    /// is the choice [`Self::pick`] makes over the whole slate.
    pub fn key(c: &Candidate) -> (bool, u64, bool, usize) {
        (!c.admissible, c.completion_us, !c.join, c.shard)
    }

    /// Picks the winning candidate's index, or `None` on an empty slate.
    pub fn pick(candidates: &[Candidate]) -> Option<usize> {
        (0..candidates.len()).min_by_key(|&i| Self::key(&candidates[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(shard: usize, join: bool, completion_us: u64, admissible: bool) -> Candidate {
        Candidate {
            shard,
            join,
            start_us: 0,
            completion_us,
            admissible,
        }
    }

    #[test]
    fn earliest_completion_wins() {
        let picked = ShardRouter::pick(&[cand(0, false, 900, true), cand(1, false, 700, true)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn admissible_shard_beats_a_faster_but_full_one() {
        // Shard 0 finishes sooner but would reject at admission: spill to
        // shard 1 even though its completion is later.
        let picked = ShardRouter::pick(&[cand(0, false, 700, false), cand(1, false, 1_400, true)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn join_breaks_completion_ties() {
        let picked = ShardRouter::pick(&[cand(0, false, 900, true), cand(1, true, 900, true)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn lowest_shard_breaks_full_ties() {
        let picked = ShardRouter::pick(&[cand(1, false, 900, true), cand(0, false, 900, true)]);
        assert_eq!(picked, Some(1)); // index 1 holds shard 0
        assert!(ShardRouter::pick(&[]).is_none());
    }

    #[test]
    fn a_shard_draws_its_own_noise() {
        let shard = |noise_seed, jitter_ppm| Shard {
            name: "jetson-nano".into(),
            ladder: crate::ladder::TrnLadder::from_rungs(vec![crate::ladder::Rung {
                name: "cut0".into(),
                cutpoint: 0,
                latency_us: 100,
                accuracy: 0.8,
            }]),
            workers: 1,
            faults: FaultPlan::none(),
            noise_seed,
            jitter_ppm,
        };
        let noisy = shard(7, 30_000);
        for id in [0, 9, u64::from(u32::MAX) + 1] {
            assert_eq!(noisy.draw_noise_ppm(id), service_noise_ppm(7, id, 30_000));
            // Zero jitter is neutral at any id, past `u32` ones included.
            assert_eq!(shard(7, 0).draw_noise_ppm(id), crate::request::PPM);
        }
    }
}
