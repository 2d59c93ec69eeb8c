//! Dynamic batching: the formation policy that coalesces queued visual
//! requests into one batched inference.
//!
//! Batching trades per-request latency for throughput — a batch of `n`
//! finishes later than a batch of 1, but serves `n` requests in sublinear
//! time (weights stream once, launches amortize, occupancy rises; see
//! [`TrnLadder::batch_latency_us`]). The [`Batcher`] decides *when that
//! trade is safe*: a request may join a forming batch only if
//!
//! 1. the batch has not started in virtual time and is below `batch_max`;
//! 2. some rung's batched latency still fits the **tightest member's**
//!    remaining slack — batches of two or more are never formed on a
//!    predicted miss (solo dispatch keeps the best-effort rung-0 fallback);
//! 3. the batching overhead at that rung — batched latency minus the same
//!    rung's batch-1 latency — stays within the per-batch `slack_us`
//!    budget, so existing members are never delayed more than the operator
//!    allowed.
//!
//! Every decision is a pure function of integer-µs queue state, which
//! gives the batcher exact properties (pinned by property tests):
//! formation is **monotone in the slack budget** (more slack never shrinks
//! a batch), and `batch_max == 1` degenerates to the unbatched path
//! bit-for-bit.
//!
//! Admission compares the ladder's **calibrated** batch predictions
//! ([`TrnLadder::predicted_batch_latency_us`]) — identical to the
//! physical curve at the default identity calibration, and reflecting
//! the closed-loop controller's corrections after a hot-swap.
//!
//! Rule 3 depends only on the ladder, the batch size and the budget, so
//! the runtime evaluates it once per ladder ([`Batcher::lists`]): each
//! join then scans only the [`AdmissionLists`] entry for its batch size
//! for the first rung that passes rule 2.

use crate::ladder::TrnLadder;

/// The batch-formation policy: pure data, queried by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batcher {
    /// Largest batch the runtime may form (1 = batching off).
    pub batch_max: usize,
    /// Per-batch slack budget, microseconds: the most extra service time
    /// batching may add over serving the same rung at batch 1.
    pub slack_us: u64,
}

impl Batcher {
    /// A batcher that never coalesces — the unbatched baseline.
    pub fn off() -> Self {
        Batcher {
            batch_max: 1,
            slack_us: 0,
        }
    }

    /// `true` when this batcher can ever form a batch of two.
    pub fn enabled(&self) -> bool {
        self.batch_max > 1
    }

    /// Decides whether a batch of `size` members (the joiner included)
    /// starting at `start_us` with tightest absolute deadline
    /// `tightest_abs_us` is admissible, and if so on which rung: the most
    /// accurate rung whose batched latency fits the tightest member's
    /// slack *and* whose batching overhead fits the slack budget. With
    /// `degrade` off only the top rung is considered.
    ///
    /// Returns `None` when no rung qualifies — the runtime then leaves the
    /// batch as it was and dispatches the request solo. The runtime asks
    /// the same question of [`AdmissionLists`], which tabulate the
    /// overhead half of it once per ladder.
    pub fn admit(
        &self,
        ladder: &TrnLadder,
        start_us: u64,
        tightest_abs_us: u64,
        size: usize,
        degrade: bool,
    ) -> Option<usize> {
        if size > self.batch_max {
            return None;
        }
        let slack = tightest_abs_us.saturating_sub(start_us);
        self.overhead_fits(ladder, size, degrade)
            .find(|&r| ladder.predicted_batch_latency_us(r, size) <= slack)
    }

    /// The rungs whose batching overhead at `size` — predicted batched
    /// latency minus the same rung's predicted batch-1 latency — fits the
    /// slack budget, most accurate first; only the top rung with `degrade`
    /// off. The one home of the overhead rule: [`Self::admit`] scans it per
    /// call and [`Self::lists`] tabulates it per ladder.
    fn overhead_fits<'l>(
        &self,
        ladder: &'l TrnLadder,
        size: usize,
        degrade: bool,
    ) -> impl Iterator<Item = usize> + 'l {
        let budget = self.slack_us;
        let lowest = if degrade { 0 } else { ladder.top() };
        (lowest..ladder.len()).rev().filter(move |&r| {
            ladder.predicted_batch_latency_us(r, size) - ladder.predicted_batch_latency_us(r, 1)
                <= budget
        })
    }

    /// [`Self::admit`]'s overhead test evaluated once for `ladder`, for
    /// every join size, 2 to `batch_max`. For a fixed ladder, size and
    /// budget it always rules out the same rungs, so a join only has to
    /// compare the listed rungs' batched latencies against its slack.
    pub fn lists(&self, ladder: &TrnLadder, degrade: bool) -> AdmissionLists {
        let mut starts = vec![0];
        let mut rungs = Vec::new();
        for size in 2..=self.batch_max {
            rungs.extend(self.overhead_fits(ladder, size, degrade).map(|r| r as u32));
            starts.push(rungs.len() as u32);
        }
        AdmissionLists { starts, rungs }
    }

    /// Like [`Self::admit`], but the exit table is pinned
    /// (`--exit-table N`): the batch either fits at exit `pin` — clamped
    /// to the table, as everywhere in the pinned runtime — or is not
    /// formed at all. No other exit is ever considered.
    pub fn admit_pinned(
        &self,
        ladder: &TrnLadder,
        start_us: u64,
        tightest_abs_us: u64,
        size: usize,
        pin: usize,
    ) -> Option<usize> {
        if size > self.batch_max {
            return None;
        }
        let slack = tightest_abs_us.saturating_sub(start_us);
        let pin = pin.min(ladder.top());
        let batched = ladder.predicted_batch_latency_us(pin, size);
        (batched <= slack && batched - ladder.predicted_batch_latency_us(pin, 1) <= self.slack_us)
            .then_some(pin)
    }

    /// Plans one batch from the head of a queue: given requests waiting at
    /// `start_us` with absolute deadlines `deadlines_abs_us` (queue order),
    /// greedily grows the batch one member at a time through [`Self::admit`]
    /// and returns `(size, rung)` — the largest admissible prefix. The
    /// first member always dispatches (size ≥ 1), on the plain
    /// [`TrnLadder::select`] policy with its rung-0 best-effort fallback,
    /// exactly as the unbatched runtime would.
    ///
    /// # Panics
    /// Panics if `deadlines_abs_us` is empty.
    pub fn plan(
        &self,
        ladder: &TrnLadder,
        start_us: u64,
        deadlines_abs_us: &[u64],
        degrade: bool,
    ) -> (usize, usize) {
        let lead = deadlines_abs_us
            .first()
            .expect("plan needs at least one queued request");
        let solo_rung = if degrade {
            ladder.select(0, lead.saturating_sub(start_us))
        } else {
            ladder.top()
        };
        let (mut size, mut rung) = (1, solo_rung);
        let mut tightest = *lead;
        for &deadline in &deadlines_abs_us[1..] {
            let next_tightest = tightest.min(deadline);
            match self.admit(ladder, start_us, next_tightest, size + 1, degrade) {
                Some(r) => {
                    size += 1;
                    rung = r;
                    tightest = next_tightest;
                }
                None => break,
            }
        }
        (size, rung)
    }
}

/// One ladder's admission lists, built by [`Batcher::lists`]: per join
/// size, the rungs whose batching overhead fits the budget, most accurate
/// first. They hold rung indices only, so they answer for the ladder (and
/// the calibration) they were built from and no other: the runtime builds
/// one per ladder-table entry, including each hot-swapped ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionLists {
    /// `rungs[starts[n - 2]..starts[n - 1]]` is the list of batch size `n`.
    starts: Vec<u32>,
    rungs: Vec<u32>,
}

impl AdmissionLists {
    /// [`Batcher::admit`] for the lists' own ladder and degradation mode:
    /// the first listed rung whose predicted batched latency fits the
    /// tightest member's slack, or `None` (also for a size past
    /// `batch_max`, and for size 1, which is no join).
    pub fn admit(
        &self,
        ladder: &TrnLadder,
        start_us: u64,
        tightest_abs_us: u64,
        size: usize,
    ) -> Option<usize> {
        let lo = *self.starts.get(size.checked_sub(2)?)? as usize;
        let hi = *self.starts.get(size - 1)? as usize;
        let slack = tightest_abs_us.saturating_sub(start_us);
        self.rungs[lo..hi]
            .iter()
            .map(|&r| r as usize)
            .find(|&r| ladder.predicted_batch_latency_us(r, size) <= slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Rung;
    use crate::request::PPM;

    fn rung(name: &str, latency_us: u64, accuracy: f64) -> Rung {
        Rung {
            name: name.to_string(),
            cutpoint: 0,
            latency_us,
            accuracy,
        }
    }

    fn ladder() -> TrnLadder {
        TrnLadder::from_rungs(vec![
            rung("cut3", 100, 0.60),
            rung("cut2", 300, 0.70),
            rung("cut1", 600, 0.80),
            rung("cut0", 750, 0.85),
        ])
        .with_batch_curves(vec![
            vec![PPM, 1_300_000, 1_500_000, 1_700_000],
            vec![PPM, 1_250_000, 1_450_000, 1_600_000],
            vec![PPM, 1_200_000, 1_400_000, 1_550_000],
            vec![PPM, 1_200_000, 1_350_000, 1_500_000],
        ])
    }

    fn batcher() -> Batcher {
        Batcher {
            batch_max: 4,
            slack_us: 400,
        }
    }

    #[test]
    fn off_batcher_admits_nothing_beyond_one() {
        let b = Batcher::off();
        assert!(!b.enabled());
        assert_eq!(b.admit(&ladder(), 0, 900, 2, true), None);
    }

    #[test]
    fn admit_picks_the_most_accurate_feasible_rung() {
        let b = batcher();
        // Slack 900, batch 2: top rung needs 900 µs batched (750 × 1.2)
        // with 150 µs overhead — both fit.
        assert_eq!(b.admit(&ladder(), 0, 900, 2, true), Some(3));
        // Slack 600: top no longer fits (900 > 600); rung 2 batched is
        // 750 > 600; rung 1 batched 375 fits with 75 µs overhead.
        assert_eq!(b.admit(&ladder(), 0, 600, 2, true), Some(1));
        // No slack at all: nothing fits, not even rung 0.
        assert_eq!(b.admit(&ladder(), 900, 900, 2, true), None);
    }

    #[test]
    fn overhead_budget_caps_the_batch() {
        let tight = Batcher {
            batch_max: 4,
            slack_us: 100,
        };
        // Top rung batch 3: 1013 µs over 750 = 263 µs overhead > 100, and
        // its batched latency busts the 900 slack anyway; rung 0 batch 3
        // costs 150 with 50 µs overhead — admissible.
        assert_eq!(tight.admit(&ladder(), 0, 900, 3, true), Some(0));
        // Zero budget: every batch of 2+ adds overhead, so none is formed.
        let zero = Batcher {
            batch_max: 4,
            slack_us: 0,
        };
        assert_eq!(zero.admit(&ladder(), 0, 900, 2, true), None);
    }

    #[test]
    fn no_degrade_only_considers_the_top_rung() {
        let b = batcher();
        assert_eq!(b.admit(&ladder(), 0, 900, 2, false), Some(3));
        // 600 µs slack: the top rung's 900 µs batch-2 latency does not
        // fit, and degradation is off — no batch.
        assert_eq!(b.admit(&ladder(), 0, 600, 2, false), None);
    }

    #[test]
    fn pinned_admit_considers_only_the_pinned_exit() {
        let b = batcher();
        // Pinned to exit 1 with 600 µs slack: its batch-2 latency of 375 µs
        // fits (75 µs overhead) — same answer as adaptive admit.
        assert_eq!(b.admit_pinned(&ladder(), 0, 600, 2, 1), Some(1));
        // Pinned to the top with 600 µs slack: 900 µs batched does not fit,
        // and no fallback exit is tried.
        assert_eq!(b.admit_pinned(&ladder(), 0, 600, 2, 3), None);
        // A pin past the table clamps to the top exit.
        assert_eq!(b.admit_pinned(&ladder(), 0, 900, 2, 99), Some(3));
        assert_eq!(b.admit_pinned(&ladder(), 0, 900, 5, 0), None, "batch_max");
    }

    #[test]
    fn admit_compares_calibrated_predictions() {
        let b = batcher();
        // Uncalibrated, slack 900, batch 2: the top rung fits (900 µs).
        assert_eq!(b.admit(&ladder(), 0, 900, 2, true), Some(3));
        // At a 1.5× calibration the top rung predicts 1350 µs and rung 2
        // predicts 1080 µs — neither fits 900; rung 1 predicts 562 µs
        // with 112 µs predicted overhead, inside the 400 µs budget.
        let hot = ladder().with_calibration(1_500_000);
        assert_eq!(b.admit(&hot, 0, 900, 2, true), Some(1));
        assert_eq!(b.admit_pinned(&hot, 0, 900, 2, 3), None);
        assert_eq!(b.admit_pinned(&hot, 0, 900, 2, 1), Some(1));
    }

    #[test]
    fn plan_grows_to_the_largest_admissible_prefix() {
        let b = batcher();
        // Four queued requests, all with 900 µs of slack: batch 4 on the
        // top rung needs 1125 µs (> 900) and 375 µs overhead; batch 4 on
        // rung 1 is 480 µs with 180 overhead — admissible.
        let (size, rung) = b.plan(&ladder(), 0, &[900, 900, 900, 900], true);
        assert_eq!(size, 4);
        assert_eq!(rung, 1);
        // A tight third member stops growth at two.
        let (size, rung) = b.plan(&ladder(), 0, &[900, 900, 90, 900], true);
        assert_eq!(size, 2);
        assert_eq!(rung, 3);
    }

    #[test]
    fn plan_of_one_matches_the_unbatched_policy() {
        let b = Batcher::off();
        let (size, rung) = b.plan(&ladder(), 0, &[900], true);
        assert_eq!(size, 1);
        assert_eq!(rung, ladder().select(0, 900));
    }
}
