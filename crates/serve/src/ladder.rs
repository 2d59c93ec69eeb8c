//! The TRN exit table: the Pareto set from exploration, ordered by
//! predicted latency, that the scheduler degrades along under load.
//!
//! Since the multi-exit refactor the rungs are no longer separate trimmed
//! networks: they are the **exit heads of one backbone**
//! ([`netcut_graph::Network::with_exit_heads`]), so a rung switch is free —
//! the runtime just reads a different head's logits, no model swap, no
//! reload. One resident engine per device replaces one engine per rung,
//! which is what the [`LadderMemory`] accounting quantifies (weights plus
//! the peak activation arena at the configured batch size, versus the sum
//! of the same for every per-rung engine the pre-refactor ladder kept
//! resident).
//!
//! Rung 0 is the fastest (shallowest) exit; the last rung is the deepest,
//! most accurate one. All latencies are integer microseconds so exit
//! selection and the whole serving simulation stay in exact integer
//! arithmetic — bit-identical summaries across worker counts and
//! platforms.

use crate::request::PPM;
use netcut::pareto::pareto_frontier;
use netcut::CandidatePoint;
use std::fmt;

/// Typed construction/configuration errors of the exit table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderError {
    /// A ladder was requested from an empty candidate set — a misconfigured
    /// sweep (wrong family, impossible deadline) rather than a bug, so it
    /// is reported instead of aborting the server.
    NoCandidates,
    /// `--exit-table N` pinned an exit index past the end of some shard's
    /// exit table.
    ExitPinOutOfRange {
        /// The requested exit index.
        pin: usize,
        /// Exits available on the shortest table.
        exits: usize,
    },
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::NoCandidates => {
                write!(f, "cannot build an exit table from zero candidates")
            }
            LadderError::ExitPinOutOfRange { pin, exits } => write!(
                f,
                "exit {pin} is out of range: the exit table has {exits} exit(s) (0..={})",
                exits.saturating_sub(1)
            ),
        }
    }
}

impl std::error::Error for LadderError {}

/// Per-device resident model-memory footprint of serving an exit table,
/// in bytes (FP32 weights + FP32 activation arena × batch size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderMemory {
    /// The multi-exit engine: one backbone + every exit head, one arena.
    pub model_bytes: u64,
    /// The pre-refactor baseline: one resident engine per rung, each with
    /// its own weights and arena (what instant rung switching used to
    /// cost).
    pub baseline_model_bytes: u64,
}

impl LadderMemory {
    /// Baseline-over-multi footprint ratio in parts per million
    /// (10_000_000 = a 10× reduction); 0 when either side is unknown.
    pub fn reduction_ppm(&self) -> u64 {
        if self.model_bytes == 0 {
            return 0;
        }
        (u128::from(self.baseline_model_bytes) * u128::from(PPM) / u128::from(self.model_bytes))
            as u64
    }
}

/// One network on the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Network name (`family/cutN`).
    pub name: String,
    /// Blockwise cutpoint the rung was trimmed at.
    pub cutpoint: usize,
    /// Predicted service latency, microseconds.
    pub latency_us: u64,
    /// Fine-tuned accuracy (drives ladder ordering only, not scheduling).
    pub accuracy: f64,
}

/// The degradation ladder: rungs strictly ascending in latency.
///
/// Each rung may additionally carry a **batch-scaling curve** — the rung
/// network's batched latency relative to batch 1, in parts per million
/// ([`netcut_sim::batch_curve_ppm`]). The curve is what makes batching
/// decisions exact-integer: `batch_latency_us(r, n)` is the rung's measured
/// batch-1 latency times the analytic curve, rounded once. Attaching the
/// curves evaluates that product for every rung and batch size up to the
/// longest curve into a flat table, so admission and pricing read a `u64`
/// instead of redoing a 128-bit multiply and divide per call.
/// Ladders without curves fall back to a linear model (no amortization), so
/// a batcher over them coalesces only when the deadline slack pays the full
/// serial cost — the conservative default for synthetic test ladders.
#[derive(Debug, Clone)]
pub struct TrnLadder {
    rungs: Vec<Rung>,
    /// Per-rung batch-scaling curves: `batch_curves[r][n-1]` is the ppm
    /// factor for a batch of `n` on rung `r`. Empty = linear fallback.
    batch_curves: Vec<Vec<u64>>,
    /// Row-major batched latencies, µs: `batch_table[r * batch_cols + n - 1]`
    /// is [`Self::batch_latency_us`]`(r, n)` for `n` in `1..=batch_cols`,
    /// the longest curve's length (the linear fallback fills the rows of
    /// shorter curves). Empty with the curves.
    batch_table: Vec<u64>,
    batch_cols: usize,
    /// Resident-memory accounting of the exit table vs the per-rung
    /// baseline (`None` for synthetic test ladders).
    memory: Option<LadderMemory>,
    /// Estimator calibration, ppm: every *predicted* latency this ladder
    /// reports (selection, admission, batching) is the rung's physical
    /// latency scaled by this factor. [`PPM`] — the constructor default —
    /// is an exact integer identity, so uncalibrated ladders predict the
    /// raw table bit-for-bit. The closed-loop recalibrator installs
    /// corrected factors via [`Self::with_calibration`]; physical service
    /// times always come from the raw `latency_us`, so calibration changes
    /// *policy*, never physics.
    calib_ppm: u64,
}

/// The exit table *is* the ladder: every rung is one exit head of the
/// single multi-exit network, so this alias names the same type by its
/// post-refactor role.
pub type ExitTable = TrnLadder;

impl TrnLadder {
    /// Builds the exit table from evaluated candidates: Pareto-filter,
    /// then order ascending by measured latency. Rungs with identical
    /// integer microsecond latency collapse to the more accurate one.
    ///
    /// # Errors
    /// [`LadderError::NoCandidates`] when `points` is empty — a server
    /// needs at least one exit, and an empty sweep is an operator error to
    /// report, not a panic.
    pub fn from_points(points: &[CandidatePoint]) -> Result<Self, LadderError> {
        if points.is_empty() {
            return Err(LadderError::NoCandidates);
        }
        let mut rungs: Vec<Rung> = pareto_frontier(points)
            .into_iter()
            .map(|i| {
                let p = &points[i];
                Rung {
                    name: p.name.clone(),
                    cutpoint: p.cutpoint,
                    latency_us: (p.latency_ms * 1000.0).round().max(1.0) as u64,
                    accuracy: p.accuracy,
                }
            })
            .collect();
        // pareto_frontier returns ascending latency / ascending accuracy;
        // integer rounding can still produce duplicate latencies. Keep the
        // later (more accurate) rung of any equal-latency pair.
        rungs.dedup_by(|later, earlier| {
            if later.latency_us == earlier.latency_us {
                *earlier = later.clone();
                true
            } else {
                false
            }
        });
        Ok(TrnLadder {
            rungs,
            batch_curves: Vec::new(),
            batch_table: Vec::new(),
            batch_cols: 0,
            memory: None,
            calib_ppm: PPM,
        })
    }

    /// Builds a ladder directly from rungs (tests, synthetic scenarios).
    /// Rungs are sorted ascending by latency and must be non-empty with
    /// unique latencies.
    ///
    /// # Panics
    /// Panics on an empty rung list or duplicate latencies.
    pub fn from_rungs(mut rungs: Vec<Rung>) -> Self {
        assert!(!rungs.is_empty(), "cannot build an empty ladder");
        rungs.sort_by_key(|r| r.latency_us);
        for pair in rungs.windows(2) {
            assert!(
                pair[0].latency_us < pair[1].latency_us,
                "duplicate ladder latency {} µs",
                pair[0].latency_us
            );
        }
        TrnLadder {
            rungs,
            batch_curves: Vec::new(),
            batch_table: Vec::new(),
            batch_cols: 0,
            memory: None,
            calib_ppm: PPM,
        }
    }

    /// Attaches the resident-memory accounting of this exit table.
    #[must_use]
    pub fn with_memory(mut self, memory: LadderMemory) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Installs an estimator calibration factor, ppm: every predicted
    /// latency ([`Self::predicted_latency_us`],
    /// [`Self::predicted_batch_latency_us`], and through them
    /// [`Self::select`] and batch admission) is scaled by
    /// `calib_ppm / PPM`. Physical latencies (`latency_us`,
    /// [`Self::batch_latency_us`]) are untouched.
    ///
    /// # Panics
    /// Panics if `calib_ppm` is zero — a ladder that predicts 0 µs for
    /// every rung would defeat admission control entirely.
    #[must_use]
    pub fn with_calibration(mut self, calib_ppm: u64) -> Self {
        assert!(calib_ppm > 0, "calibration factor must be positive");
        self.calib_ppm = calib_ppm;
        self
    }

    /// The installed calibration factor, ppm ([`PPM`] = identity).
    pub fn calib_ppm(&self) -> u64 {
        self.calib_ppm
    }

    /// Calibrated latency prediction for a solo dispatch on `rung`,
    /// integer microseconds: `latency_us × calib_ppm / PPM` (truncating,
    /// floored at 1 µs). At the identity calibration this *is*
    /// `latency_us`, bit-for-bit.
    ///
    /// # Panics
    /// Panics if `rung` is out of range.
    pub fn predicted_latency_us(&self, rung: usize) -> u64 {
        self.calibrate(self.rungs[rung].latency_us)
    }

    /// Calibrated latency prediction for a batch of `batch` on `rung`:
    /// [`Self::batch_latency_us`] scaled by the calibration factor.
    ///
    /// # Panics
    /// Panics if `rung` is out of range or `batch` is zero.
    pub fn predicted_batch_latency_us(&self, rung: usize, batch: usize) -> u64 {
        self.calibrate(self.batch_latency_us(rung, batch))
    }

    /// `latency_us × calib_ppm / PPM`, truncating, floor 1 µs. The product
    /// fits `u64` for any realistic latency, and a 64-bit divide by the
    /// constant is far cheaper than a 128-bit one; `u128` is the exact
    /// fallback on overflow, so the result never depends on the path.
    fn calibrate(&self, latency_us: u64) -> u64 {
        if self.calib_ppm == PPM {
            return latency_us;
        }
        let scaled = match latency_us.checked_mul(self.calib_ppm) {
            Some(product) => product / PPM,
            None => (u128::from(latency_us) * u128::from(self.calib_ppm) / u128::from(PPM)) as u64,
        };
        scaled.max(1)
    }

    /// The resident-memory accounting, when one was attached.
    pub fn memory(&self) -> Option<LadderMemory> {
        self.memory
    }

    /// Per-exit deployed accuracy in parts per million, rung order —
    /// what the summary's accuracy-weighted goodput is computed from.
    pub fn exit_accuracy_ppm(&self) -> Vec<u64> {
        self.rungs
            .iter()
            .map(|r| (r.accuracy.clamp(0.0, 1.0) * PPM as f64).round() as u64)
            .collect()
    }

    /// Attaches batch-scaling curves, one per rung in ladder order. Each
    /// curve's first entry is normalized to exactly [`PPM`] (batch 1 must
    /// reproduce the rung's own latency bit-for-bit — the "batch of 1 ≡
    /// unbatched" invariant the property tests pin).
    ///
    /// # Panics
    /// Panics if the curve count does not match the rung count, any curve
    /// is empty, or a curve is not nondecreasing (batched inference never
    /// gets faster as the batch grows).
    #[must_use]
    pub fn with_batch_curves(mut self, mut curves: Vec<Vec<u64>>) -> Self {
        assert_eq!(
            curves.len(),
            self.rungs.len(),
            "one batch curve per ladder rung"
        );
        for curve in &mut curves {
            assert!(!curve.is_empty(), "batch curves need at least batch 1");
            curve[0] = PPM;
            assert!(
                curve.windows(2).all(|p| p[0] <= p[1]),
                "batch curve must be nondecreasing: {curve:?}"
            );
        }
        let cols = curves.iter().map(Vec::len).max().unwrap_or(0);
        let mut table = Vec::with_capacity(self.rungs.len() * cols);
        for (rung, curve) in self.rungs.iter().zip(&curves) {
            let base = rung.latency_us;
            table.extend((1..=cols).map(|n| {
                match curve.get(n - 1) {
                    Some(&scale_ppm) => ((u128::from(base) * u128::from(scale_ppm)
                        + u128::from(PPM / 2))
                        / u128::from(PPM))
                    .max(1) as u64,
                    None => base.saturating_mul(n as u64),
                }
            }));
        }
        self.batch_curves = curves;
        self.batch_table = table;
        self.batch_cols = cols;
        self
    }

    /// Predicted latency of serving a batch of `batch` requests on `rung`,
    /// integer microseconds. Uses the rung's batch-scaling curve when one
    /// is attached — the single rounded integer multiply that
    /// [`Self::with_batch_curves`] tabulated, so `batch == 1` is exactly
    /// `latency_us` — otherwise the linear fallback `latency_us × batch`.
    ///
    /// # Panics
    /// Panics if `rung` is out of range or `batch` is zero.
    pub fn batch_latency_us(&self, rung: usize, batch: usize) -> u64 {
        assert!(batch > 0, "batch must be positive");
        if batch <= self.batch_cols {
            return self.batch_table[rung * self.batch_cols + batch - 1];
        }
        self.rungs[rung].latency_us.saturating_mul(batch as u64)
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// `false` always — constructors reject empty ladders.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Index of the most accurate rung (the one served when unloaded).
    pub fn top(&self) -> usize {
        self.rungs.len() - 1
    }

    /// The rung at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn rung(&self, index: usize) -> &Rung {
        &self.rungs[index]
    }

    /// All rungs, fastest first.
    pub fn rungs(&self) -> &[Rung] {
        &self.rungs
    }

    /// The attached batch-scaling curves, one per rung in ladder order
    /// (`curves[r][n-1]` is the ppm cost of a batch of `n` on rung `r`).
    /// Empty when batching is disabled — the serve-plane lint reads this
    /// to check curve sanity without re-deriving it from
    /// [`Self::batch_latency_us`] roundings.
    pub fn batch_curves(&self) -> &[Vec<u64>] {
        &self.batch_curves
    }

    /// Ladder-degradation policy: the largest (most accurate) rung whose
    /// *calibrated* predicted latency still meets the deadline after
    /// `queue_delay_us` of waiting; rung 0 as a best-effort fallback when
    /// nothing fits. At the identity calibration this compares the raw
    /// latency table, bit-identical to the pre-recalibration selector.
    ///
    /// Memoryless in the load signal, which makes two properties exact:
    /// the selected index is monotone non-increasing in `queue_delay_us`,
    /// and recovery to [`Self::top`] is immediate once queue delay drops
    /// back below `deadline_us - predicted(top)`.
    pub fn select(&self, queue_delay_us: u64, deadline_us: u64) -> usize {
        let slack = deadline_us.saturating_sub(queue_delay_us);
        (0..self.rungs.len())
            .rposition(|r| self.predicted_latency_us(r) <= slack)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, cut: usize, lat_ms: f64, acc: f64) -> CandidatePoint {
        CandidatePoint {
            name: name.to_string(),
            family: "fam".to_string(),
            cutpoint: cut,
            kept_layers: 10 - cut,
            layers_removed: cut,
            latency_ms: lat_ms,
            estimated_ms: None,
            accuracy: acc,
            train_hours: 1.0,
        }
    }

    fn ladder() -> TrnLadder {
        TrnLadder::from_points(&[
            point("fam/cut3", 3, 0.100, 0.60),
            point("fam/cut2", 2, 0.300, 0.70),
            point("fam/cut1", 1, 0.600, 0.80),
            point("fam/cut0", 0, 0.750, 0.85),
        ])
        .expect("non-empty candidate set")
    }

    #[test]
    fn ladder_orders_fastest_first() {
        let l = ladder();
        assert_eq!(l.len(), 4);
        assert_eq!(l.rung(0).latency_us, 100);
        assert_eq!(l.rung(l.top()).latency_us, 750);
        assert_eq!(l.rung(l.top()).name, "fam/cut0");
    }

    #[test]
    fn dominated_points_fall_off_the_ladder() {
        let l = TrnLadder::from_points(&[
            point("fam/cut2", 2, 0.300, 0.70),
            point("fam/slow_and_bad", 1, 0.500, 0.65), // dominated
            point("fam/cut0", 0, 0.750, 0.85),
        ])
        .expect("non-empty candidate set");
        assert_eq!(l.len(), 2);
        assert!(l.rungs().iter().all(|r| r.name != "fam/slow_and_bad"));
    }

    #[test]
    fn select_picks_most_accurate_feasible_rung() {
        let l = ladder();
        // No queueing: the top rung fits inside 900 µs.
        assert_eq!(l.select(0, 900), 3);
        // 200 µs of queueing: 750 no longer fits, 600 does.
        assert_eq!(l.select(200, 900), 2);
        // 700 µs: only the 100 µs rung fits.
        assert_eq!(l.select(700, 900), 0);
        // Hopeless: best-effort fallback to rung 0.
        assert_eq!(l.select(10_000, 900), 0);
    }

    #[test]
    fn select_is_monotone_in_queue_delay() {
        let l = ladder();
        let mut last = l.top();
        for qd in 0..2000 {
            let r = l.select(qd, 900);
            assert!(r <= last, "rung rose from {last} to {r} at delay {qd}");
            last = r;
        }
    }

    #[test]
    fn equal_integer_latencies_collapse() {
        let l = TrnLadder::from_points(&[
            point("fam/cut2", 2, 0.1000, 0.70),
            point("fam/cut1", 1, 0.1001, 0.71), // same µs after rounding
            point("fam/cut0", 0, 0.750, 0.85),
        ])
        .expect("non-empty candidate set");
        assert_eq!(l.len(), 2);
        assert!((l.rung(0).accuracy - 0.71).abs() < 1e-12);
        assert_eq!(l.rung(0).name, "fam/cut1");
    }

    #[test]
    fn empty_ladder_is_a_typed_error_not_a_panic() {
        let err = TrnLadder::from_points(&[]).expect_err("zero candidates");
        assert_eq!(err, LadderError::NoCandidates);
        assert!(err.to_string().contains("zero candidates"), "{err}");
    }

    #[test]
    fn exit_accuracy_and_memory_accounting_round_trip() {
        let l = ladder().with_memory(LadderMemory {
            model_bytes: 100,
            baseline_model_bytes: 1_700,
        });
        assert_eq!(
            l.exit_accuracy_ppm(),
            vec![600_000, 700_000, 800_000, 850_000]
        );
        let mem = l.memory().expect("memory attached");
        assert_eq!(mem.reduction_ppm(), 17 * PPM);
        assert_eq!(LadderMemory::default().reduction_ppm(), 0);
    }

    #[test]
    fn batch_latency_defaults_to_linear() {
        let l = ladder();
        assert_eq!(l.batch_latency_us(0, 1), 100);
        assert_eq!(l.batch_latency_us(0, 4), 400);
        assert_eq!(l.batch_latency_us(3, 2), 1500);
    }

    #[test]
    fn batch_curves_amortize_and_pin_batch_one() {
        let l = ladder().with_batch_curves(vec![
            vec![PPM, 1_500_000, 1_900_000],
            vec![PPM, 1_400_000],
            vec![PPM, 1_300_000],
            vec![PPM, 1_250_000],
        ]);
        // Batch 1 is bit-exact the rung latency.
        for r in 0..l.len() {
            assert_eq!(l.batch_latency_us(r, 1), l.rung(r).latency_us);
        }
        // Curve entries: scaled + rounded.
        assert_eq!(l.batch_latency_us(0, 2), 150);
        assert_eq!(l.batch_latency_us(0, 3), 190);
        assert_eq!(l.batch_latency_us(3, 2), 938); // 750 × 1.25 = 937.5
                                                   // Past the curve end: linear fallback.
        assert_eq!(l.batch_latency_us(1, 3), 900);

        // The table answers exactly what the per-call formula did: the
        // rounded u128 product on a curve, the linear fallback past its
        // end — on a curve-less ladder, on the unequal curves above, and
        // on both scenario devices' ladders at batch 8.
        let formula = |l: &TrnLadder, r: usize, n: usize| {
            let base = l.rung(r).latency_us;
            match l.batch_curves().get(r).and_then(|c| c.get(n - 1)) {
                Some(&scale_ppm) => ((u128::from(base) * u128::from(scale_ppm)
                    + u128::from(PPM / 2))
                    / u128::from(PPM))
                .max(1) as u64,
                None => base.saturating_mul(n as u64),
            }
        };
        // The default roster puts the Xavier on shard 0, the Nano on 1.
        let scenario = crate::Scenario::build(crate::ScenarioConfig {
            batch_max: 8,
            shards: 2,
            ..crate::ScenarioConfig::default()
        });
        let shards = scenario.server().shards();
        let ladders = [
            ladder(),
            l,
            shards[0].ladder.clone(),
            shards[1].ladder.clone(),
        ];
        for (i, l) in ladders.iter().enumerate() {
            let len = l.batch_curves().iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(len, [0, 3, 8, 8][i], "ladder {i}");
            for r in 0..l.len() {
                for n in 1..=len + 2 {
                    assert_eq!(
                        l.batch_latency_us(r, n),
                        formula(l, r, n),
                        "ladder {i} rung {r} batch {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn calibration_scales_predictions_not_physics() {
        let l = ladder().with_calibration(1_300_000);
        assert_eq!(l.calib_ppm(), 1_300_000);
        // Predictions scale; the physical table does not.
        assert_eq!(l.predicted_latency_us(3), 975); // 750 × 1.3
        assert_eq!(l.rung(3).latency_us, 750);
        assert_eq!(l.batch_latency_us(3, 1), 750);
        assert_eq!(l.predicted_batch_latency_us(3, 1), 975);
        // Selection degrades against the calibrated table: at 900 µs of
        // slack the top rung's 975 µs prediction no longer fits, rung 2
        // (600 × 1.3 = 780) does.
        assert_eq!(l.select(0, 900), 2);
        // The identity calibration is bit-exact the uncalibrated ladder.
        let id = ladder().with_calibration(PPM);
        for r in 0..id.len() {
            assert_eq!(id.predicted_latency_us(r), id.rung(r).latency_us);
        }
        assert_eq!(id.select(0, 900), ladder().select(0, 900));
        assert_eq!(ladder().calib_ppm(), PPM, "constructors default neutral");
    }

    #[test]
    fn calibration_is_exact_past_the_u64_product() {
        // 2^44 µs × 2^21 ppm overflows u64; the u128 fallback must agree
        // with the exact quotient.
        let l = TrnLadder::from_rungs(vec![Rung {
            name: "huge".into(),
            cutpoint: 0,
            latency_us: 1 << 44,
            accuracy: 0.5,
        }])
        .with_calibration(1 << 21);
        let exact = (u128::from(1u64 << 44) * u128::from(1u64 << 21) / u128::from(PPM)) as u64;
        assert_eq!(l.predicted_latency_us(0), exact);
        assert!((1u64 << 44).checked_mul(1 << 21).is_none());
    }

    #[test]
    fn select_stays_monotone_under_calibration() {
        let l = ladder().with_calibration(1_460_000);
        let mut last = l.top();
        for qd in 0..2000 {
            let r = l.select(qd, 900);
            assert!(r <= last, "rung rose from {last} to {r} at delay {qd}");
            last = r;
        }
    }

    #[test]
    #[should_panic(expected = "calibration factor must be positive")]
    fn zero_calibration_is_rejected() {
        let _ = ladder().with_calibration(0);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_batch_curve_is_rejected() {
        let _ = TrnLadder::from_points(&[point("fam/cut0", 0, 0.750, 0.85)])
            .expect("non-empty candidate set")
            .with_batch_curves(vec![vec![PPM, 900_000]]);
    }
}
