//! Serve-plane static analysis: SV-rule registry over the offline serving
//! artifacts — exit ladders, batch-scaling curves, fault plans, and SLO
//! policies.
//!
//! The graph-IR analyzer ([`crate::Analyzer`]) checks what a network *is*;
//! this module checks what the serving stack will *do* with it before a
//! request ever arrives. `netcut-verify` sits below `netcut-serve` in the
//! crate DAG, so the rules run over a plain data model ([`ServeArtifact`])
//! that the serve crate extracts from a built `Scenario`. The same
//! defensive contract as the NC rules applies: rules never panic on
//! arbitrarily broken artifacts, and each invariant is owned by exactly one
//! code (a rule defers when the broken input belongs to another rule).
//!
//! The stable `SV001`–`SV013` codes live in [`Code`] next to
//! the NC table; the full rule table is DESIGN.md §16.

use crate::diagnostic::{Code, Diagnostic, GraphSpan, Report};
use netcut_obs as obs;

/// Parts-per-million scale used by batch curves and SLO rates.
pub const PPM: u64 = 1_000_000;

/// One exit-table rung as the serve plane sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungSpec {
    /// Rung name (usually the TRN variant, e.g. `"mobilenet_v2@cut12"`).
    pub name: String,
    /// Predicted service latency at batch size 1, integer microseconds.
    pub latency_us: u64,
    /// Predicted accuracy in parts per million.
    pub accuracy_ppm: u64,
}

/// One shard's degradation ladder plus its batch-scaling curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderSpec {
    /// Device the ladder was explored on (`"jetson_xavier"`).
    pub device: String,
    /// Rungs, shallowest (fastest) first.
    pub rungs: Vec<RungSpec>,
    /// Per-rung batch curves: `curves[r][n]` is the predicted cost of a
    /// batch of `n + 1` requests on rung `r`, in ppm of the rung's
    /// batch-1 latency. Empty when batching is disabled.
    pub batch_curves: Vec<Vec<u64>>,
    /// A pinned exit (`--exit-table N`), if any.
    pub exit_pin: Option<usize>,
}

/// Fault classes, mirroring `netcut_serve::FaultKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Multiplicative service-time inflation.
    Jitter,
    /// A device stall: requests in the window wait it out.
    Stall,
    /// Admission drops.
    Drop,
}

impl FaultClass {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Jitter => "jitter",
            FaultClass::Stall => "stall",
            FaultClass::Drop => "drop",
        }
    }
}

/// One fault window on the virtual-time axis, active over
/// `[start_us, end_us)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSpec {
    /// What the window injects.
    pub class: FaultClass,
    /// First active microsecond.
    pub start_us: u64,
    /// First microsecond past the window.
    pub end_us: u64,
}

/// One shard of the serve plane: its ladder and its slice of the fault
/// timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Roster name, unique per shard (`"shard0:jetson_xavier"`).
    pub name: String,
    /// The ladder this shard serves from.
    pub ladder: LadderSpec,
    /// Fault windows this shard owns.
    pub fault_windows: Vec<WindowSpec>,
}

/// The SLO alerting policy, mirroring `netcut_obs::SloPolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Deadline-miss budget per window, ppm of arrivals.
    pub miss_budget_ppm: u64,
    /// Burn rate (ppm of budget consumption speed) at which OBS001 fires.
    pub burn_alert_ppm: u64,
    /// Predicted-vs-observed residual drift (ppm) at which OBS002 fires.
    pub drift_alert_ppm: u64,
    /// Residual samples required before drift is trusted.
    pub min_drift_samples: u64,
    /// Fleet arrivals required before a window counts as loaded.
    pub min_window_arrivals: u64,
}

/// The closed-loop recalibration policy, mirroring
/// `netcut_serve::RecalibConfig`. Present only for scenarios run with
/// `--recalibrate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalibSpec {
    /// Residual drift (ppm) that arms a recalibration.
    pub drift_ppm: u64,
    /// Minimum virtual time between hot-swaps of one shard, microseconds.
    pub cooldown_us: u64,
    /// Controller watermark cadence, virtual microseconds.
    pub watermark_us: u64,
    /// Observed samples a shard needs before its drift is trusted.
    pub min_samples: u64,
    /// Bounded recent-sample window the refit draws from.
    pub window: u64,
}

/// Everything the serve plane commits to before the first request: the
/// shard roster with ladders and fault plans, the global fault timeline
/// those plans partition, the SLO policy watching the run, and — for
/// closed-loop runs — the recalibration policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArtifact {
    /// Scenario name, used as the report subject (`"serve:baseline"`).
    pub scenario: String,
    /// Scenario duration in virtual microseconds.
    pub duration_us: u64,
    /// Request deadline in microseconds.
    pub deadline_us: u64,
    /// The shard roster.
    pub shards: Vec<ShardSpec>,
    /// The scenario-wide fault timeline before shard ownership is
    /// assigned; per-shard windows must partition it.
    pub global_faults: Vec<WindowSpec>,
    /// The SLO policy.
    pub slo: SloSpec,
    /// The recalibration policy; `None` when the loop is open
    /// (`--no-recalibrate`), which leaves the fingerprint bit-identical
    /// to pre-recalibration artifacts.
    pub recalib: Option<RecalibSpec>,
}

impl ServeArtifact {
    /// Deterministic FNV-1a fingerprint over the canonical encoding of
    /// every field, for report provenance (the serve-plane analogue of the
    /// graph structural fingerprint).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.scenario);
        h.u64(self.duration_us);
        h.u64(self.deadline_us);
        for shard in &self.shards {
            h.str(&shard.name);
            h.str(&shard.ladder.device);
            for r in &shard.ladder.rungs {
                h.str(&r.name);
                h.u64(r.latency_us);
                h.u64(r.accuracy_ppm);
            }
            for curve in &shard.ladder.batch_curves {
                h.u64(curve.len() as u64);
                for &v in curve {
                    h.u64(v);
                }
            }
            h.u64(shard.ladder.exit_pin.map_or(u64::MAX, |p| p as u64));
            for w in &shard.fault_windows {
                h.window(w);
            }
        }
        for w in &self.global_faults {
            h.window(w);
        }
        h.u64(self.slo.miss_budget_ppm);
        h.u64(self.slo.burn_alert_ppm);
        h.u64(self.slo.drift_alert_ppm);
        h.u64(self.slo.min_drift_samples);
        h.u64(self.slo.min_window_arrivals);
        // Open-loop artifacts hash nothing here, so their fingerprints
        // survive the field addition unchanged.
        if let Some(r) = &self.recalib {
            h.byte(1);
            h.u64(r.drift_ppm);
            h.u64(r.cooldown_us);
            h.u64(r.watermark_us);
            h.u64(r.min_samples);
            h.u64(r.window);
        }
        h.0
    }
}

/// FNV-1a, 64-bit. Not a crypto hash — a stable provenance stamp.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
    fn window(&mut self, w: &WindowSpec) {
        self.byte(w.class as u8);
        self.u64(w.start_us);
        self.u64(w.end_us);
    }
}

/// One serve-plane rule: examines an artifact and appends any findings.
///
/// The same contract as the graph-IR [`Rule`](crate::Rule): tolerate
/// arbitrarily malformed artifacts without panicking, and defer to the
/// owning rule instead of double-reporting.
pub trait ServeRule: Send + Sync {
    /// The stable code this rule reports under.
    fn code(&self) -> Code;

    /// Checks `artifact`, appending findings to `out`.
    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>);
}

fn shard_span(shard: &ShardSpec) -> GraphSpan {
    GraphSpan::Shard {
        name: shard.name.clone(),
    }
}

fn rung_span(shard: &ShardSpec, index: usize) -> GraphSpan {
    GraphSpan::Rung {
        shard: shard.name.clone(),
        index,
    }
}

/// `true` when the ladder's rungs are strictly ascending in latency with no
/// zero-latency rung — rules that consume the ordering use this to defer to
/// SV001.
fn ladder_strictly_ordered(ladder: &LadderSpec) -> bool {
    ladder.rungs.iter().all(|r| r.latency_us > 0)
        && ladder
            .rungs
            .windows(2)
            .all(|w| w[0].latency_us < w[1].latency_us)
}

// ---------------------------------------------------------------------------
// Ladder soundness (SV001–SV003)
// ---------------------------------------------------------------------------

/// SV001 — rungs strictly ascending in predicted latency, none free.
struct LadderOrder;

impl ServeRule for LadderOrder {
    fn code(&self) -> Code {
        Code::SV001
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for shard in &artifact.shards {
            for (i, rung) in shard.ladder.rungs.iter().enumerate() {
                if rung.latency_us == 0 {
                    out.push(Diagnostic::new(
                        Code::SV001,
                        rung_span(shard, i),
                        format!("rung `{}` predicts zero latency", rung.name),
                    ));
                }
                if i > 0 {
                    let prev = &shard.ladder.rungs[i - 1];
                    if rung.latency_us <= prev.latency_us {
                        out.push(Diagnostic::new(
                            Code::SV001,
                            rung_span(shard, i),
                            format!(
                                "rung `{}` ({} µs) does not strictly exceed \
                                 `{}` ({} µs); the selector needs a strict \
                                 latency order",
                                rung.name, rung.latency_us, prev.name, prev.latency_us
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// SV002 — the exit table is non-empty and any pin addresses it.
struct ExitTableRange;

impl ServeRule for ExitTableRange {
    fn code(&self) -> Code {
        Code::SV002
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for shard in &artifact.shards {
            let exits = shard.ladder.rungs.len();
            if exits == 0 {
                out.push(Diagnostic::new(
                    Code::SV002,
                    shard_span(shard),
                    "exit table is empty: no candidate survived the Pareto filter",
                ));
            }
            if let Some(pin) = shard.ladder.exit_pin {
                if pin >= exits {
                    out.push(Diagnostic::new(
                        Code::SV002,
                        shard_span(shard),
                        format!("exit pin {pin} is out of range: the table has {exits} exit(s)"),
                    ));
                }
            }
        }
    }
}

/// SV003 — no rung strictly dominated (slower *and* less accurate) by an
/// earlier rung. Defers to SV001 when the latency order is already broken.
struct DominatedRung;

impl ServeRule for DominatedRung {
    fn code(&self) -> Code {
        Code::SV003
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for shard in &artifact.shards {
            if !ladder_strictly_ordered(&shard.ladder) {
                continue; // SV001 owns the report
            }
            let mut best_ppm = 0u64;
            let mut best_name = "";
            for (i, rung) in shard.ladder.rungs.iter().enumerate() {
                if i > 0 && rung.accuracy_ppm < best_ppm {
                    out.push(Diagnostic::new(
                        Code::SV003,
                        rung_span(shard, i),
                        format!(
                            "rung `{}` is dominated: slower than `{}` yet less \
                             accurate ({} < {} ppm)",
                            rung.name, best_name, rung.accuracy_ppm, best_ppm
                        ),
                    ));
                }
                if rung.accuracy_ppm >= best_ppm {
                    best_ppm = rung.accuracy_ppm;
                    best_name = &rung.name;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-curve sanity (SV004–SV006)
// ---------------------------------------------------------------------------

/// SV004 — curve roster shape: one curve per rung, none empty, batch-1 cost
/// pinned to exactly `PPM`.
struct BatchCurveShape;

impl ServeRule for BatchCurveShape {
    fn code(&self) -> Code {
        Code::SV004
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for shard in &artifact.shards {
            let curves = &shard.ladder.batch_curves;
            if curves.is_empty() {
                continue; // batching disabled — nothing to check
            }
            if curves.len() != shard.ladder.rungs.len() {
                out.push(Diagnostic::new(
                    Code::SV004,
                    shard_span(shard),
                    format!(
                        "{} batch curve(s) for {} rung(s); every rung needs \
                         its own curve",
                        curves.len(),
                        shard.ladder.rungs.len()
                    ),
                ));
            }
            for (r, curve) in curves.iter().enumerate() {
                if curve.is_empty() {
                    out.push(Diagnostic::new(
                        Code::SV004,
                        rung_span(shard, r),
                        "batch curve is empty: not even the batch-1 point",
                    ));
                } else if curve[0] != PPM {
                    out.push(Diagnostic::new(
                        Code::SV004,
                        rung_span(shard, r),
                        format!(
                            "batch-1 cost is {} ppm, not {PPM}: a singleton \
                             batch must cost exactly one request",
                            curve[0]
                        ),
                    ));
                }
            }
        }
    }
}

/// SV005 — curves nondecreasing and at most linear for batch ≥ 2. Skips
/// empty curves (SV004 owns those).
struct BatchCurveScaling;

impl ServeRule for BatchCurveScaling {
    fn code(&self) -> Code {
        Code::SV005
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for shard in &artifact.shards {
            for (r, curve) in shard.ladder.batch_curves.iter().enumerate() {
                for n in 1..curve.len() {
                    let batch = (n + 1) as u64;
                    if curve[n] < curve[n - 1] {
                        out.push(Diagnostic::new(
                            Code::SV005,
                            rung_span(shard, r),
                            format!(
                                "batch {batch} costs {} ppm, less than batch \
                                 {} at {} ppm: adding a request cannot shrink \
                                 the batch",
                                curve[n],
                                batch - 1,
                                curve[n - 1]
                            ),
                        ));
                    }
                    if curve[n] > batch.saturating_mul(PPM) {
                        out.push(Diagnostic::new(
                            Code::SV005,
                            rung_span(shard, r),
                            format!(
                                "batch {batch} costs {} ppm, above the linear \
                                 ceiling {} ppm: batching must never lose to \
                                 serial dispatch",
                                curve[n],
                                batch * PPM
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// SV006 — shards on the same device carry identical ladders.
struct RosterConsistency;

impl ServeRule for RosterConsistency {
    fn code(&self) -> Code {
        Code::SV006
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for (i, shard) in artifact.shards.iter().enumerate() {
            if let Some(first) = artifact.shards[..i]
                .iter()
                .find(|s| s.ladder.device == shard.ladder.device)
            {
                if first.ladder != shard.ladder {
                    out.push(Diagnostic::new(
                        Code::SV006,
                        shard_span(shard),
                        format!(
                            "ladder disagrees with `{}` on the same device \
                             `{}`: identical hardware must predict identical \
                             latencies",
                            first.name, shard.ladder.device
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-plan well-formedness (SV007–SV009)
// ---------------------------------------------------------------------------

/// Every (owner, plan) pair the fault rules walk: the global timeline plus
/// each shard's slice.
fn fault_plans(artifact: &ServeArtifact) -> Vec<(String, &[WindowSpec])> {
    let mut plans: Vec<(String, &[WindowSpec])> =
        vec![("global".to_owned(), artifact.global_faults.as_slice())];
    for shard in &artifact.shards {
        plans.push((shard.name.clone(), shard.fault_windows.as_slice()));
    }
    plans
}

/// SV007 — windows non-empty and inside the scenario duration.
struct FaultWindowBounds;

impl ServeRule for FaultWindowBounds {
    fn code(&self) -> Code {
        Code::SV007
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for (owner, windows) in fault_plans(artifact) {
            for (i, w) in windows.iter().enumerate() {
                let span = GraphSpan::Fault {
                    shard: owner.clone(),
                    index: i,
                };
                if w.start_us >= w.end_us {
                    out.push(Diagnostic::new(
                        Code::SV007,
                        span,
                        format!(
                            "{} window [{}, {}) is empty or inverted",
                            w.class.as_str(),
                            w.start_us,
                            w.end_us
                        ),
                    ));
                } else if w.end_us > artifact.duration_us {
                    out.push(Diagnostic::new(
                        Code::SV007,
                        span,
                        format!(
                            "{} window [{}, {}) extends past the scenario \
                             duration of {} µs",
                            w.class.as_str(),
                            w.start_us,
                            w.end_us,
                            artifact.duration_us
                        ),
                    ));
                }
            }
        }
    }
}

/// SV008 — same-class windows of one plan never overlap. Windows SV007
/// already rejected (empty/inverted) are skipped.
struct FaultWindowOverlap;

impl ServeRule for FaultWindowOverlap {
    fn code(&self) -> Code {
        Code::SV008
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        for (owner, windows) in fault_plans(artifact) {
            for class in [FaultClass::Jitter, FaultClass::Stall, FaultClass::Drop] {
                let mut of_class: Vec<(usize, &WindowSpec)> = windows
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.class == class && w.start_us < w.end_us)
                    .collect();
                of_class.sort_by_key(|(_, w)| (w.start_us, w.end_us));
                for pair in of_class.windows(2) {
                    let (_, a) = pair[0];
                    let (bi, b) = pair[1];
                    if b.start_us < a.end_us {
                        out.push(Diagnostic::new(
                            Code::SV008,
                            GraphSpan::Fault {
                                shard: owner.clone(),
                                index: bi,
                            },
                            format!(
                                "{} window [{}, {}) overlaps [{}, {}): the \
                                 injected magnitude would depend on iteration \
                                 order",
                                class.as_str(),
                                b.start_us,
                                b.end_us,
                                a.start_us,
                                a.end_us
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// SV009 — per-shard plans partition the global timeline: every global
/// window owned by exactly one shard, every shard window traceable to a
/// global one. Windows match on (class, start) — extent errors are SV007's.
struct FaultPartition;

impl ServeRule for FaultPartition {
    fn code(&self) -> Code {
        Code::SV009
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        let key = |w: &WindowSpec| (w.class, w.start_us);
        for (gi, global) in artifact.global_faults.iter().enumerate() {
            let owners: Vec<&str> = artifact
                .shards
                .iter()
                .filter(|s| s.fault_windows.iter().any(|w| key(w) == key(global)))
                .map(|s| s.name.as_str())
                .collect();
            if owners.len() != 1 {
                out.push(Diagnostic::new(
                    Code::SV009,
                    GraphSpan::Fault {
                        shard: "global".to_owned(),
                        index: gi,
                    },
                    format!(
                        "global {} window at {} µs is owned by {} shard(s) \
                         ({:?}); the shard plans must partition the timeline",
                        global.class.as_str(),
                        global.start_us,
                        owners.len(),
                        owners
                    ),
                ));
            }
        }
        for shard in &artifact.shards {
            for (i, w) in shard.fault_windows.iter().enumerate() {
                if !artifact.global_faults.iter().any(|g| key(g) == key(w)) {
                    out.push(Diagnostic::new(
                        Code::SV009,
                        GraphSpan::Fault {
                            shard: shard.name.clone(),
                            index: i,
                        },
                        format!(
                            "{} window at {} µs does not trace back to the \
                             global timeline",
                            w.class.as_str(),
                            w.start_us
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SLO-policy feasibility (SV010–SV012)
// ---------------------------------------------------------------------------

/// SV010 — the miss budget is a usable rate: positive and at most `PPM`.
struct SloBudget;

impl ServeRule for SloBudget {
    fn code(&self) -> Code {
        Code::SV010
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        let budget = artifact.slo.miss_budget_ppm;
        if budget == 0 {
            out.push(Diagnostic::new(
                Code::SV010,
                GraphSpan::SloPolicy,
                "miss budget is zero: a single miss would page instantly",
            ));
        } else if budget > PPM {
            out.push(Diagnostic::new(
                Code::SV010,
                GraphSpan::SloPolicy,
                format!("miss budget {budget} ppm exceeds {PPM}: not a rate"),
            ));
        }
    }
}

/// SV011 — thresholds ordered: the burn alert sits at or above the
/// on-budget line, and the drift/sample/arrival floors are nonzero.
struct SloThresholdOrder;

impl ServeRule for SloThresholdOrder {
    fn code(&self) -> Code {
        Code::SV011
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        let slo = &artifact.slo;
        if slo.burn_alert_ppm < PPM {
            out.push(Diagnostic::new(
                Code::SV011,
                GraphSpan::SloPolicy,
                format!(
                    "burn alert at {} ppm is below the on-budget line {PPM}: \
                     every within-budget window would page",
                    slo.burn_alert_ppm
                ),
            ));
        }
        if slo.drift_alert_ppm == 0 {
            out.push(Diagnostic::new(
                Code::SV011,
                GraphSpan::SloPolicy,
                "zero drift threshold: a perfectly calibrated estimator would alert",
            ));
        }
        if slo.min_drift_samples == 0 {
            out.push(Diagnostic::new(
                Code::SV011,
                GraphSpan::SloPolicy,
                "zero drift-sample floor: drift would alert on no evidence",
            ));
        }
        if slo.min_window_arrivals == 0 {
            out.push(Diagnostic::new(
                Code::SV011,
                GraphSpan::SloPolicy,
                "zero arrival floor: every empty window on an idle fleet would \
                 count as loaded",
            ));
        }
    }
}

/// SV012 — every stable `OBS0xx` alert code stays reachable under the
/// policy constants.
struct AlertReachability;

impl ServeRule for AlertReachability {
    fn code(&self) -> Code {
        Code::SV012
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        let slo = &artifact.slo;
        // The hottest window possible misses every arrival; its burn rate is
        // PPM/budget expressed in ppm. A threshold above that can never trip.
        let max_burn = ((u128::from(PPM) * u128::from(PPM))
            / u128::from(slo.miss_budget_ppm.max(1)))
        .min(u128::from(u64::MAX)) as u64;
        if slo.burn_alert_ppm > max_burn {
            out.push(Diagnostic::new(
                Code::SV012,
                GraphSpan::SloPolicy,
                format!(
                    "OBS001 is unreachable: burn alert at {} ppm exceeds the \
                     all-miss burn rate of {} ppm for a {} ppm budget",
                    slo.burn_alert_ppm, max_burn, slo.miss_budget_ppm
                ),
            ));
        }
        if slo.drift_alert_ppm == u64::MAX {
            out.push(Diagnostic::new(
                Code::SV012,
                GraphSpan::SloPolicy,
                "OBS002 is unreachable: the drift threshold is saturated",
            ));
        }
        if slo.min_drift_samples == u64::MAX {
            out.push(Diagnostic::new(
                Code::SV012,
                GraphSpan::SloPolicy,
                "OBS002 is unreachable: the drift-sample floor is saturated",
            ));
        }
        if slo.min_window_arrivals == u64::MAX {
            out.push(Diagnostic::new(
                Code::SV012,
                GraphSpan::SloPolicy,
                "OBS001/OBS003 are unreachable: no window can ever count as loaded",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Recalibration-policy sanity (SV013)
// ---------------------------------------------------------------------------

/// SV013 — a closed-loop scenario's controller constants are usable: no
/// zero threshold/cadence/floor, the refit window holds at least the
/// sample floor, and the drift threshold is not saturated (OBS005 must
/// stay reachable). Open-loop artifacts (`recalib: None`) are skipped.
struct RecalibSanity;

impl ServeRule for RecalibSanity {
    fn code(&self) -> Code {
        Code::SV013
    }

    fn check(&self, artifact: &ServeArtifact, out: &mut Vec<Diagnostic>) {
        let Some(r) = &artifact.recalib else {
            return; // open loop — nothing to police
        };
        let finding = |msg: String| Diagnostic::new(Code::SV013, GraphSpan::RecalibPolicy, msg);
        if r.drift_ppm == 0 {
            out.push(finding(
                "zero drift threshold: a perfectly calibrated shard would re-arm \
                 every watermark"
                    .to_owned(),
            ));
        } else if r.drift_ppm == u64::MAX {
            out.push(finding(
                "OBS005 is unreachable: the recalibration drift threshold is \
                 saturated"
                    .to_owned(),
            ));
        }
        if r.cooldown_us == 0 {
            out.push(finding(
                "zero cooldown: nothing rate-limits hot-swaps, so one drifting \
                 shard could swap every watermark"
                    .to_owned(),
            ));
        }
        if r.watermark_us == 0 {
            out.push(finding(
                "zero watermark cadence: the controller would fold after every \
                 arrival"
                    .to_owned(),
            ));
        }
        if r.min_samples == 0 {
            out.push(finding(
                "zero sample floor: a refit would trigger on no evidence".to_owned(),
            ));
        }
        if r.window < r.min_samples {
            out.push(finding(format!(
                "refit window ({}) cannot hold the {} sample(s) the trigger \
                 requires",
                r.window, r.min_samples
            )));
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The serve-plane rule registry, mirroring [`crate::Analyzer`].
pub struct ServeAnalyzer {
    rules: Vec<Box<dyn ServeRule>>,
}

impl Default for ServeAnalyzer {
    fn default() -> Self {
        ServeAnalyzer::new()
    }
}

impl ServeAnalyzer {
    /// The default registry: every SV rule (SV001–SV013).
    pub fn new() -> Self {
        ServeAnalyzer {
            rules: vec![
                Box::new(LadderOrder),
                Box::new(ExitTableRange),
                Box::new(DominatedRung),
                Box::new(BatchCurveShape),
                Box::new(BatchCurveScaling),
                Box::new(RosterConsistency),
                Box::new(FaultWindowBounds),
                Box::new(FaultWindowOverlap),
                Box::new(FaultPartition),
                Box::new(SloBudget),
                Box::new(SloThresholdOrder),
                Box::new(AlertReachability),
                Box::new(RecalibSanity),
            ],
        }
    }

    /// Appends a custom rule to the registry.
    #[must_use]
    pub fn with_rule(mut self, rule: Box<dyn ServeRule>) -> Self {
        self.rules.push(rule);
        self
    }

    /// Runs every rule over `artifact`, in registry order.
    ///
    /// Emits a `verify.analyze_serve` tracing span and bumps the shared
    /// `verify.diagnostic` counter by the number of findings.
    pub fn analyze(&self, artifact: &ServeArtifact) -> Report {
        let _span = obs::span("verify.analyze_serve");
        let mut diagnostics = Vec::new();
        for rule in &self.rules {
            rule.check(artifact, &mut diagnostics);
        }
        if !diagnostics.is_empty() {
            obs::counter_add("verify.diagnostic", diagnostics.len() as u64);
        }
        Report {
            network: artifact.scenario.clone(),
            fingerprint: artifact.fingerprint(),
            diagnostics,
        }
    }
}

/// Convenience: run the default registry over one artifact.
pub fn analyze_serve(artifact: &ServeArtifact) -> Report {
    ServeAnalyzer::new().analyze(artifact)
}

/// Wraps a serve-plane *build* failure (e.g. a `LadderError` from
/// `TrnLadder::from_points` while constructing a scenario) as an SV002
/// report, so `lint` surfaces it as a diagnostic instead of a process
/// error.
pub fn build_failure_report(scenario: &str, shard: &str, message: &str) -> Report {
    Report {
        network: scenario.to_owned(),
        fingerprint: 0,
        diagnostics: vec![Diagnostic::new(
            Code::SV002,
            GraphSpan::Shard {
                name: shard.to_owned(),
            },
            message,
        )],
    }
}

/// A small, fully sound reference artifact: three shards (two on the same
/// device), three rungs with batch curves, a three-window global fault
/// timeline partitioned across the shards, and the default SLO policy.
/// The SV mutation harness and the doc examples corrupt this.
pub fn demo_artifact() -> ServeArtifact {
    let rungs = vec![
        RungSpec {
            name: "trn@cut4".to_owned(),
            latency_us: 240,
            accuracy_ppm: 851_000,
        },
        RungSpec {
            name: "trn@cut9".to_owned(),
            latency_us: 430,
            accuracy_ppm: 893_500,
        },
        RungSpec {
            name: "trn@full".to_owned(),
            latency_us: 780,
            accuracy_ppm: 901_200,
        },
    ];
    let curves = vec![
        vec![PPM, 1_700_000, 2_300_000, 2_800_000],
        vec![PPM, 1_750_000, 2_400_000, 2_950_000],
        vec![PPM, 1_800_000, 2_500_000, 3_100_000],
    ];
    let ladder = |device: &str| LadderSpec {
        device: device.to_owned(),
        rungs: rungs.clone(),
        batch_curves: curves.clone(),
        exit_pin: None,
    };
    let duration_us = 5_000_000;
    let window = |class, start_us, end_us| WindowSpec {
        class,
        start_us,
        end_us,
    };
    let global_faults = vec![
        window(FaultClass::Jitter, 500_000, 1_100_000),
        window(FaultClass::Stall, 2_000_000, 2_400_000),
        window(FaultClass::Drop, 3_250_000, 3_750_000),
    ];
    ServeArtifact {
        scenario: "serve:demo".to_owned(),
        duration_us,
        deadline_us: 900,
        shards: vec![
            ShardSpec {
                name: "shard0:jetson_xavier".to_owned(),
                ladder: ladder("jetson_xavier"),
                fault_windows: vec![global_faults[0].clone()],
            },
            ShardSpec {
                name: "shard1:jetson_xavier".to_owned(),
                ladder: ladder("jetson_xavier"),
                fault_windows: vec![global_faults[1].clone()],
            },
            ShardSpec {
                name: "shard2:jetson_nano".to_owned(),
                ladder: ladder("jetson_nano"),
                fault_windows: vec![global_faults[2].clone()],
            },
        ],
        global_faults,
        slo: SloSpec {
            miss_budget_ppm: 50_000,
            burn_alert_ppm: 2 * PPM,
            drift_alert_ppm: 150_000,
            min_drift_samples: 8,
            min_window_arrivals: 10,
        },
        recalib: Some(RecalibSpec {
            drift_ppm: 150_000,
            cooldown_us: 500_000,
            watermark_us: 100_000,
            min_samples: 8,
            window: 64,
        }),
    }
}
