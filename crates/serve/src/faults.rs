//! Deterministic fault injection for the serving runtime.
//!
//! Three fault classes, all expressed as time windows over the run and all
//! derived deterministically from a seed plus the device model:
//!
//! * **Jitter** — the device transiently slows down; every service time
//!   inside the window is multiplied by a parts-per-million factor (the
//!   device model's transient-slowdown figure: ramp penalty plus a burst
//!   of clock jitter).
//! * **Stall** — some workers wedge (driver hiccup, preempted core) and
//!   accept no new work until the window closes.
//! * **Drop** — the input link loses requests; each arrival inside the
//!   window is dropped with a seeded per-request probability.
//!
//! The plan is pure data: the runtime queries it by virtual timestamp, so
//! identical seeds produce identical fault behaviour at any `--jobs`.

use crate::request::{splitmix64, PPM};
use netcut_sim::DeviceModel;

/// The class of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Service times inside the window are scaled by `magnitude` ppm.
    Jitter,
    /// `magnitude` workers (lowest indices) accept no work in the window.
    Stall,
    /// Arrivals inside the window are dropped with probability
    /// `magnitude` ppm.
    Drop,
}

/// One fault, active over `[start_us, end_us)`.
#[derive(Debug, Clone)]
pub struct FaultWindow {
    /// Fault class.
    pub kind: FaultKind,
    /// Window start, microseconds.
    pub start_us: u64,
    /// Window end (exclusive), microseconds.
    pub end_us: u64,
    /// Class-specific magnitude — see [`FaultKind`].
    pub magnitude: u64,
}

impl FaultWindow {
    fn contains(&self, t_us: u64) -> bool {
        (self.start_us..self.end_us).contains(&t_us)
    }

    /// A sustained thermal-throttle window: the device sheds clocks and
    /// every service time scales by `thermal_ppm` over the middle of the
    /// run — exactly 25% to 85% of `duration_us`, *no* seed wiggle, so
    /// drift scenarios hit their virtual-time watermarks at identical
    /// instants across seeds (the recalibration soak test compares the
    /// pre-drift and post-swap windows and needs both placed
    /// predictably).
    pub fn thermal(duration_us: u64, thermal_ppm: u64) -> Self {
        FaultWindow {
            kind: FaultKind::Jitter,
            start_us: duration_us / 100 * 25,
            end_us: duration_us / 100 * 85,
            magnitude: thermal_ppm,
        }
    }
}

/// A schedule of fault windows plus the seed for per-request drop
/// decisions.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The injected windows, in no particular order.
    pub windows: Vec<FaultWindow>,
    /// Seed hashed with each request id for drop decisions.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with no faults: the baseline run.
    pub fn none() -> Self {
        FaultPlan {
            windows: Vec::new(),
            seed: 0,
        }
    }

    /// The standard demo schedule: one window of each class, placed at
    /// seed-perturbed offsets inside `duration_us`, with magnitudes taken
    /// from the device model. The three windows never overlap, so each
    /// fault's effect (and the recovery after it) is separately visible.
    pub fn seeded_demo(seed: u64, duration_us: u64, device: &DeviceModel) -> Self {
        // Perturb each window start by up to 2% of the run so different
        // seeds exercise different alignments with the arrival process.
        let wiggle = |salt: u64| splitmix64(seed ^ salt) % (duration_us / 50).max(1);
        let pct = |p: u64| duration_us / 100 * p;
        let windows = vec![
            FaultWindow {
                kind: FaultKind::Jitter,
                start_us: pct(10) + wiggle(1),
                end_us: pct(22) + wiggle(1),
                magnitude: device.transient_slowdown_ppm(),
            },
            FaultWindow {
                kind: FaultKind::Stall,
                start_us: pct(40) + wiggle(2),
                end_us: pct(48) + wiggle(2),
                magnitude: 1,
            },
            FaultWindow {
                kind: FaultKind::Drop,
                start_us: pct(65) + wiggle(3),
                end_us: pct(75) + wiggle(3),
                magnitude: 50_000, // 5% loss
            },
        ];
        FaultPlan { windows, seed }
    }

    /// The demo schedule as seen by shard `shard` of a `shards`-wide
    /// fleet: the windows of the *global* schedule — the same timeline
    /// [`Self::seeded_demo`] gives a single-shard run — with each window
    /// assigned to exactly one shard (seeded, uniform). The fleet as a
    /// whole therefore experiences the same environment as the
    /// single-shard baseline: one jitter burst, one stalled worker, one
    /// lossy input link — not `shards` copies of each. Magnitudes still
    /// come from this shard's own device model.
    ///
    /// For `shards == 1` every window lands on shard 0, so the plan is
    /// exactly [`Self::seeded_demo`] — single-shard runs are unchanged.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn seeded_demo_shard(
        seed: u64,
        duration_us: u64,
        device: &DeviceModel,
        shard: usize,
        shards: usize,
    ) -> Self {
        assert!(shard < shards, "shard {shard} out of {shards}");
        let mut plan = Self::seeded_demo(seed, duration_us, device);
        plan.windows = plan
            .windows
            .into_iter()
            .enumerate()
            .filter(|(j, _)| {
                let owner = splitmix64(seed ^ (*j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    % shards as u64;
                owner == shard as u64
            })
            .map(|(_, w)| w)
            .collect();
        plan
    }

    /// Appends a thermal-throttle window ([`FaultWindow::thermal`]) to
    /// this plan. Thermal drift is an *ambient* condition — heat soaks
    /// the whole box — so unlike the demo schedule it is not partitioned
    /// across shards; every shard's plan gets the window.
    #[must_use]
    pub fn with_thermal(mut self, duration_us: u64, thermal_ppm: u64) -> Self {
        self.windows
            .push(FaultWindow::thermal(duration_us, thermal_ppm));
        self
    }

    /// Combined service-time factor at `t_us`, parts per million.
    /// `PPM` when no jitter window is active; factors of overlapping
    /// windows multiply.
    pub fn service_factor_ppm(&self, t_us: u64) -> u64 {
        let mut factor: u128 = u128::from(PPM);
        for w in &self.windows {
            if w.kind == FaultKind::Jitter && w.contains(t_us) {
                factor = factor * u128::from(w.magnitude) / u128::from(PPM);
            }
        }
        factor as u64
    }

    /// Number of stalled workers at `t_us` and the instant they come
    /// back, or `None` outside every stall window. Overlapping stalls
    /// merge to the larger count and the later release.
    pub fn stall_at(&self, t_us: u64) -> Option<(u64, u64)> {
        let mut hit: Option<(u64, u64)> = None;
        for w in &self.windows {
            if w.kind == FaultKind::Stall && w.contains(t_us) {
                let (count, until) = hit.unwrap_or((0, 0));
                hit = Some((count.max(w.magnitude), until.max(w.end_us)));
            }
        }
        hit
    }

    /// `true` if the arrival at `t_us` with id `id` is lost to an active
    /// drop window. Seeded per request: the same `(seed, id)` always
    /// makes the same call.
    pub fn should_drop(&self, t_us: u64, id: u64) -> bool {
        self.windows.iter().any(|w| {
            w.kind == FaultKind::Drop
                && w.contains(t_us)
                && splitmix64(self.seed ^ id.wrapping_mul(0xd6e8_feb8_6659_fd93)) % PPM
                    < w.magnitude
        })
    }

    /// End of the last fault window, microseconds (0 for an empty plan).
    /// After this instant the plan is guaranteed inert.
    pub fn quiet_after_us(&self) -> u64 {
        self.windows.iter().map(|w| w.end_us).max().unwrap_or(0)
    }

    /// Compiles the plan into its piecewise-constant lookup table — the
    /// event loop reads it through a [`FaultCursor`].
    pub fn table(&self) -> FaultTable {
        // Every window edge starts a new segment; between consecutive
        // edges the set of active windows — and so every per-class answer
        // — is constant.
        let mut bounds: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| [w.start_us, w.end_us])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        // Segment 0 lies before every window. Segment `i` starts at edge
        // `i - 1`; the last one starts where the last window ends, so the
        // plan's own queries make it inert too.
        let (mut factor_ppm, mut stall, mut drop_ppm) = (vec![PPM], vec![(0, 0)], vec![0]);
        for &t in &bounds {
            // Evaluate the scan-based queries once per segment; any instant
            // inside the segment sees the same active set, so the segment
            // start is representative. The jitter fold in particular runs
            // in the exact `windows` order the scan uses, keeping its
            // integer rounding bit-identical.
            factor_ppm.push(self.service_factor_ppm(t));
            stall.push(self.stall_at(t).unwrap_or((0, 0)));
            // One seeded coin per request id (`should_drop` hashes the id,
            // never the window), so "any active window fires" collapses to
            // a single threshold: the largest active drop magnitude.
            drop_ppm.push(
                self.windows
                    .iter()
                    .filter(|w| w.kind == FaultKind::Drop && w.contains(t))
                    .map(|w| w.magnitude)
                    .max()
                    .unwrap_or(0),
            );
        }
        FaultTable {
            bounds,
            factor_ppm,
            stall,
            drop_ppm,
            seed: self.seed,
        }
    }
}

/// A [`FaultPlan`] compiled to a piecewise-constant segment table, read
/// through a [`FaultCursor`].
///
/// The plan's query methods scan every window (with a 128-bit multiply
/// per active jitter window) on each call; the serving event loop asks
/// three such questions per request per shard, which made the scans a
/// measurable slice of the simulator's per-request budget. The table pays
/// one `O(windows log windows)` compile per run. Answers are
/// bit-identical to the plan's by construction: each segment's values
/// are produced by the plan's own queries at the segment start.
#[derive(Debug, Clone)]
pub struct FaultTable {
    /// Segment edges, sorted. Segment `i` holds the instants with exactly
    /// `i` edges at or before them: `[bounds[i - 1], bounds[i])`, with
    /// segment 0 before the first edge and the last from the last edge on.
    bounds: Vec<u64>,
    /// Combined jitter factor per segment, ppm.
    factor_ppm: Vec<u64>,
    /// `(stalled workers, release instant)` per segment; a count of 0 is
    /// no stall.
    stall: Vec<(u64, u64)>,
    /// Largest active drop magnitude per segment, ppm; `0` = none.
    drop_ppm: Vec<u64>,
    seed: u64,
}

impl FaultTable {
    /// A cursor at time 0, ready for [`FaultCursor::advance`].
    pub fn cursor(&self) -> FaultCursor<'_> {
        FaultCursor {
            table: self,
            edges: 0,
        }
    }

    /// The number of edges at or before `t_us`, counted on from `edges`,
    /// the count at an earlier instant.
    #[inline]
    fn edges_through(&self, mut edges: usize, t_us: u64) -> usize {
        while self.bounds.get(edges).is_some_and(|&b| b <= t_us) {
            edges += 1;
        }
        edges
    }
}

/// A [`FaultTable`] read at nondecreasing instants, as the event loop's
/// arrivals are. The cursor keeps the number of segment edges at or
/// before its current instant, which names that instant's segment, and
/// only moves forward, so an answer costs a comparison or two.
#[derive(Debug, Clone, Copy)]
pub struct FaultCursor<'a> {
    table: &'a FaultTable,
    /// Edges at or before the current instant.
    edges: usize,
}

impl FaultCursor<'_> {
    /// Moves the cursor to `now_us`, which must not precede the instant
    /// it last moved to.
    #[inline]
    pub fn advance(&mut self, now_us: u64) {
        debug_assert!(
            self.edges == 0 || self.table.bounds[self.edges - 1] <= now_us,
            "fault cursor moved back to {now_us}"
        );
        self.edges = self.table.edges_through(self.edges, now_us);
    }

    /// [`FaultPlan::stall_at`] at the current instant: the stalled
    /// workers and the instant they come back, `(0, 0)` outside every
    /// stall window.
    #[inline]
    pub fn stall(&self) -> (u64, u64) {
        self.table.stall[self.edges]
    }

    /// [`FaultPlan::should_drop`] at the current instant.
    #[inline]
    pub fn should_drop(&self, id: u64) -> bool {
        let magnitude = self.table.drop_ppm[self.edges];
        magnitude > 0
            && splitmix64(self.table.seed ^ id.wrapping_mul(0xd6e8_feb8_6659_fd93)) % PPM
                < magnitude
    }

    /// [`FaultPlan::service_factor_ppm`] at `t_us`, which must not
    /// precede the current instant: a walk forward from the cursor's
    /// segment that leaves the cursor where it is.
    #[inline]
    pub fn service_factor_ppm(&self, t_us: u64) -> u64 {
        self.table.factor_ppm[self.table.edges_through(self.edges, t_us)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceModel {
        DeviceModel::jetson_xavier()
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert_eq!(p.service_factor_ppm(123), PPM);
        assert_eq!(p.stall_at(123), None);
        assert!(!p.should_drop(123, 7));
        assert_eq!(p.quiet_after_us(), 0);
        let t = p.table();
        let mut c = t.cursor();
        c.advance(123);
        assert_eq!(c.service_factor_ppm(123), PPM);
        assert_eq!(c.stall(), (0, 0));
        assert!(!c.should_drop(7));
    }

    #[test]
    fn table_answers_match_the_plan_scan_everywhere() {
        // Demo + thermal + a deliberately overlapping extra of each class,
        // so segments see multiplied jitter, merged stalls and competing
        // drop magnitudes.
        let mut p =
            FaultPlan::seeded_demo(11, 1_000_000, &device()).with_thermal(1_000_000, 1_300_000);
        p.windows.push(FaultWindow {
            kind: FaultKind::Stall,
            start_us: 390_000,
            end_us: 500_000,
            magnitude: 3,
        });
        p.windows.push(FaultWindow {
            kind: FaultKind::Drop,
            start_us: 600_000,
            end_us: 760_000,
            magnitude: 250_000,
        });
        // Dense sweep plus every edge and its neighbours, in time order:
        // the order the event loop's arrivals come in.
        let mut probes: Vec<u64> = (0..1_100_000).step_by(997).collect();
        for w in &p.windows {
            for d in [
                w.start_us.saturating_sub(1),
                w.start_us,
                w.end_us - 1,
                w.end_us,
            ] {
                probes.push(d);
            }
        }
        probes.sort_unstable();
        let t = p.table();
        let mut cursor = t.cursor();
        for (k, &now) in probes.iter().enumerate() {
            cursor.advance(now);
            assert_eq!(
                cursor.stall(),
                p.stall_at(now).unwrap_or((0, 0)),
                "stall at {now}"
            );
            for id in [0u64, 7, 8_191, 65_536] {
                assert_eq!(
                    cursor.should_drop(id),
                    p.should_drop(now, id),
                    "drop at {now} id {id}"
                );
            }
            // Service starts at `now` and ahead of it, within the segment
            // and across one or more edges, past the last one included.
            let near = probes[k..].iter().take(12).copied();
            let far = [50_000, 130_000, 400_000, u64::MAX - now].map(|d| now + d);
            for start in near.chain(far) {
                assert_eq!(
                    cursor.service_factor_ppm(start),
                    p.service_factor_ppm(start),
                    "factor at {start}, cursor at {now}"
                );
            }
        }
    }

    #[test]
    fn demo_plan_has_one_window_per_class() {
        let p = FaultPlan::seeded_demo(11, 5_000_000, &device());
        assert_eq!(p.windows.len(), 3);
        for kind in [FaultKind::Jitter, FaultKind::Stall, FaultKind::Drop] {
            assert_eq!(p.windows.iter().filter(|w| w.kind == kind).count(), 1);
        }
        // Windows are disjoint and inside the run.
        let mut spans: Vec<(u64, u64)> = p.windows.iter().map(|w| (w.start_us, w.end_us)).collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows overlap: {spans:?}");
        }
        assert!(p.quiet_after_us() <= 5_000_000);
    }

    #[test]
    fn sharded_demo_partitions_the_global_schedule() {
        let global = FaultPlan::seeded_demo(11, 5_000_000, &device());
        let shards = 2;
        let plans: Vec<FaultPlan> = (0..shards)
            .map(|s| FaultPlan::seeded_demo_shard(11, 5_000_000, &device(), s, shards))
            .collect();
        // Every global window lands on exactly one shard, timeline intact.
        let total: usize = plans.iter().map(|p| p.windows.len()).sum();
        assert_eq!(total, global.windows.len());
        for w in &global.windows {
            let holders = plans
                .iter()
                .filter(|p| {
                    p.windows
                        .iter()
                        .any(|v| v.kind == w.kind && v.start_us == w.start_us)
                })
                .count();
            assert_eq!(holders, 1, "{:?} window owned by {holders} shards", w.kind);
        }
        // A one-shard fleet sees the unpartitioned schedule.
        let solo = FaultPlan::seeded_demo_shard(11, 5_000_000, &device(), 0, 1);
        assert_eq!(solo.windows.len(), global.windows.len());
    }

    #[test]
    fn thermal_window_is_exact_and_seed_free() {
        let w = FaultWindow::thermal(5_000_000, 1_300_000);
        assert_eq!(w.kind, FaultKind::Jitter);
        assert_eq!(w.start_us, 1_250_000);
        assert_eq!(w.end_us, 4_250_000);
        assert_eq!(w.magnitude, 1_300_000);
        // Appended on top of an empty plan it is the only active fault,
        // and it multiplies service time by exactly its magnitude.
        let p = FaultPlan::none().with_thermal(5_000_000, 1_300_000);
        assert_eq!(p.service_factor_ppm(1_249_999), PPM);
        assert_eq!(p.service_factor_ppm(1_250_000), 1_300_000);
        assert_eq!(p.service_factor_ppm(4_249_999), 1_300_000);
        assert_eq!(p.service_factor_ppm(4_250_000), PPM);
        assert_eq!(p.quiet_after_us(), 4_250_000);
    }

    #[test]
    fn jitter_scales_service_inside_the_window_only() {
        let p = FaultPlan::seeded_demo(11, 5_000_000, &device());
        let w = p
            .windows
            .iter()
            .find(|w| w.kind == FaultKind::Jitter)
            .expect("demo plan has a jitter window");
        let mid = (w.start_us + w.end_us) / 2;
        assert_eq!(p.service_factor_ppm(mid), device().transient_slowdown_ppm());
        assert!(p.service_factor_ppm(mid) > PPM);
        assert_eq!(p.service_factor_ppm(w.end_us), PPM);
    }

    #[test]
    fn stall_reports_count_and_release_time() {
        let p = FaultPlan::seeded_demo(11, 5_000_000, &device());
        let w = p
            .windows
            .iter()
            .find(|w| w.kind == FaultKind::Stall)
            .expect("demo plan has a stall window");
        let mid = (w.start_us + w.end_us) / 2;
        assert_eq!(p.stall_at(mid), Some((1, w.end_us)));
        assert_eq!(p.stall_at(w.end_us), None);
    }

    #[test]
    fn drops_are_seeded_and_bounded_to_the_window() {
        let p = FaultPlan::seeded_demo(11, 5_000_000, &device());
        let w = p
            .windows
            .iter()
            .find(|w| w.kind == FaultKind::Drop)
            .expect("demo plan has a drop window");
        let mid = (w.start_us + w.end_us) / 2;
        let dropped = (0..10_000).filter(|&id| p.should_drop(mid, id)).count();
        // 5% nominal rate over 10k ids.
        assert!((300..=700).contains(&dropped), "dropped {dropped}");
        // Deterministic per id, inert outside the window.
        for id in 0..100 {
            assert_eq!(p.should_drop(mid, id), p.should_drop(mid, id));
            assert!(!p.should_drop(w.end_us, id));
        }
    }
}
