//! Property-based tests of the serving runtime — the three invariants the
//! design document promises:
//!
//! 1. Deadline accounting is honest: no request ever completes after its
//!    deadline without being counted a miss, and every counted outcome is
//!    consistent with its recorded latency.
//! 2. Ladder degradation is monotone: as queue delay grows, the selected
//!    rung index never increases — both for the policy in isolation and
//!    across all outcomes of a simulated run.
//! 3. Determinism: a fixed `(seed, rps)` produces bit-identical summaries
//!    at `--jobs 1` and `--jobs 8`.

use netcut_serve::{
    run_scenario, Batcher, FaultPlan, Rung, Scenario, ScenarioConfig, Server, ServerConfig, Shard,
    Status, TrnLadder, Workload, PPM,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Random ladder: strictly-increasing integer latencies via positive
/// increments, accuracy ascending with latency (as a Pareto set is).
fn ladder_strategy() -> impl Strategy<Value = TrnLadder> {
    prop::collection::vec(1u64..400, 1..12).prop_map(|increments| {
        let mut latency = 40u64;
        let rungs = increments
            .iter()
            .enumerate()
            .map(|(i, inc)| {
                latency += inc;
                Rung {
                    name: format!("net/cut{}", increments.len() - i),
                    cutpoint: increments.len() - i,
                    latency_us: latency,
                    accuracy: 0.4 + 0.5 * i as f64 / increments.len() as f64,
                }
            })
            .collect();
        TrnLadder::from_rungs(rungs)
    })
}

/// Random workload parameters kept small enough that each case simulates
/// in well under a millisecond.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        500u64..4000,
        20_000u64..120_000,
        0u64..300_000,
        0u64..1 << 48,
    )
        .prop_map(|(rps, duration_us, emg_share_ppm, seed)| Workload {
            rps,
            duration_us,
            emg_share_ppm,
            seed,
        })
}

fn server_config_strategy() -> impl Strategy<Value = ServerConfig> {
    (300u64..1500, 1usize..4, any::<bool>()).prop_map(|(deadline_us, workers, degrade)| {
        ServerConfig {
            deadline_us,
            workers,
            degrade,
            emg_service_us: 800,
            batch_max: 1,
            batch_slack_us: 0,
            exit_pin: None,
        }
    })
}

/// A ladder plus random nondecreasing batch-scaling curves (what scenario
/// construction computes analytically), covering batches up to 8.
fn curved_ladder_strategy() -> impl Strategy<Value = TrnLadder> {
    curved_ladder_strategy_with(7..=7)
}

/// A ladder whose batch-scaling curves each take `steps` entries past
/// batch 1; shorter curves leave rungs on the linear fallback.
fn curved_ladder_strategy_with(
    steps: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = TrnLadder> {
    (
        ladder_strategy(),
        prop::collection::vec(prop::collection::vec(0u64..400_000, steps), 12),
    )
        .prop_map(|(ladder, curve_steps)| {
            let curves = (0..ladder.len())
                .map(|r| {
                    let mut level = PPM;
                    let mut curve = vec![PPM];
                    for step in &curve_steps[r % curve_steps.len()] {
                        level += step;
                        curve.push(level);
                    }
                    curve
                })
                .collect();
            ladder.with_batch_curves(curves)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: a request that finishes past the deadline is always a
    /// miss, a served request always made the deadline, and requests that
    /// never ran carry no latency. The four statuses partition the stream.
    #[test]
    fn deadline_misses_are_never_miscounted(
        ladder in ladder_strategy(),
        workload in workload_strategy(),
        config in server_config_strategy(),
        fault_seed in 0u64..1 << 32,
    ) {
        let requests = workload.generate();
        let faults = FaultPlan::seeded_demo(
            fault_seed,
            workload.duration_us,
            &netcut_sim::DeviceModel::jetson_xavier(),
        );
        let deadline = config.deadline_us;
        let server = Server::new(ladder, config, faults);
        let outcomes = server.run(&requests);
        prop_assert_eq!(outcomes.len(), requests.len());
        for o in &outcomes {
            match o.status {
                Status::Served => prop_assert!(
                    o.latency_us <= deadline,
                    "id {} served at {} µs past deadline {}", o.id, o.latency_us, deadline
                ),
                Status::Missed => prop_assert!(
                    o.latency_us > deadline,
                    "id {} counted missed at {} µs within deadline {}", o.id, o.latency_us, deadline
                ),
                Status::Rejected | Status::Dropped => {
                    prop_assert_eq!(o.latency_us, 0);
                    prop_assert_eq!(o.service_us, 0);
                    prop_assert!(o.rung.is_none());
                }
            }
        }
    }

    /// Invariant 2a: the selection policy itself is monotone — more queue
    /// delay never selects a higher (slower) rung.
    #[test]
    fn rung_selection_is_monotone_in_queue_delay(
        ladder in ladder_strategy(),
        deadline_us in 100u64..2000,
        step in 1u64..50,
    ) {
        let mut last = ladder.select(0, deadline_us);
        let mut qd = 0;
        while qd < deadline_us + 200 {
            qd += step;
            let rung = ladder.select(qd, deadline_us);
            prop_assert!(
                rung <= last,
                "rung rose {last} -> {rung} as delay grew to {qd} µs"
            );
            last = rung;
        }
        prop_assert_eq!(ladder.select(deadline_us, deadline_us), 0);
    }

    /// Invariant 2b: across a whole simulated run, any visual request that
    /// waited longer than another was served an equal-or-faster rung.
    #[test]
    fn served_rungs_are_monotone_across_a_run(
        ladder in ladder_strategy(),
        workload in workload_strategy(),
        deadline_us in 300u64..1500,
        workers in 1usize..4,
    ) {
        let requests = workload.generate();
        let server = Server::new(
            ladder,
            ServerConfig {
                deadline_us,
                workers,
                degrade: true,
                emg_service_us: 800,
                batch_max: 1,
                batch_slack_us: 0,
                exit_pin: None,
            },
            FaultPlan::none(),
        );
        let mut by_delay: Vec<(u64, usize)> = server
            .run(&requests)
            .iter()
            .filter_map(|o| o.rung.map(|r| (o.queue_delay_us, r)))
            .collect();
        by_delay.sort();
        for pair in by_delay.windows(2) {
            let ((qd_a, rung_a), (qd_b, rung_b)) = (pair[0], pair[1]);
            prop_assert!(
                rung_b <= rung_a || qd_b == qd_a,
                "delay {qd_a} µs got rung {rung_a} but longer delay {qd_b} µs got rung {rung_b}"
            );
        }
    }
}

proptest! {
    // Each case explores the ladder twice (jobs 1 and jobs 8), so keep the
    // case count low and the simulated duration short.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariant 3: summaries are bit-identical across `--jobs` settings
    /// for any seed and rate.
    #[test]
    fn summaries_are_bit_identical_across_jobs(
        seed in 0u64..1 << 32,
        rps in 800u64..3200,
        degrade in any::<bool>(),
    ) {
        let cfg = |jobs| ScenarioConfig {
            rps,
            duration_us: 150_000,
            seed,
            jobs,
            degrade,
            ..ScenarioConfig::default()
        };
        let sequential = run_scenario(cfg(1));
        let parallel = run_scenario(cfg(8));
        prop_assert_eq!(sequential.to_json(), parallel.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batcher invariant 1: a server allowed batches of one behaves
    /// bit-for-bit like one whose slack budget forbids every join — the
    /// batched runtime strictly generalizes the unbatched one.
    #[test]
    fn batch_of_one_is_the_unbatched_path(
        ladder in curved_ladder_strategy(),
        workload in workload_strategy(),
        deadline_us in 300u64..1500,
        workers in 1usize..4,
    ) {
        let requests = workload.generate();
        let base = ServerConfig {
            deadline_us,
            workers,
            degrade: true,
            emg_service_us: 800,
            batch_max: 1,
            batch_slack_us: 300,
            exit_pin: None,
        };
        let unbatched = Server::new(ladder.clone(), base.clone(), FaultPlan::none());
        let no_slack = Server::new(
            ladder,
            ServerConfig { batch_max: 8, batch_slack_us: 0, ..base },
            FaultPlan::none(),
        );
        let a = unbatched.run(&requests);
        let b = no_slack.run(&requests);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.status, &y.status);
            prop_assert_eq!(x.latency_us, y.latency_us);
            prop_assert_eq!(x.rung, y.rung);
            prop_assert_eq!(x.batch_size, y.batch_size);
        }
    }

    /// Batcher invariant 2: at formation time, the planned batch never
    /// predicts a violation of its tightest member's deadline — for every
    /// batch of two or more, the batched latency fits the tightest slack.
    #[test]
    fn formation_never_predicts_a_tightest_member_miss(
        ladder in curved_ladder_strategy(),
        start_us in 0u64..2000,
        slacks in prop::collection::vec(0u64..2500, 1..10),
        batch_max in 1usize..8,
        slack_budget in 0u64..600,
        degrade in any::<bool>(),
    ) {
        let deadlines: Vec<u64> = slacks.iter().map(|s| start_us + s).collect();
        let batcher = Batcher { batch_max, slack_us: slack_budget };
        let (size, rung) = batcher.plan(&ladder, start_us, &deadlines, degrade);
        prop_assert!(size >= 1 && size <= batch_max.max(1));
        if size >= 2 {
            let tightest = *deadlines[..size].iter().min().expect("nonempty");
            let predicted = ladder.batch_latency_us(rung, size);
            prop_assert!(
                start_us + predicted <= tightest,
                "batch of {size} on rung {rung} predicts {predicted} µs past tightest slack {}",
                tightest - start_us
            );
            prop_assert!(
                predicted - ladder.batch_latency_us(rung, 1) <= slack_budget,
                "batching overhead exceeds the {slack_budget} µs budget"
            );
        }
    }

    /// Batcher invariant 3: formation is monotone in the slack budget —
    /// allowing more batching overhead never shrinks the planned batch.
    #[test]
    fn more_slack_never_shrinks_the_batch(
        ladder in curved_ladder_strategy(),
        start_us in 0u64..2000,
        slacks in prop::collection::vec(0u64..2500, 1..10),
        batch_max in 1usize..8,
        budget_lo in 0u64..600,
        budget_extra in 0u64..600,
        degrade in any::<bool>(),
    ) {
        let deadlines: Vec<u64> = slacks.iter().map(|s| start_us + s).collect();
        let tight = Batcher { batch_max, slack_us: budget_lo };
        let loose = Batcher { batch_max, slack_us: budget_lo + budget_extra };
        let (size_tight, _) = tight.plan(&ladder, start_us, &deadlines, degrade);
        let (size_loose, _) = loose.plan(&ladder, start_us, &deadlines, degrade);
        prop_assert!(
            size_loose >= size_tight,
            "budget {} formed {size_tight} but larger budget {} formed {size_loose}",
            budget_lo,
            budget_lo + budget_extra
        );
    }
}

/// Batch admission as a top-down scan of every rung per call, the way
/// the runtime decided joins before it tabulated the overhead test: the
/// most accurate rung whose batched latency fits the tightest member's
/// slack and whose batching overhead fits the budget.
fn admit_by_scan(
    batcher: &Batcher,
    ladder: &TrnLadder,
    start_us: u64,
    tightest_abs_us: u64,
    size: usize,
    degrade: bool,
) -> Option<usize> {
    if size > batcher.batch_max {
        return None;
    }
    let slack = tightest_abs_us.saturating_sub(start_us);
    let fits = |r: usize| {
        let batched = ladder.predicted_batch_latency_us(r, size);
        batched <= slack && batched - ladder.predicted_batch_latency_us(r, 1) <= batcher.slack_us
    };
    if degrade {
        (0..ladder.len()).rev().find(|&r| fits(r))
    } else {
        Some(ladder.top()).filter(|&r| fits(r))
    }
}

/// The Xavier and Nano scenario ladders with their batch-8 curves (the
/// default roster's two shards), built once for every case.
fn scenario_ladders() -> &'static [TrnLadder; 2] {
    static LADDERS: OnceLock<[TrnLadder; 2]> = OnceLock::new();
    LADDERS.get_or_init(|| {
        let scenario = Scenario::build(ScenarioConfig {
            batch_max: 8,
            shards: 2,
            ..ScenarioConfig::default()
        });
        let shards = scenario.server().shards();
        [shards[0].ladder.clone(), shards[1].ladder.clone()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Admission lists answer every join exactly as the per-call scan
    /// did: the same rung or `None`, for curve-less ladders, short
    /// curves, both scenario ladders at batch 8, any calibration (as after
    /// a hot-swap), degradation on and off, every size up to one past
    /// `batch_max`, and a slack at, just below and just above every
    /// rung's batched latency, from 0 to past the top rung. A batch of one
    /// is no join, so the lists refuse size 1, where `admit` still
    /// answers as the scan does.
    #[test]
    fn admission_lists_match_the_scan_they_replace(
        pick in 0usize..4,
        random in curved_ladder_strategy_with(0..=3),
        flat in ladder_strategy(),
        calib_ppm in prop_oneof![Just(PPM), 400_000u64..2_500_000],
        batch_max in 1usize..9,
        budget in prop_oneof![Just(300u64), 0u64..3_000],
        degrade in any::<bool>(),
        start_us in 0u64..5_000,
    ) {
        let ladder = match pick {
            0 => flat,
            1 => random,
            p => scenario_ladders()[p - 2].clone(),
        }
        .with_calibration(calib_ppm);
        let batcher = Batcher { batch_max, slack_us: budget };
        let lists = batcher.lists(&ladder, degrade);
        for size in 1..=batch_max + 1 {
            let mut slacks = vec![0, u64::MAX - start_us];
            for r in 0..ladder.len() {
                let batched = ladder.predicted_batch_latency_us(r, size);
                slacks.extend([batched.saturating_sub(1), batched, batched + 1]);
            }
            for slack in slacks {
                let tightest = start_us + slack;
                let expected = admit_by_scan(&batcher, &ladder, start_us, tightest, size, degrade);
                prop_assert_eq!(
                    lists.admit(&ladder, start_us, tightest, size),
                    expected.filter(|_| size > 1),
                    "lists, size {} slack {}", size, slack
                );
                prop_assert_eq!(
                    batcher.admit(&ladder, start_us, tightest, size, degrade),
                    expected,
                    "admit, size {} slack {}", size, slack
                );
            }
            // A deadline already behind the batch start has no slack.
            let behind = start_us.saturating_sub(1);
            prop_assert_eq!(
                lists.admit(&ladder, start_us, behind, size),
                admit_by_scan(&batcher, &ladder, start_us, behind, size, degrade)
                    .filter(|_| size > 1)
            );
        }
    }
}

/// Router invariant: under symmetric load on symmetric shards, no shard
/// starves — least-completion routing with lowest-index tie-breaks still
/// spreads work across the pool. Pinned on the two reference seeds.
#[test]
fn symmetric_shards_never_starve() {
    for seed in [11u64, 13] {
        let requests = Workload {
            rps: 3000,
            duration_us: 1_000_000,
            emg_share_ppm: 100_000,
            seed,
        }
        .generate();
        let ladder = || {
            TrnLadder::from_rungs(vec![
                Rung {
                    name: "net/cut1".into(),
                    cutpoint: 1,
                    latency_us: 150,
                    accuracy: 0.6,
                },
                Rung {
                    name: "net/cut0".into(),
                    cutpoint: 0,
                    latency_us: 700,
                    accuracy: 0.85,
                },
            ])
        };
        let shard = |name: &str| Shard {
            name: name.to_owned(),
            ladder: ladder(),
            workers: 1,
            faults: FaultPlan::none(),
            noise_ppm: Vec::new(),
        };
        let server = Server::with_shards(
            vec![shard("a"), shard("b")],
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        let outcomes = server.run(&requests);
        let per_shard = [0usize, 1].map(|s| outcomes.iter().filter(|o| o.shard == s).count());
        let total = outcomes.len();
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(
                n * 4 > total,
                "seed {seed}: shard {s} got {n} of {total} requests — starved"
            );
        }
    }
}

/// The full sharded + batched pipeline stays bit-identical across `--jobs`
/// settings — the property the CI matrix leg enforces end to end. Pinned
/// on the two reference seeds to keep ladder exploration cost bounded.
#[test]
fn sharded_batched_summaries_identical_across_jobs() {
    for seed in [11u64, 13] {
        let cfg = |jobs| ScenarioConfig {
            duration_us: 150_000,
            seed,
            jobs,
            batch_max: 8,
            shards: 2,
            ..ScenarioConfig::default()
        };
        let sequential = run_scenario(cfg(1));
        let parallel = run_scenario(cfg(8));
        assert_eq!(sequential.to_json(), parallel.to_json(), "seed {seed}");
    }
}

/// Noise attachment happens on the `jobs`-parallel pool; the resulting
/// request streams must nonetheless be identical (deterministic property,
/// no randomness beyond the scenario seed — a plain test).
#[test]
fn scenario_requests_identical_across_jobs() {
    let cfg = |jobs| ScenarioConfig {
        duration_us: 150_000,
        jobs,
        ..ScenarioConfig::default()
    };
    let a = Scenario::build(cfg(1));
    let b = Scenario::build(cfg(8));
    assert_eq!(a.requests.len(), b.requests.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.arrival_us, y.arrival_us);
        assert_eq!(x.noise_ppm, y.noise_ppm);
    }
    assert!(a.requests.iter().any(|r| r.noise_ppm != PPM));
}
