//! Seeded config fuzz of the serve plane's config contract: every
//! `ScenarioConfig` goes through `Scenario::try_build` and, when it
//! builds, through the SV analyzer and `run_summary`. Each must end in a
//! summary or a typed `ConfigError`; a panic fails the test.
//!
//! Each config breaks at most one rule of `ScenarioConfig::validate`, or
//! pins an exit past every table, so every `ConfigError` variant occurs
//! next to runnable configs. The generator keeps `thermal_ppm` at most
//! 10x, `timeline_window_us` at least 1 ms and `deadline_us` at most 1 s:
//! past those a run can exhaust memory in the timeline instead of
//! panicking (ROADMAP item 3, scale envelope).

use netcut_serve::{
    serve_artifact, ConfigError, Scenario, ScenarioConfig, Server, MAX_DURATION_US, PPM,
};
use netcut_sim::DeviceModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CONFIGS: u64 = 400;

/// Rules a config may break, by index; any larger draw breaks none.
const RULES: u64 = 14;

/// A runnable config, small enough to build and run in milliseconds.
fn runnable(rng: &mut SmallRng) -> ScenarioConfig {
    let roster = [
        DeviceModel::jetson_xavier(),
        DeviceModel::jetson_nano(),
        DeviceModel::tesla_k20m(),
    ];
    let workers = rng.gen_range(1..=8);
    ScenarioConfig {
        deadline_us: if rng.gen_bool(0.8) {
            rng.gen_range(1..=2_000)
        } else {
            rng.gen_range(1..=1_000_000)
        },
        rps: rng.gen_range(1..=20_000),
        duration_us: rng.gen_range(1..=200_000),
        seed: rng.gen(),
        jobs: 1,
        workers,
        degrade: rng.gen_bool(0.5),
        emg_share_ppm: rng.gen_range(0..=PPM),
        faults: rng.gen_bool(0.5),
        batch_max: rng.gen_range(1..=8),
        batch_slack_us: rng.gen_range(0..=1_000),
        shards: rng.gen_range(1..=workers.min(3)),
        devices: (0..rng.gen_range(1..=3))
            .map(|_| roster[rng.gen_range(0..roster.len())].clone())
            .collect(),
        timeline_window_us: rng.gen_range(1_000..=200_000),
        exit_pin: rng.gen_bool(0.2).then(|| rng.gen_range(0..=3)),
        thermal_ppm: if rng.gen_bool(0.3) {
            rng.gen_range(1..=10 * PPM)
        } else {
            0
        },
        recalibrate: rng.gen_bool(0.3),
        recalib_drift_ppm: rng.gen_range(1..=500_000),
        recalib_cooldown_us: rng.gen_range(1..=1_000_000),
    }
}

/// Breaks rule `rule` of `cfg`, or none when `rule >= RULES`.
fn break_rule(cfg: &mut ScenarioConfig, rule: u64, rng: &mut SmallRng) {
    match rule {
        0 => cfg.duration_us = 0,
        1 => cfg.deadline_us = 0,
        2 => cfg.rps = 0,
        3 => cfg.batch_max = 0,
        4 => cfg.shards = 0,
        5 => cfg.timeline_window_us = 0,
        6 => cfg.recalib_drift_ppm = 0,
        7 => cfg.recalib_cooldown_us = 0,
        8 => cfg.workers = rng.gen_range(0..cfg.shards),
        9 => cfg.devices.clear(),
        10 => cfg.duration_us = rng.gen_range(MAX_DURATION_US + 1..=u64::MAX / 2),
        11 => cfg.exit_pin = Some(rng.gen_range(100..1_000)),
        12 => cfg.batch_max = rng.gen_range(Server::MAX_BATCH + 1..=usize::MAX / 2),
        13 => cfg.shards = rng.gen_range(Server::MAX_SHARDS + 1..=usize::MAX / 2),
        _ => {}
    }
}

fn variant(err: &ConfigError) -> &'static str {
    match err {
        ConfigError::Zero(_) => "Zero",
        ConfigError::TooLarge { .. } => "TooLarge",
        ConfigError::ShardsExceedWorkers { .. } => "ShardsExceedWorkers",
        ConfigError::EmptyRoster => "EmptyRoster",
        ConfigError::DurationTooLong(_) => "DurationTooLong",
        ConfigError::Ladder(_) => "Ladder",
    }
}

#[test]
fn every_config_builds_and_runs_or_is_a_typed_error() {
    let mut ran = 0u64;
    let mut variants = BTreeSet::new();
    let mut failures = Vec::new();
    for seed in 0..CONFIGS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cfg = runnable(&mut rng);
        let rule = rng.gen_range(0..2 * RULES);
        break_rule(&mut cfg, rule, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let checked = cfg.validate();
            match Scenario::try_build(cfg.clone()) {
                Ok(scenario) => {
                    assert!(rule >= RULES, "rule {rule} broken, yet the config built");
                    netcut_verify::analyze_serve(&serve_artifact("serve:fuzz", &scenario));
                    let (summary, _) = scenario.run_summary();
                    assert_eq!(summary.total, scenario.requests.len() as u64);
                    None
                }
                Err(err) => {
                    match checked {
                        Err(first) => assert_eq!(err, first),
                        Ok(()) => assert!(matches!(err, ConfigError::Ladder(_)), "{err}"),
                    }
                    Some(variant(&err))
                }
            }
        }));
        match outcome {
            Ok(None) => ran += 1,
            Ok(Some(name)) => {
                variants.insert(name);
            }
            Err(_) => failures.push(format!("seed {seed}: {cfg:?}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} config(s) panicked:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        3 * ran >= CONFIGS,
        "only {ran} of {CONFIGS} configs built and ran"
    );
    assert_eq!(
        variants.into_iter().collect::<Vec<_>>(),
        [
            "DurationTooLong",
            "EmptyRoster",
            "Ladder",
            "ShardsExceedWorkers",
            "TooLarge",
            "Zero"
        ]
    );
}
