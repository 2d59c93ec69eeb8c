//! Serve-plane artifact extraction: the bridge from a built [`Scenario`]
//! to the data model `netcut_verify::serve_plane` analyzes.
//!
//! `netcut-verify` sits below this crate in the dependency DAG, so the SV
//! rules cannot read [`crate::TrnLadder`] or [`crate::FaultPlan`] directly;
//! this module flattens them into the verify crate's plain
//! [`ServeArtifact`] — ladder rungs with integer accuracies, per-rung batch
//! curves, the per-shard fault windows *and* the global timeline they must
//! partition, and the SLO policy. Extraction is lossless for everything
//! the rules check, so `lint serve` validates exactly what the runtime
//! will execute.
//!
//! [`reference_matrix`] is the single source of truth for the scenario
//! configurations the bench matrix (and therefore `lint serve` / CI)
//! exercises; `netcut_bench::serve_matrix` delegates to it.

use crate::faults::{FaultKind, FaultPlan, FaultWindow};
use crate::scenario::{ConfigError, Scenario, ScenarioConfig};
use netcut_verify::serve_plane::{
    FaultClass, LadderSpec, RecalibSpec, RungSpec, ServeArtifact, ShardSpec, SloSpec, WindowSpec,
};
use netcut_verify::Report;

/// Largest batch the batching legs of the reference matrix may form.
pub const BATCH_MAX: usize = 8;

/// Shard count of the reference matrix's sharding legs (xavier + nano).
pub const SHARDS: usize = 2;

/// Thermal-throttle magnitude of the drift legs: +30% service time, the
/// drift the closed loop must calibrate away.
pub const DRIFT_THERMAL_PPM: u64 = 1_300_000;

/// The reference scenario matrix, keyed by the leg name used in
/// `BENCH_serve.json`: the baseline, the no-degradation ablation, the
/// batching/sharding legs, and the drift pair — the same +30% thermal
/// scenario with the recalibration loop open (`drift_norecal`) and closed
/// (`drift`), so the bench quantifies what closing the loop recovers.
/// Every `Scenario::try_build` configuration CI benches is linted through
/// this same list.
pub fn reference_matrix() -> Vec<(&'static str, ScenarioConfig)> {
    let base = ScenarioConfig {
        jobs: 0, // one evaluation worker per CPU for ladder construction
        ..ScenarioConfig::default()
    };
    // The drift legs isolate the thermal signal: demo faults off, one
    // shard, so the only drift the controller sees is the throttle.
    let drift = ScenarioConfig {
        faults: false,
        thermal_ppm: DRIFT_THERMAL_PPM,
        shards: 1,
        ..base.clone()
    };
    vec![
        ("baseline", base.clone()),
        (
            "no_degrade",
            ScenarioConfig {
                degrade: false,
                ..base.clone()
            },
        ),
        (
            "batch",
            ScenarioConfig {
                batch_max: BATCH_MAX,
                ..base.clone()
            },
        ),
        (
            "shard",
            ScenarioConfig {
                shards: SHARDS,
                ..base.clone()
            },
        ),
        (
            "batch_shard",
            ScenarioConfig {
                batch_max: BATCH_MAX,
                shards: SHARDS,
                ..base
            },
        ),
        ("drift_norecal", drift.clone()),
        (
            "drift",
            ScenarioConfig {
                recalibrate: true,
                ..drift
            },
        ),
    ]
}

/// The simulator-throughput stress leg `bench_simcore` runs *in addition
/// to* the reference matrix (it is deliberately not a matrix leg — the
/// matrix key list is pinned and every matrix leg also feeds the serving
/// quality gates): 200k requests per second for the standard 5 s window,
/// ~10⁶ Poisson arrivals against a 128-worker two-shard batching pool.
/// The deadline is widened to 5 ms so the pool genuinely serves (and
/// batches) the load instead of rejecting it at admission — the point is
/// to stress the event loop's served path, which is its most expensive.
/// Everything stays a pure function of the seed, so the leg also anchors
/// the jobs 1-vs-8 byte-identity tests.
pub fn stress_scenario() -> (&'static str, ScenarioConfig) {
    (
        "stress_1m",
        ScenarioConfig {
            jobs: 0,
            rps: 210_000,
            deadline_us: 5_000,
            workers: 128,
            batch_max: BATCH_MAX,
            shards: SHARDS,
            ..ScenarioConfig::default()
        },
    )
}

fn class_of(kind: FaultKind) -> FaultClass {
    match kind {
        FaultKind::Jitter => FaultClass::Jitter,
        FaultKind::Stall => FaultClass::Stall,
        FaultKind::Drop => FaultClass::Drop,
    }
}

fn windows_of(plan: &FaultPlan) -> Vec<WindowSpec> {
    plan.windows
        .iter()
        .map(|w| WindowSpec {
            class: class_of(w.kind),
            start_us: w.start_us,
            end_us: w.end_us,
        })
        .collect()
}

/// Flattens a built scenario into the artifact the SV rules analyze.
/// `name` becomes the report subject (`"serve:baseline"`).
pub fn serve_artifact(name: &str, scenario: &Scenario) -> ServeArtifact {
    let cfg = scenario.config();
    let shards = scenario
        .server()
        .shards()
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let accuracy_ppm = shard.ladder.exit_accuracy_ppm();
            ShardSpec {
                name: format!("shard{i}:{}", shard.name),
                ladder: LadderSpec {
                    device: shard.name.clone(),
                    rungs: shard
                        .ladder
                        .rungs()
                        .iter()
                        .zip(accuracy_ppm)
                        .map(|(r, acc)| RungSpec {
                            name: r.name.clone(),
                            latency_us: r.latency_us,
                            accuracy_ppm: acc,
                        })
                        .collect(),
                    batch_curves: shard.ladder.batch_curves().to_vec(),
                    exit_pin: cfg.exit_pin,
                },
                fault_windows: windows_of(&shard.faults),
            }
        })
        .collect();
    // The global timeline the per-shard plans partition. Window extents are
    // a pure function of (seed, duration) — only magnitudes are per-device —
    // so any roster device reproduces it. A thermal window joins the global
    // timeline once (it is ambient, not partitioned; the drift legs run a
    // single shard, which then owns it).
    let mut global_faults = if cfg.faults {
        windows_of(&FaultPlan::seeded_demo(
            cfg.seed,
            cfg.duration_us,
            &cfg.devices[0],
        ))
    } else {
        Vec::new()
    };
    if cfg.thermal_ppm > 0 {
        let w = FaultWindow::thermal(cfg.duration_us, cfg.thermal_ppm);
        global_faults.push(WindowSpec {
            class: class_of(w.kind),
            start_us: w.start_us,
            end_us: w.end_us,
        });
    }
    let slo = netcut_obs::SloPolicy::default();
    let recalib = cfg.recalibrate.then(|| {
        let rc = scenario.recalib_config();
        RecalibSpec {
            drift_ppm: rc.drift_ppm,
            cooldown_us: rc.cooldown_us,
            watermark_us: rc.watermark_us,
            min_samples: rc.min_samples,
            window: rc.window as u64,
        }
    });
    ServeArtifact {
        scenario: name.to_owned(),
        duration_us: cfg.duration_us,
        deadline_us: cfg.deadline_us,
        shards,
        global_faults,
        slo: SloSpec {
            miss_budget_ppm: slo.miss_budget_ppm,
            burn_alert_ppm: slo.burn_alert_ppm,
            drift_alert_ppm: slo.drift_alert_ppm,
            min_drift_samples: slo.min_drift_samples,
            min_window_arrivals: slo.min_window_arrivals,
        },
        recalib,
    }
}

/// Wraps a [`Scenario::try_build`] failure as an SV002 diagnostic report,
/// so `lint` surfaces a broken configuration as a finding instead of a
/// process error. `name` is the report subject, matching
/// [`serve_artifact`]'s naming.
pub fn ladder_error_report(name: &str, cfg: &ScenarioConfig, err: &ConfigError) -> Report {
    let shard = cfg
        .devices
        .first()
        .map_or_else(|| "roster".to_owned(), |d| format!("shard0:{}", d.name));
    netcut_verify::serve_plane::build_failure_report(name, &shard, &err.to_string())
}

/// Builds the [`reference_matrix`] leg `key` and SV-lints it: the built
/// scenario's [`serve_artifact`] analyzed, or, for a configuration that
/// fails to build, no scenario and an SV002 report
/// ([`ladder_error_report`]) instead of an aborted lint.
pub fn lint_leg(key: &str, cfg: ScenarioConfig) -> (Option<Scenario>, Report) {
    let name = format!("serve:{key}");
    match Scenario::try_build(cfg.clone()) {
        Ok(scenario) => {
            let report = netcut_verify::analyze_serve(&serve_artifact(&name, &scenario));
            (Some(scenario), report)
        }
        Err(err) => (None, ladder_error_report(&name, &cfg, &err)),
    }
}

/// One SV report per [`reference_matrix`] leg, each from [`lint_leg`].
/// `lint serve` runs this; the suite report lints the legs it then runs
/// through [`lint_leg`] itself.
pub fn lint_reference_matrix() -> Vec<Report> {
    reference_matrix()
        .into_iter()
        .map(|(key, cfg)| lint_leg(key, cfg).1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_verify::serve_plane::analyze_serve;

    #[test]
    fn a_quick_sharded_scenario_extracts_clean() {
        let scenario = Scenario::try_build(ScenarioConfig {
            duration_us: 300_000,
            batch_max: 4,
            shards: 2,
            ..ScenarioConfig::default()
        })
        .expect("quick scenario builds");
        let artifact = serve_artifact("serve:quick", &scenario);
        assert_eq!(artifact.shards.len(), 2);
        assert!(artifact.shards.iter().all(|s| !s.ladder.rungs.is_empty()));
        assert_eq!(artifact.global_faults.len(), 3);
        let report = analyze_serve(&artifact);
        assert!(
            report.summary().total() == 0,
            "extracted artifact must lint clean:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn the_reference_matrix_is_pinned() {
        let keys: Vec<&str> = reference_matrix().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "baseline",
                "no_degrade",
                "batch",
                "shard",
                "batch_shard",
                "drift_norecal",
                "drift"
            ]
        );
        for (key, cfg) in reference_matrix() {
            assert_eq!(cfg.validate(), Ok(()), "{key}");
            assert_eq!(cfg.jobs, 0, "{key} must use all cores");
            assert_eq!(cfg.seed, ScenarioConfig::default().seed);
            let drift_leg = key.starts_with("drift");
            assert_eq!(cfg.thermal_ppm > 0, drift_leg, "{key} thermal config");
            assert_eq!(cfg.recalibrate, key == "drift", "{key} loop state");
            if drift_leg {
                assert_eq!(cfg.shards, 1, "{key} must isolate the thermal signal");
                assert!(!cfg.faults, "{key} must not mix demo faults into drift");
            }
        }
    }

    #[test]
    fn the_stress_leg_is_million_request_scale_and_not_a_matrix_leg() {
        let (key, cfg) = stress_scenario();
        assert_eq!(key, "stress_1m");
        assert_eq!(cfg.validate(), Ok(()));
        assert!(
            !reference_matrix().iter().any(|(k, _)| *k == key),
            "the stress leg must not join the pinned matrix"
        );
        assert_eq!(cfg.seed, ScenarioConfig::default().seed);
        assert_eq!(cfg.shards, SHARDS);
        assert_eq!(cfg.batch_max, BATCH_MAX);
        // ~10⁶ expected arrivals: rps × duration, in whole requests.
        let expected = cfg.rps * cfg.duration_us / 1_000_000;
        assert!(expected >= 1_000_000, "only {expected} expected arrivals");
        assert!(
            cfg.deadline_us > ScenarioConfig::default().deadline_us,
            "the widened deadline keeps the pool serving instead of rejecting"
        );
    }

    #[test]
    fn a_drift_scenario_extracts_clean_with_its_recalib_policy() {
        let scenario = Scenario::try_build(ScenarioConfig {
            duration_us: 300_000,
            faults: false,
            thermal_ppm: DRIFT_THERMAL_PPM,
            recalibrate: true,
            ..ScenarioConfig::default()
        })
        .expect("drift scenario builds");
        let artifact = serve_artifact("serve:drift", &scenario);
        // The thermal window is the only fault, owned by the lone shard
        // and present in the global timeline.
        assert_eq!(artifact.global_faults.len(), 1);
        assert_eq!(artifact.shards[0].fault_windows.len(), 1);
        assert_eq!(artifact.global_faults[0].start_us, 75_000);
        assert_eq!(artifact.global_faults[0].end_us, 255_000);
        let recalib = artifact.recalib.expect("closed loop carries its policy");
        assert_eq!(recalib.drift_ppm, scenario.recalib_config().drift_ppm);
        let report = analyze_serve(&artifact);
        assert!(
            report.summary().total() == 0,
            "drift artifact must lint clean:\n{}",
            report.render_text()
        );
        // The open-loop twin omits the policy and keeps its fingerprint
        // distinct.
        let open = Scenario::try_build(ScenarioConfig {
            duration_us: 300_000,
            faults: false,
            thermal_ppm: DRIFT_THERMAL_PPM,
            ..ScenarioConfig::default()
        })
        .expect("open-loop drift scenario builds");
        let open_artifact = serve_artifact("serve:drift", &open);
        assert!(open_artifact.recalib.is_none());
        assert_ne!(open_artifact.fingerprint(), artifact.fingerprint());
    }

    #[test]
    fn ladder_errors_become_sv002_reports() {
        let cfg = ScenarioConfig::default();
        let err = crate::LadderError::ExitPinOutOfRange { pin: 99, exits: 17 }.into();
        let report = ladder_error_report("serve:pinned", &cfg, &err);
        assert!(!report.is_clean());
        assert_eq!(report.first_error().unwrap().code.as_str(), "SV002");
        assert!(report.first_error().unwrap().message.contains("99"));
    }

    #[test]
    fn an_oversized_config_lints_as_sv002_without_building() {
        let cfg = ScenarioConfig {
            shards: 65_536,
            workers: 65_536,
            ..ScenarioConfig::default()
        };
        let (scenario, report) = lint_leg("oversized", cfg);
        assert!(scenario.is_none());
        let first = report.first_error().expect("an SV002 finding");
        assert_eq!(first.code.as_str(), "SV002");
        assert!(
            first
                .message
                .contains("--shards must be at most 65535 (got 65536)"),
            "{}",
            first.message
        );
    }
}
