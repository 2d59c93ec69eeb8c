//! The end-to-end serve scenario: everything between a CLI invocation and
//! a [`ServeSummary`].
//!
//! A scenario wires the whole pipeline together: it explores a network
//! family on each shard's simulated device (through
//! [`netcut::eval::EvalContext`], so `--jobs` parallelizes candidate
//! evaluation), builds one TRN ladder per device from its Pareto frontier
//! — a slower edge device keeps fewer, faster rungs under the same
//! deadline — attaches analytic batch-scaling curves when dynamic batching
//! is on, generates the seeded workload, precomputes per-shard noise
//! tables on a worker pool of the same size, and runs the serving
//! simulation. The `jobs` knob only ever touches physically-parallel
//! stages whose outputs are order-deterministic, so the final summary is
//! bit-identical at any `jobs` value — the property the determinism
//! acceptance check, the CI `--jobs` matrix leg, and the golden traces
//! rely on.
//!
//! Set-up builds each network once. One retrainer and one cache set serve
//! every roster device. The scenario network is cut into its blockwise
//! TRNs once; each device explores those TRNs, and its exit table reads
//! memory accounting and batch curves (one fusion pass per rung) from
//! them by cutpoint.
//!
//! Shard 0 always runs the primary device with the *unsalted* seed and no
//! shard noise table, so a `shards: 1, batch_max: 1` scenario reproduces
//! the pre-sharding runtime bit-for-bit.

use crate::faults::FaultPlan;
use crate::ladder::{LadderError, LadderMemory, TrnLadder};
use crate::recalib::{CalibrateOnly, RecalibConfig};
use crate::request::{service_noise_ppm, Workload};
use crate::runtime::{RequestOutcome, Server, ServerConfig};
use crate::shard::Shard;
use crate::summary::{RunMeta, ServeSummary};
use crate::timeline::{Timeline, TimelineConfig};
use netcut::eval::{par_map_with_jobs, EvalCaches, EvalContext};
use netcut::explore::exhaustive_blockwise_of;
use netcut::removal::blockwise_trns;
use netcut_graph::{zoo, HeadSpec, Network};
use netcut_obs as obs;
use netcut_sim::{batch_curve_ppm, DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;
use std::sync::Arc;
use std::{fmt, slice};

/// Salt mixed into per-shard seeds (shard 0 stays unsalted so single-shard
/// runs reproduce pre-sharding behavior bit-for-bit).
const SHARD_SEED_SALT: u64 = 0x7368_6172_645f_6964;

/// Longest run a scenario accepts, microseconds (about 71.6 minutes).
///
/// `Workload::generate` places arrivals on distinct whole microseconds in
/// `[1, duration_us)`, so a run within this limit has fewer than
/// `u32::MAX` requests, and fewer batches than requests. The runtime's
/// `u32` outcome and batch indices therefore never reach their `u32::MAX`
/// "none" sentinel. The limit does not bound memory.
pub const MAX_DURATION_US: u64 = u32::MAX as u64;

/// Why a [`ScenarioConfig`] cannot run. The messages name the CLI flag
/// that sets the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The field set by this flag is zero but must be positive.
    Zero(&'static str),
    /// Every shard needs at least one worker.
    ShardsExceedWorkers {
        /// Configured shard count.
        shards: usize,
        /// Configured worker count.
        workers: usize,
    },
    /// The device roster names no device.
    EmptyRoster,
    /// The run is longer than [`MAX_DURATION_US`]; carries the duration.
    DurationTooLong(u64),
    /// Exit-table construction failed after exploration.
    Ladder(LadderError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(flag) => {
                let rule = match *flag {
                    "--duration" => "must be at least one microsecond (0.000001)",
                    "--batch-max" => "must be at least 1 (1 = batching off)",
                    "--shards" => "must be at least 1",
                    _ => "must be positive",
                };
                write!(f, "{flag} {rule}")
            }
            ConfigError::ShardsExceedWorkers { shards, workers } => write!(
                f,
                "--shards {shards} needs at least that many workers (got --workers {workers})"
            ),
            ConfigError::EmptyRoster => write!(f, "--devices must name at least one device"),
            ConfigError::DurationTooLong(us) => write!(
                f,
                "--duration must be at most {}.{:06} seconds (got {us} µs)",
                MAX_DURATION_US / 1_000_000,
                MAX_DURATION_US % 1_000_000
            ),
            ConfigError::Ladder(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<LadderError> for ConfigError {
    fn from(e: LadderError) -> Self {
        ConfigError::Ladder(e)
    }
}

/// Parameters of a full serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Per-request deadline, microseconds.
    pub deadline_us: u64,
    /// Mean arrival rate, requests per second.
    pub rps: u64,
    /// Run duration, microseconds.
    pub duration_us: u64,
    /// Seed for exploration, arrivals, noise, and faults.
    pub seed: u64,
    /// Worker threads for ladder construction and noise precompute.
    pub jobs: usize,
    /// Simulated serving workers (partitioned across shards).
    pub workers: usize,
    /// `false` reproduces the `--no-degrade` baseline.
    pub degrade: bool,
    /// Fraction of EMG requests, parts per million.
    pub emg_share_ppm: u64,
    /// Inject the seeded demo fault schedule (per shard, decorrelated).
    pub faults: bool,
    /// Largest batch dynamic batching may form (1 = batching off).
    pub batch_max: usize,
    /// Per-batch slack budget, microseconds.
    pub batch_slack_us: u64,
    /// Number of device shards the worker pool is partitioned into.
    pub shards: usize,
    /// Device roster: shard `i` runs `devices[i % devices.len()]`.
    pub devices: Vec<DeviceModel>,
    /// Timeline window width, microseconds of virtual time.
    pub timeline_window_us: u64,
    /// `Some(k)` pins every visual request to exit `k` of the table
    /// (`--exit-table N`); `None` serves the full adaptive exit table.
    pub exit_pin: Option<usize>,
    /// Thermal-throttle drift magnitude, ppm service-time factor over the
    /// middle 25%–85% of the run ([`crate::faults::FaultWindow::thermal`]);
    /// `0` injects no thermal window.
    pub thermal_ppm: u64,
    /// `true` closes the loop (`--recalibrate`): residual drift past
    /// `recalib_drift_ppm` refits the estimator and hot-swaps the exit
    /// table re-tagged at the corrected calibration.
    pub recalibrate: bool,
    /// Residual drift that arms a recalibration, ppm
    /// (`--recalib-drift-ppm`).
    pub recalib_drift_ppm: u64,
    /// Minimum virtual time between hot-swaps of one shard, microseconds
    /// (`--recalib-cooldown-us`).
    pub recalib_cooldown_us: u64,
}

impl Default for ScenarioConfig {
    /// The acceptance-check scenario: 900 µs deadline, 2000 rps, 5 s,
    /// seed 11, two workers, 10% EMG, degradation on, faults on, batching
    /// off, one shard. The device roster defaults to the Jetson Xavier
    /// (the paper's target) backed by the slower Jetson Nano edge profile,
    /// which `--shards 2` brings into play.
    fn default() -> Self {
        ScenarioConfig {
            deadline_us: 900,
            rps: 2000,
            duration_us: 5_000_000,
            seed: 11,
            jobs: 1,
            workers: 2,
            degrade: true,
            emg_share_ppm: 100_000,
            faults: true,
            batch_max: 1,
            batch_slack_us: 300,
            shards: 1,
            devices: vec![DeviceModel::jetson_xavier(), DeviceModel::jetson_nano()],
            timeline_window_us: TimelineConfig::default().window_us,
            exit_pin: None,
            thermal_ppm: 0,
            recalibrate: false,
            recalib_drift_ppm: RecalibConfig::default().drift_ppm,
            recalib_cooldown_us: RecalibConfig::default().cooldown_us,
        }
    }
}

impl ScenarioConfig {
    /// The one check of whether this configuration can run: every field
    /// that must be positive is, in the CLI's flag order, then every shard
    /// has a worker, the roster names a device, and the run fits
    /// [`MAX_DURATION_US`]. An out-of-range `exit_pin` is found only after
    /// exploration, as [`ConfigError::Ladder`].
    ///
    /// # Errors
    /// The first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let zero = [
            ("--duration", self.duration_us == 0),
            ("--deadline-us", self.deadline_us == 0),
            ("--rps", self.rps == 0),
            ("--batch-max", self.batch_max == 0),
            ("--shards", self.shards == 0),
            ("--timeline-window-us", self.timeline_window_us == 0),
            ("--recalib-drift-ppm", self.recalib_drift_ppm == 0),
            ("--recalib-cooldown-us", self.recalib_cooldown_us == 0),
        ];
        if let Some(&(flag, _)) = zero.iter().find(|(_, is_zero)| *is_zero) {
            return Err(ConfigError::Zero(flag));
        }
        if self.shards > self.workers {
            return Err(ConfigError::ShardsExceedWorkers {
                shards: self.shards,
                workers: self.workers,
            });
        }
        if self.devices.is_empty() {
            return Err(ConfigError::EmptyRoster);
        }
        if self.duration_us > MAX_DURATION_US {
            return Err(ConfigError::DurationTooLong(self.duration_us));
        }
        Ok(())
    }
}

/// A fully-built scenario, ready to run (and re-run: the simulation is a
/// pure function, so [`Scenario::run_full`] always returns the same
/// outcomes).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The server: device shards plus the runtime configuration.
    server: Server,
    /// The generated request stream, shard-0 noise attached.
    pub requests: Vec<crate::request::Request>,
    config: ScenarioConfig,
}

/// The network family the serve scenario explores: MobileNetV2 ×1.0 gives
/// a 17-rung ladder spanning roughly 75–760 µs on the Xavier Int8 model —
/// rich degradation headroom around the 900 µs paper deadline.
pub fn scenario_networks() -> Vec<Network> {
    vec![zoo::mobilenet_v2(1.0)]
}

/// The scenario network, its multi-exit form and its blockwise TRNs, each
/// built once per scenario: every roster device explores these TRNs, and
/// its exit table reads memory accounting and batch curves from them by
/// cutpoint.
struct ScenarioNets {
    source: Network,
    /// The source with an exit head after every block.
    multi_exit: Network,
    /// `trns[k]` is the source cut at blockwise cutpoint `k`, head attached.
    trns: Vec<Network>,
}

impl ScenarioNets {
    fn cut() -> Self {
        let head = HeadSpec::default();
        let source = scenario_networks().swap_remove(0);
        ScenarioNets {
            multi_exit: source.with_exit_heads(&head),
            trns: blockwise_trns(&source, &head),
            source,
        }
    }
}

/// Per-device model-memory accounting of `ladder`: the multi-exit network
/// it now indexes into, versus the pre-refactor fleet of one trimmed
/// network per rung. A resident model costs its FP32 weights plus a
/// preallocated activation arena per batch slot; the exit table pays that
/// once for the whole ladder (exit heads are near-free — a pooled linear
/// layer each), while the baseline pays weights *and* arena per rung, and
/// trimmed rungs keep nearly the full arena because the largest
/// activations live in the early layers every rung retains.
fn exit_table_memory(ladder: &TrnLadder, batch_max: usize, nets: &ScenarioNets) -> LadderMemory {
    let batch = batch_max.max(1) as u64;
    let footprint = |net: &Network| net.param_bytes() + net.peak_activation_bytes() * batch;
    LadderMemory {
        model_bytes: footprint(&nets.multi_exit),
        baseline_model_bytes: ladder
            .rungs()
            .iter()
            .map(|r| footprint(&nets.trns[r.cutpoint]))
            .sum(),
    }
}

/// Builds the exit table for `cfg` on `device` through `ctx`: explores
/// the scenario's TRNs ([`scenario_networks`] under Int8), Pareto-filters
/// the candidates into the exit table of one multi-exit network, attaches
/// the per-device memory accounting ([`exit_table_memory`]), and — when
/// `cfg.batch_max` allows batching — attaches the analytic batch-scaling
/// curve of each exit ([`batch_curve_ppm`]). The scenario build shares
/// one retrainer, one cache set and one set of networks across its roster
/// devices.
///
/// # Errors
/// [`LadderError::NoCandidates`] if the exploration produced no points —
/// a misconfigured sweep, not a bug.
fn build_ladder_in(
    cfg: &ScenarioConfig,
    device: &DeviceModel,
    ctx: &EvalContext<'_, SurrogateRetrainer>,
    nets: &ScenarioNets,
) -> Result<TrnLadder, LadderError> {
    let exploration = exhaustive_blockwise_of(
        ctx,
        slice::from_ref(&nets.source),
        slice::from_ref(&nets.trns),
        cfg.seed,
    );
    let ladder = TrnLadder::from_points(&exploration.points)?;
    let memory = exit_table_memory(&ladder, cfg.batch_max, nets);
    let ladder = ladder.with_memory(memory);
    if cfg.batch_max <= 1 {
        return Ok(ladder);
    }
    let batch_max = cfg.batch_max;
    // Curves are pure per-rung work: compute them on the shared pool.
    // par_map preserves input order, so the curves land rung-aligned.
    let cutpoints: Vec<usize> = ladder.rungs().iter().map(|r| r.cutpoint).collect();
    let curves = ctx.par_map(cutpoints, |_, cut| {
        batch_curve_ppm(&nets.trns[cut], device, Precision::Int8, batch_max)
    });
    Ok(ladder.with_batch_curves(curves))
}

/// Splits `workers` across `shards` as evenly as possible, remainder to
/// the lowest shard indices.
fn split_workers(workers: usize, shards: usize) -> Vec<usize> {
    let base = workers / shards;
    let rem = workers % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

impl Scenario {
    /// Builds the scenario, panicking on configuration errors — for
    /// callers that construct configs they know are valid. Prefer
    /// [`Scenario::try_build`] at trust boundaries (the CLI goes through
    /// it).
    ///
    /// # Panics
    /// Panics if [`Scenario::try_build`] reports a [`ConfigError`].
    pub fn build(cfg: ScenarioConfig) -> Self {
        Self::try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the scenario: per-device exit tables, workload, noise
    /// tables, fault plans.
    ///
    /// # Errors
    /// Whatever [`ScenarioConfig::validate`] rejects, before any
    /// exploration; then [`LadderError::NoCandidates`] if a device's
    /// exploration yields no exit candidates, or
    /// [`LadderError::ExitPinOutOfRange`] if `cfg.exit_pin` indexes past
    /// the end of some shard's exit table, both as [`ConfigError::Ladder`].
    pub fn try_build(cfg: ScenarioConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut span = obs::span("serve.scenario.build");
        span.field("seed", cfg.seed);
        span.field("jobs", cfg.jobs);
        span.field("shards", cfg.shards);
        span.field("batch_max", cfg.batch_max);

        // One ladder per *unique* device on the roster (building a ladder
        // means a full exploration — don't repeat it per shard). All
        // builds share one retrainer, one cache set and one set of TRNs,
        // dropped once the ladders are built.
        let roster: Vec<&DeviceModel> = (0..cfg.shards)
            .map(|i| &cfg.devices[i % cfg.devices.len()])
            .collect();
        let mut ladders: Vec<(String, TrnLadder)> = Vec::new();
        {
            let nets = ScenarioNets::cut();
            let retrainer = SurrogateRetrainer::paper();
            let caches = Arc::new(EvalCaches::new());
            for device in &roster {
                if !ladders.iter().any(|(name, _)| *name == device.name) {
                    let session = Session::new((*device).clone(), Precision::Int8);
                    let ctx = EvalContext::new(&session, &retrainer)
                        .with_jobs(cfg.jobs)
                        .with_shared_caches(caches.clone());
                    let ladder = build_ladder_in(&cfg, device, &ctx, &nets)?;
                    ladders.push((device.name.clone(), ladder));
                }
            }
        }
        if let Some(pin) = cfg.exit_pin {
            for (_, ladder) in &ladders {
                if pin >= ladder.len() {
                    return Err(LadderError::ExitPinOutOfRange {
                        pin,
                        exits: ladder.len(),
                    }
                    .into());
                }
            }
        }
        let ladder_for = |name: &str| -> &TrnLadder {
            ladders
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, l)| l)
                .expect("ladder built for every roster device")
        };
        span.field("rungs", ladder_for(&roster[0].name).len());

        let mut requests = Workload {
            rps: cfg.rps,
            duration_us: cfg.duration_us,
            emg_share_ppm: cfg.emg_share_ppm,
            seed: cfg.seed,
        }
        .generate();
        // Noise is a pure function of (seed, id): attach it on a worker
        // pool — par_map_with_jobs preserves input order, so the result is
        // identical at any `jobs`. Shard 0 reads the request's carried
        // noise (bit-compatible with single-shard runs); shards ≥ 1 get
        // their own decorrelated tables sized to their device's jitter.
        let seed = cfg.seed;
        let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        let worker_split = split_workers(cfg.workers, cfg.shards);
        let jitter0 = roster[0].jitter_ppm();
        let noise0 = par_map_with_jobs(cfg.jobs, ids.clone(), move |_, id| {
            service_noise_ppm(seed, id, jitter0)
        });
        for (r, n) in requests.iter_mut().zip(noise0) {
            r.noise_ppm = n;
        }
        let mut shards: Vec<Shard> = Vec::with_capacity(cfg.shards);
        for (i, device) in roster.iter().enumerate() {
            let shard_seed = seed ^ (i as u64).wrapping_mul(SHARD_SEED_SALT);
            let noise_ppm = if i == 0 {
                Vec::new() // shard 0 uses the request-carried noise
            } else {
                let jitter = device.jitter_ppm();
                par_map_with_jobs(cfg.jobs, ids.clone(), move |_, id| {
                    service_noise_ppm(shard_seed, id, jitter)
                })
            };
            shards.push(Shard {
                name: device.name.clone(),
                ladder: ladder_for(&device.name).clone(),
                workers: worker_split[i],
                faults: {
                    let plan = if cfg.faults {
                        // The *global* fault timeline partitioned across
                        // the fleet: a sharded run faces the same
                        // environment as the single-shard baseline, not
                        // `shards` copies.
                        FaultPlan::seeded_demo_shard(seed, cfg.duration_us, device, i, cfg.shards)
                    } else {
                        FaultPlan::none()
                    };
                    if cfg.thermal_ppm > 0 {
                        // Ambient heat soaks the whole box: every shard
                        // gets the window, unpartitioned.
                        plan.with_thermal(cfg.duration_us, cfg.thermal_ppm)
                    } else {
                        plan
                    }
                },
                noise_ppm,
            });
        }

        let server_config = ServerConfig {
            deadline_us: cfg.deadline_us,
            workers: cfg.workers,
            degrade: cfg.degrade,
            batch_max: cfg.batch_max,
            batch_slack_us: cfg.batch_slack_us,
            exit_pin: cfg.exit_pin,
            ..ServerConfig::default()
        };
        span.field("requests", requests.len());
        Ok(Scenario {
            server: Server::with_shards(shards, server_config),
            requests,
            config: cfg,
        })
    }

    /// The configuration this scenario was built from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Shard 0's ladder (the only ladder for single-shard scenarios).
    pub fn ladder(&self) -> &TrnLadder {
        self.server.ladder()
    }

    /// The server this scenario runs.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The timeline configuration this scenario records under.
    pub fn timeline_config(&self) -> TimelineConfig {
        TimelineConfig {
            window_us: self.config.timeline_window_us,
        }
    }

    /// The recalibration thresholds this scenario's control loop runs
    /// under (watermark cadence and refit-window sizing stay at the
    /// [`RecalibConfig`] defaults; only the CLI-exposed knobs vary).
    pub fn recalib_config(&self) -> RecalibConfig {
        RecalibConfig {
            drift_ppm: self.config.recalib_drift_ppm,
            cooldown_us: self.config.recalib_cooldown_us,
            ..RecalibConfig::default()
        }
    }

    /// The closed-loop recalibrator for this scenario: re-tags each
    /// shard's resident exit table at the corrected calibration. The refit
    /// is one uniform factor, which cannot reorder a Pareto front, so
    /// re-exploring would rebuild the very table the shard already holds.
    pub fn recalibrator(&self) -> CalibrateOnly {
        CalibrateOnly::new(
            self.server
                .shards()
                .iter()
                .map(|s| s.ladder.clone())
                .collect(),
        )
    }

    /// Runs the simulation recording the windowed [`Timeline`] alongside
    /// the per-request outcomes. With `recalibrate` on, the run goes
    /// through the closed loop ([`Server::run_recalibrating`]); otherwise
    /// the plain timeline run — bit-identical to pre-recalibration
    /// builds.
    pub fn run_full(&self) -> (Vec<RequestOutcome>, Timeline) {
        if self.config.recalibrate {
            self.server.run_recalibrating(
                &self.requests,
                &self.timeline_config(),
                &self.recalib_config(),
                &self.recalibrator(),
            )
        } else {
            self.server
                .run_with_timeline(&self.requests, &self.timeline_config())
        }
    }

    /// Runs the simulation and aggregates the summary (timeline attached),
    /// returning the timeline alongside it.
    pub fn run_summary(&self) -> (ServeSummary, Timeline) {
        let meta = RunMeta::from_server(&self.server, self.config.duration_us);
        let (outcomes, timeline) = self.run_full();
        let mut summary = ServeSummary::from_outcomes(&outcomes, &meta);
        summary.attach_timeline(&timeline);
        (summary, timeline)
    }
}

/// Builds and runs a scenario in one call — what the CLI and bench do.
pub fn run_scenario(cfg: ScenarioConfig) -> ServeSummary {
    Scenario::build(cfg).run_summary().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recalib::Recalibrator;
    use crate::request::PPM;

    fn quick() -> ScenarioConfig {
        ScenarioConfig {
            duration_us: 300_000,
            ..ScenarioConfig::default()
        }
    }

    fn quick_sharded() -> ScenarioConfig {
        ScenarioConfig {
            batch_max: 8,
            shards: 2,
            ..quick()
        }
    }

    #[test]
    fn ladder_spans_the_deadline() {
        let scenario = Scenario::build(quick());
        let ladder = scenario.ladder();
        assert!(ladder.len() >= 8, "only {} rungs", ladder.len());
        assert!(ladder.rung(0).latency_us < 900);
        assert!(ladder.rung(ladder.top()).latency_us > 300);
    }

    #[test]
    fn exit_table_memory_beats_the_per_rung_fleet_tenfold() {
        let scenario = Scenario::build(quick_sharded());
        let mem = scenario
            .ladder()
            .memory()
            .expect("scenario ladders carry memory accounting");
        assert!(mem.model_bytes > 0);
        assert!(
            mem.reduction_ppm() >= 10 * PPM,
            "multi-exit table is only {}ppm smaller than the per-rung fleet \
             ({} vs {} bytes)",
            mem.reduction_ppm(),
            mem.model_bytes,
            mem.baseline_model_bytes
        );
    }

    #[test]
    fn exit_pin_past_the_table_is_a_typed_error() {
        let err = Scenario::try_build(ScenarioConfig {
            exit_pin: Some(usize::MAX),
            ..quick()
        })
        .expect_err("pin past the table");
        assert!(
            matches!(
                err,
                ConfigError::Ladder(LadderError::ExitPinOutOfRange { .. })
            ),
            "{err}"
        );
    }

    /// [`quick`] with one edit applied.
    fn quick_with(edit: impl FnOnce(&mut ScenarioConfig)) -> ScenarioConfig {
        let mut cfg = quick();
        edit(&mut cfg);
        cfg
    }

    /// The message of `validate`'s verdict on `cfg`, or `None` if it passes.
    fn verdict(cfg: &ScenarioConfig) -> Option<String> {
        cfg.validate().err().map(|e| e.to_string())
    }

    #[test]
    fn each_zero_field_names_its_flag() {
        let cases: [(ScenarioConfig, &str); 8] = [
            (
                quick_with(|c| c.duration_us = 0),
                "--duration must be at least one microsecond (0.000001)",
            ),
            (
                quick_with(|c| c.deadline_us = 0),
                "--deadline-us must be positive",
            ),
            (quick_with(|c| c.rps = 0), "--rps must be positive"),
            (
                quick_with(|c| c.batch_max = 0),
                "--batch-max must be at least 1 (1 = batching off)",
            ),
            (quick_with(|c| c.shards = 0), "--shards must be at least 1"),
            (
                quick_with(|c| c.timeline_window_us = 0),
                "--timeline-window-us must be positive",
            ),
            (
                quick_with(|c| c.recalib_drift_ppm = 0),
                "--recalib-drift-ppm must be positive",
            ),
            (
                quick_with(|c| c.recalib_cooldown_us = 0),
                "--recalib-cooldown-us must be positive",
            ),
        ];
        for (cfg, message) in cases {
            assert!(
                matches!(cfg.validate(), Err(ConfigError::Zero(_))),
                "{message}"
            );
            assert_eq!(verdict(&cfg).as_deref(), Some(message));
        }
        assert_eq!(verdict(&quick()), None);
    }

    #[test]
    fn every_shard_needs_a_worker() {
        let with = |shards, workers| {
            quick_with(|c| {
                c.shards = shards;
                c.workers = workers;
            })
        };
        assert_eq!(verdict(&with(3, 3)), None);
        assert_eq!(
            with(3, 2).validate(),
            Err(ConfigError::ShardsExceedWorkers {
                shards: 3,
                workers: 2
            })
        );
        assert_eq!(
            verdict(&with(3, 2)).as_deref(),
            Some("--shards 3 needs at least that many workers (got --workers 2)")
        );
    }

    #[test]
    fn an_empty_roster_is_rejected() {
        let cfg = quick_with(|c| c.devices.clear());
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyRoster));
        assert_eq!(
            verdict(&cfg).as_deref(),
            Some("--devices must name at least one device")
        );
    }

    #[test]
    fn the_duration_limit_is_the_index_width() {
        let with = |duration_us| quick_with(|c| c.duration_us = duration_us);
        assert_eq!(verdict(&with(MAX_DURATION_US)), None);
        assert_eq!(
            with(MAX_DURATION_US + 1).validate(),
            Err(ConfigError::DurationTooLong(MAX_DURATION_US + 1))
        );
        assert_eq!(
            verdict(&with(u64::MAX)).as_deref(),
            Some(
                "--duration must be at most 4294.967295 seconds \
                 (got 18446744073709551615 µs)"
            )
        );
    }

    #[test]
    fn ladder_errors_keep_their_message() {
        let err = ConfigError::from(LadderError::ExitPinOutOfRange { pin: 99, exits: 17 });
        assert_eq!(
            err.to_string(),
            "exit 99 is out of range: the exit table has 17 exit(s) (0..=16)"
        );
    }

    #[test]
    fn try_build_rejects_what_the_runtime_would_panic_on() {
        let configs = [
            quick_with(|c| c.shards = 0),
            quick_with(|c| c.shards = 3),
            quick_with(|c| c.workers = 0),
            quick_with(|c| c.devices.clear()),
            quick_with(|c| c.rps = 0),
            quick_with(|c| c.deadline_us = 0),
            quick_with(|c| c.batch_max = 0),
            quick_with(|c| c.timeline_window_us = 0),
            quick_with(|c| {
                c.recalibrate = true;
                c.recalib_drift_ppm = 0;
            }),
            quick_with(|c| {
                c.recalibrate = true;
                c.recalib_cooldown_us = 0;
            }),
        ];
        for cfg in configs {
            let expected = cfg.validate().expect_err("an unrunnable config");
            let err = Scenario::try_build(cfg).expect_err("try_build must refuse it");
            assert_eq!(err, expected);
        }
    }

    #[test]
    fn pinned_top_exit_matches_the_no_degrade_baseline() {
        // Pinning the exit table to its deepest exit is exactly the
        // `--no-degrade` server: same rung for every visual request, so
        // the whole outcome stream must be identical.
        let baseline = Scenario::build(ScenarioConfig {
            degrade: false,
            ..quick()
        });
        let pinned = Scenario::build(ScenarioConfig {
            exit_pin: Some(baseline.ladder().top()),
            ..quick()
        });
        assert_eq!(
            pinned.server().run(&pinned.requests),
            baseline.server().run(&baseline.requests)
        );
    }

    #[test]
    fn noise_is_attached_to_every_request() {
        let s = Scenario::build(quick());
        assert!(!s.requests.is_empty());
        // Noise is uniform around PPM; at least some requests deviate.
        assert!(s.requests.iter().any(|r| r.noise_ppm != PPM));
        let jitter = DeviceModel::jetson_xavier().jitter_ppm();
        for r in &s.requests {
            assert!((PPM - jitter..=PPM + jitter).contains(&r.noise_ppm));
        }
    }

    #[test]
    fn scenario_summary_is_identical_across_jobs() {
        let a = run_scenario(ScenarioConfig { jobs: 1, ..quick() });
        let b = run_scenario(ScenarioConfig { jobs: 4, ..quick() });
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn sharded_batched_summary_is_identical_across_jobs() {
        let a = run_scenario(ScenarioConfig {
            jobs: 1,
            ..quick_sharded()
        });
        let b = run_scenario(ScenarioConfig {
            jobs: 4,
            ..quick_sharded()
        });
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn degradation_beats_the_pinned_baseline() {
        let degrade = run_scenario(quick());
        let pinned = run_scenario(ScenarioConfig {
            degrade: false,
            ..quick()
        });
        assert!(
            degrade.miss_rate_ppm < pinned.miss_rate_ppm,
            "degrade {} vs pinned {}",
            degrade.miss_rate_ppm,
            pinned.miss_rate_ppm
        );
        assert!(degrade.degraded > 0);
        assert_eq!(pinned.degraded, 0);
    }

    #[test]
    fn sharded_scenario_builds_distinct_device_ladders() {
        let s = Scenario::build(quick_sharded());
        let shards = s.server().shards();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].name, "jetson-xavier");
        assert_eq!(shards[1].name, "jetson-nano");
        // The Nano is slower across the board: its fastest rung is slower
        // than the Xavier's fastest rung.
        assert!(
            shards[1].ladder.rung(0).latency_us > shards[0].ladder.rung(0).latency_us,
            "nano {} µs !> xavier {} µs",
            shards[1].ladder.rung(0).latency_us,
            shards[0].ladder.rung(0).latency_us
        );
        // Shard 0 reads request-carried noise; shard 1 has its own table.
        assert!(shards[0].noise_ppm.is_empty());
        assert_eq!(shards[1].noise_ppm.len(), s.requests.len());
        // Batch curves attached: batch 8 amortizes (sublinear).
        let l = &shards[0].ladder;
        let top = l.top();
        assert!(l.batch_latency_us(top, 8) < 8 * l.batch_latency_us(top, 1));
    }

    #[test]
    fn batching_and_sharding_fill_the_batch_histogram() {
        let summary = run_scenario(quick_sharded());
        assert_eq!(summary.shards, 2);
        assert_eq!(summary.batch_max, 8);
        assert_eq!(summary.shard_histogram.iter().sum::<u64>(), summary.total);
        assert!(
            summary.batch_histogram[1..].iter().sum::<u64>() > 0,
            "no batches ever formed: {:?}",
            summary.batch_histogram
        );
    }

    /// The drift scenario: no demo faults, a +30% thermal-throttle window
    /// over the middle of the run, single shard — the bench drift legs'
    /// shape at test duration.
    fn drifting(recalibrate: bool) -> ScenarioConfig {
        ScenarioConfig {
            duration_us: 600_000,
            faults: false,
            thermal_ppm: 1_300_000,
            recalibrate,
            recalib_cooldown_us: 150_000,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn recalibration_recovers_the_drift_scenario() {
        let open = run_scenario(drifting(false));
        let closed = run_scenario(drifting(true));
        assert_eq!(open.recalibrations, 0);
        assert!(closed.recalibrations >= 1, "controller never armed");
        assert!(
            closed.generations[0] >= 1,
            "no hot-swap recorded: {:?}",
            closed.generations
        );
        assert!(
            closed.miss_rate_ppm < open.miss_rate_ppm,
            "closed loop {} ppm !< open loop {} ppm",
            closed.miss_rate_ppm,
            open.miss_rate_ppm
        );
    }

    #[test]
    fn recalibrating_summary_is_identical_across_jobs() {
        let a = run_scenario(ScenarioConfig {
            jobs: 1,
            ..drifting(true)
        });
        let b = run_scenario(ScenarioConfig {
            jobs: 4,
            ..drifting(true)
        });
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn recalibrator_retags_each_shards_resident_table() {
        let s = Scenario::build(quick_sharded());
        let recal = s.recalibrator();
        for (i, shard) in s.server().shards().iter().enumerate() {
            let calib = 1_200_000 + i as u64;
            let ladder = recal
                .recalibrate(i, 1, calib)
                .expect("every shard recalibrates");
            assert_eq!(ladder.calib_ppm(), calib);
            assert_eq!(ladder.rungs(), shard.ladder.rungs(), "shard {i}");
            assert_eq!(ladder.batch_curves(), shard.ladder.batch_curves());
            assert_eq!(ladder.memory(), shard.ladder.memory());
        }
    }

    #[test]
    fn worker_split_is_even_with_low_remainder() {
        assert_eq!(split_workers(2, 2), vec![1, 1]);
        assert_eq!(split_workers(5, 2), vec![3, 2]);
        assert_eq!(split_workers(7, 3), vec![3, 2, 2]);
    }
}
