//! `netcut-serve` — a deadline-aware serving runtime over the TRN ladder.
//!
//! NetCut's premise is that a family of trimmed networks (TRNs) trades
//! accuracy for latency along its Pareto frontier. This crate puts that
//! frontier to work at serving time: a bounded worker pool schedules
//! simulated EMG and visual-frame inference requests against the control
//! loop's per-request deadline (§III-A: 0.9 ms for the visual
//! classifier), and when queueing pressure would bust the deadline it
//! *degrades* — serves a faster, more-trimmed rung of the ladder — then
//! recovers to the most accurate rung as soon as load drops.
//!
//! Since the multi-exit refactor the ladder's rungs are no longer
//! separate trimmed networks: they are the **exit heads of one backbone**
//! (`netcut_graph::Network::with_exit_heads`), so a rung switch is a free
//! change of which head's logits to read — no model swap — and each
//! device keeps one resident network instead of one per rung
//! ([`LadderMemory`] quantifies the ~17× footprint reduction).
//!
//! The moving parts:
//!
//! * [`TrnLadder`] (alias [`ExitTable`]) — the Pareto set from
//!   `netcut::explore`, ordered by predicted latency in integer
//!   microseconds, with the memoryless slack-based exit-selection policy
//!   and the per-device memory accounting.
//! * [`Workload`] — seeded Poisson arrivals of [`Request`]s (EMG +
//!   visual mix) with pure-function service-time noise.
//! * [`FaultPlan`] — deterministic fault injection: device jitter
//!   windows, worker stalls, and dropped requests.
//! * [`Batcher`] — dynamic batching: coalesces queued visual requests
//!   into one batched inference when a rung's *batch-aware* latency still
//!   meets the tightest member's deadline within a per-batch slack
//!   budget.
//! * [`Shard`] / [`ShardRouter`] — multi-device sharding: the worker
//!   pool partitioned across simulated devices, each with its own
//!   per-device ladder, fault plan, and noise table; requests route to
//!   the least predicted completion time, spilling away from full
//!   shards.
//! * [`Server`] — the discrete-event simulation itself: candidate
//!   dispatch (solo or batch join) per shard, routing, admission control
//!   (reject when queueing alone reaches the deadline), ladder
//!   selection, miss accounting.
//! * [`ServeSummary`] — the integer-only aggregate (miss rate in ppm,
//!   goodput, per-shard rung histograms, batch-size histogram, latency
//!   percentiles) with a stable JSON rendering.
//! * [`Timeline`] — virtual-time windowed telemetry: per-(window, shard)
//!   disposition counts, queue quantiles, predicted-vs-observed residual
//!   EWMAs, SLO burn rates, and `OBS0xx` alerts, exportable as JSON-lines
//!   or a Chrome trace.
//! * [`Scenario`] — the wiring: explore each device → ladders + batch
//!   curves → workload → serve, with `jobs`-parallel stages confined to
//!   order-deterministic work so summaries are bit-identical at any
//!   parallelism.
//!
//! Everything the simulation computes is integer microseconds or parts
//! per million: determinism is architectural, not incidental.
//!
//! # Example
//!
//! ```
//! use netcut_serve::{run_scenario, ScenarioConfig};
//!
//! let summary = run_scenario(ScenarioConfig {
//!     duration_us: 100_000, // 0.1 s keeps the doctest quick
//!     ..ScenarioConfig::default()
//! });
//! assert_eq!(summary.total, summary.served + summary.missed
//!     + summary.rejected + summary.dropped);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod faults;
pub mod ladder;
pub mod recalib;
pub mod request;
pub mod runtime;
pub mod scenario;
pub mod shard;
pub mod splane;
pub mod summary;
pub mod timeline;

pub use batch::{AdmissionLists, Batcher};
pub use faults::{FaultKind, FaultPlan, FaultTable, FaultWindow};
pub use ladder::{ExitTable, LadderError, LadderMemory, Rung, TrnLadder};
pub use recalib::{CalibrateOnly, RecalibConfig, Recalibrator};
pub use request::{service_noise_ppm, Request, RequestKind, Workload, PPM};
pub use runtime::{RequestOutcome, Server, ServerConfig, Status};
pub use scenario::{run_scenario, ConfigError, Scenario, ScenarioConfig, MAX_DURATION_US};
pub use shard::{Candidate, Shard, ShardRouter};
pub use splane::{
    ladder_error_report, lint_reference_matrix, reference_matrix, serve_artifact, stress_scenario,
};
pub use summary::{RunMeta, ServeSummary, ShardMeta};
pub use timeline::{Swap, Timeline, TimelineConfig, WindowRow};
