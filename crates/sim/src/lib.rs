//! Embedded-GPU timing simulation for the NetCut reproduction.
//!
//! The paper evaluates on an NVIDIA Jetson Xavier, which this environment
//! does not have; this crate substitutes an analytical device model that
//! preserves the properties NetCut's estimators depend on:
//!
//! * per-layer latencies are **roughly additive** (inference latency falls
//!   almost linearly with layers removed, §IV-B-2);
//! * per-layer *profiling* is **over-additive** — recording each layer with
//!   CUDA-event-style instrumentation adds a per-layer overhead, so the sum
//!   of layer latencies slightly exceeds the end-to-end measurement (the
//!   observation that motivates the paper's ratio-form estimator, §V-B-1);
//! * **layer fusion** and **INT8 quantization** reduce latency (§III-B-4);
//! * narrow layers underutilize the device (occupancy), making latency a
//!   *non-linear* function of FLOPs — the non-linearity the RBF-kernel SVR
//!   adapts to and linear regression does not (§V-C);
//! * **batching** amortizes weight streaming and kernel launches:
//!   [`batch_curve_ppm`] fuses a network once and prices every batch size
//!   up to a bound as an integer ppm factor over batch 1, the form a
//!   deadline-aware scheduler consumes.
//!
//! [`Session::measure`] follows the paper's 200 warm-up + 800 timed runs and
//! reads the p95, p99 and maximum by selection rather than a full sort.
//!
//! # Example
//!
//! ```
//! use netcut_graph::zoo;
//! use netcut_sim::{DeviceModel, Precision, Session};
//!
//! let device = DeviceModel::jetson_xavier();
//! let session = Session::new(device, Precision::Int8);
//! let m = session.measure(&zoo::mobilenet_v1(0.5), 42);
//! assert!(m.mean_ms > 0.05 && m.mean_ms < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod energy;
mod fusion;
mod latency;
mod measure;
mod profile;
mod rng;
mod trace;

pub use device::{DeviceModel, Precision};
pub use energy::EnergyModel;
pub use fusion::{fuse_network, FusedKernel};
pub use latency::{
    batch_curve_ppm, batched_network_latency_ms, batched_network_latency_us, kernel_latency_ms,
    network_latency_ms,
};

/// One million — the fixed-point base for every parts-per-million quantity
/// this crate exports to integer-arithmetic consumers ([`batch_curve_ppm`],
/// [`DeviceModel::jitter_ppm`], [`DeviceModel::transient_slowdown_ppm`]).
pub const PPM_SCALE: u64 = 1_000_000;
pub use measure::{Measurement, Session};
pub use profile::{LatencyTable, LayerProfile};
pub use trace::{trace_network, Bound, Trace, TraceEntry};
