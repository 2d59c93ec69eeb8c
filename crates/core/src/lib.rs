//! **NetCut**: real-time DNN inference using layer removal — the core
//! algorithms of the DATE 2021 paper.
//!
//! This crate ties the substrates together:
//!
//! * [`removal`] — constructing TRimmed Networks (TRNs) by blockwise or
//!   iterative (per-layer) removal (§IV);
//! * [`explore`] — the exhaustive blockwise exploration baseline that
//!   measures and retrains *every* TRN (145 networks here; the paper's
//!   sweep is 148 networks and 183 hours);
//! * [`pareto`] — Pareto-frontier extraction and the accuracy-gap /
//!   relative-improvement analysis of Figs. 1, 6 and 7;
//! * [`netcut`] — **Algorithm 1**: deadline-aware exploration that uses a
//!   latency estimator to propose one TRN per source family and retrains
//!   only those (§V);
//! * [`eval`] — the shared evaluation core: an [`eval::EvalContext`]
//!   memoizes measurement / retraining / profiling behind structural
//!   fingerprints (blockwise cuts behind their derivation) and runs
//!   candidate batches on a deterministic scoped-thread work queue.
//!
//! # Example
//!
//! ```no_run
//! use netcut::eval::EvalContext;
//! use netcut::netcut::NetCut;
//! use netcut_estimate::ProfilerEstimator;
//! use netcut_graph::zoo;
//! use netcut_sim::{DeviceModel, Precision, Session};
//! use netcut_train::SurrogateRetrainer;
//!
//! let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
//! let retrainer = SurrogateRetrainer::paper();
//! let ctx = EvalContext::new(&session, &retrainer);
//! let sources = zoo::paper_networks();
//! let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 42);
//! let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.9, &ctx);
//! println!("selected: {}", outcome.selected().expect("a TRN meets 0.9 ms").name);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod explore;
pub mod netadapt;
pub mod netcut;
pub mod pareto;
pub mod removal;
mod report;

pub use report::CandidatePoint;
