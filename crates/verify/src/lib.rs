//! Two-plane static analyzer: the `netcut-graph` IR and the serve plane.
//!
//! NetCut's correctness rests on every trimmed-and-reheaded network (TRN)
//! being structurally sound: a cut that severs a residual branch, a stored
//! shape that drifts from what the wiring implies, or a head whose class
//! count disagrees with the target task silently poisons every downstream
//! latency estimate and retraining run. Since PR 4 the same holds one level
//! up: the serving stack commits offline to an exit ladder, batch-scaling
//! curves, a fault plan, and an SLO policy, and a broken one of *those*
//! poisons every dispatch decision. This crate makes both sets of
//! invariants explicit and machine-checkable.
//!
//! - [`Diagnostic`]: one finding — a stable [`Code`] (`NC0xx` for the
//!   graph plane, `SV0xx` for the serve plane), a fixed [`Severity`], a
//!   [`GraphSpan`] locating it, and a message.
//! - [`Analyzer`]: the table of 15 structural graph rules (shape
//!   consistency, reachability, block-boundary integrity, cutpoint
//!   monotonicity, head structure, stats coherence, fingerprint stability,
//!   estimator-feature sanity, the multi-exit rules, …) plus the opt-in
//!   head-spec check (NC009), producing a [`Report`].
//! - [`serve_plane`]: the table of SV rules over extracted serving
//!   artifacts — ladder soundness, batch-curve sanity, fault-plan
//!   well-formedness, SLO feasibility, recalibration-policy sanity.
//! - [`detlint`]: a workspace determinism lint scanning the virtual-time
//!   crates for wall-clock reads, unordered collections, and float
//!   arithmetic in integer-µs code, with an audited allowlist.
//! - [`mutate`]: a harness of structured corruptions on both planes, each
//!   documented with the exact code the analyzer must produce — the
//!   negative test surface.
//! - [`validate`]: drop-in replacement for the old ad-hoc
//!   `Network::validate()`, returning the first Error-severity finding.
//!
//! Reports render as human-readable text ([`Report::render_text`]) and as
//! schema-v1 JSON lines reusing the `netcut-obs` event envelope
//! ([`Report::to_json_lines`]), so lint output can flow into the same trace
//! files as the rest of the pipeline.
//!
//! # Example
//!
//! ```
//! use netcut_graph::zoo;
//! use netcut_verify::{analyze, validate};
//!
//! let net = zoo::mobilenet_v1(0.25);
//! assert!(validate(&net).is_ok());
//! let report = analyze(&net.cut_blocks(3).unwrap());
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detlint;
mod diagnostic;
pub mod mutate;
mod rules;
pub mod serve_plane;

pub use diagnostic::{Code, Diagnostic, GraphSpan, Report, Severity, Summary};
pub use rules::Analyzer;
pub use serve_plane::{analyze_serve, ServeArtifact};

use netcut_graph::Network;

/// Runs every structural rule over `net`.
pub fn analyze(net: &Network) -> Report {
    Analyzer::new().analyze(net)
}

/// Drop-in replacement for the retired `Network::validate()`: runs the
/// structural rules and returns the first Error-severity finding, if any.
/// Warnings and notes do not fail validation.
///
/// # Errors
///
/// Returns the first [`Diagnostic`] with [`Severity::Error`].
pub fn validate(net: &Network) -> Result<(), Diagnostic> {
    match analyze(net).into_first_error() {
        Some(diag) => Err(diag),
        None => Ok(()),
    }
}
