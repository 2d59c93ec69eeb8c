//! The metric-name registry: every base name the workspace may report.
//!
//! Metrics are stringly keyed, which is flexible and quietly dangerous —
//! a typo'd name creates a fresh, forever-empty series instead of
//! failing. The
//! registry closes that hole: [`METRIC_NAMES`] enumerates every known
//! base name (label suffixes stripped, so `serve.shard.busy{shard=5}`
//! checks as `serve.shard.busy`), and the repo-level registry-check test
//! scans the source tree for metric-call literals and fails when one is
//! not listed here. Adding a metric therefore means adding its registry
//! line in the same change — the list doubles as the workspace's metric
//! inventory.
//!
//! Names under the `test.` and `phase.` prefixes are exempt: the former
//! are unit-test scratch series, the latter are bench wall-clock phases
//! named after the phase itself.

/// Every registered metric base name, sorted. Keep sorted when appending.
pub const METRIC_NAMES: &[&str] = &[
    "bench.test_counter",
    "estimate.predictions",
    "estimate.tables_built",
    "eval.cache_hit",
    "eval.cache_miss",
    "explore.candidates",
    "explore.train_s",
    "hand.deadline_met",
    "hand.deadline_missed",
    "netcut.proposals_accepted",
    "netcut.proposals_rejected",
    "netcut.residual_us",
    "netcut.steps",
    "recalib.scale_ppm",
    "recalib.swaps",
    "recalib.triggers",
    "serve.batch_size",
    "serve.degraded",
    "serve.dropped",
    "serve.latency_us",
    "serve.missed",
    "serve.queue_delay_us",
    "serve.queue_depth",
    "serve.rejected",
    "serve.served",
    "serve.shard.busy",
    "sim.measure.mean_us",
    "sim.measurements",
    "sim.profiles",
    "train.retrain_s",
    "train.retrains",
    "verify.diagnostic",
];

/// Prefixes exempt from registration (see the module docs).
pub const EXEMPT_PREFIXES: &[&str] = &["test.", "phase."];

/// Strips a `{label=value}` suffix: the base name the registry keys on.
pub fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// `true` when `name` (labels stripped) is registered or exempt.
pub fn is_registered(name: &str) -> bool {
    let base = base_name(name);
    METRIC_NAMES.binary_search(&base).is_ok() || EXEMPT_PREFIXES.iter().any(|p| base.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_is_sorted_and_deduplicated() {
        // binary_search in `is_registered` depends on this.
        for pair in METRIC_NAMES.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn labels_are_stripped_before_lookup() {
        assert_eq!(base_name("serve.shard.busy{shard=5}"), "serve.shard.busy");
        assert_eq!(base_name("serve.served"), "serve.served");
        assert!(is_registered("serve.shard.busy{shard=17}"));
        assert!(is_registered("serve.latency_us"));
    }

    #[test]
    fn unknown_names_are_rejected_and_exemptions_hold() {
        assert!(!is_registered("serve.typo_metric"));
        assert!(!is_registered("serve.shardX.busy{shard=1}"));
        assert!(is_registered("test.anything_at_all"));
        assert!(is_registered("phase.exhaustive_us"));
    }
}
