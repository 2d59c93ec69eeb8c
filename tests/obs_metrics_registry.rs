//! The registry-check lint the `netcut_obs::registry` module docs
//! promise: scan the workspace source for metric-call string literals and
//! fail when one names an unregistered series. A typo'd metric name would
//! otherwise create a fresh, forever-empty series instead of failing
//! anything — this test turns that silent hole into a red build. Adding a
//! metric means adding its `METRIC_NAMES` line in the same change.

use netcut_repro::obs::registry;
use std::path::{Path, PathBuf};

/// Call forms whose first string-literal argument is a metric name.
const CALLS: &[&str] = &[
    "counter_add(\"",
    "gauge_set(\"",
    "observe(\"",
    "histogram_merge(\"",
    "labeled(\"",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read workspace dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // Skip build output; everything else under crates/*/src is code.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `(file, line, name)` metric literal in the workspace sources.
fn metric_literals() -> Vec<(PathBuf, usize, String)> {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    rust_sources(&crates, &mut files);
    files.sort();
    assert!(
        files.len() > 20,
        "workspace scan found {} files",
        files.len()
    );

    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source file");
        for (lineno, line) in text.lines().enumerate() {
            for call in CALLS {
                for (pos, _) in line.match_indices(call) {
                    let lit = &line[pos + call.len()..];
                    let Some(end) = lit.find('"') else { continue };
                    found.push((file.clone(), lineno + 1, lit[..end].to_string()));
                }
            }
        }
    }
    found
}

#[test]
fn every_metric_literal_in_the_tree_is_registered() {
    let literals = metric_literals();
    assert!(
        literals.len() > 15,
        "source scan looks broken: only {} metric literals found",
        literals.len()
    );
    let unregistered: Vec<String> = literals
        .iter()
        .filter(|(_, _, name)| !registry::is_registered(name))
        .map(|(file, line, name)| format!("{}:{line}: `{name}`", file.display()))
        .collect();
    assert!(
        unregistered.is_empty(),
        "unregistered metric name(s) — add them to \
         crates/obs/src/registry.rs METRIC_NAMES (kept sorted):\n  {}",
        unregistered.join("\n  ")
    );
}

#[test]
fn the_hot_serve_metrics_are_actually_in_the_tree() {
    // Guards the scanner itself: if the call-site extraction regresses,
    // the serve runtime's known metrics would vanish from the scan and
    // the lint above would pass vacuously. The scan reads only the literal
    // on the call line, so the branch-chosen counters of Algorithm 1 and
    // the hand controller each keep one call per branch.
    let names: std::collections::HashSet<String> = metric_literals()
        .into_iter()
        .map(|(_, _, name)| name)
        .collect();
    for expected in [
        "serve.batch_size",
        "serve.latency_us",
        "serve.queue_delay_us",
        "serve.shard.busy",
        "netcut.proposals_accepted",
        "netcut.proposals_rejected",
        "hand.deadline_met",
        "hand.deadline_missed",
    ] {
        assert!(names.contains(expected), "scan lost `{expected}`");
    }
}

#[test]
fn the_hot_flush_literals_are_scanned_and_registered() {
    // The runtime's registry series are projected from the run ledger and
    // flushed once from `runtime.rs` (`RunLedger::flush_metrics`); pin
    // them file-by-file so a rename there can't silently drop them out of
    // both the scan and the registry.
    let runtime: std::collections::HashSet<String> = metric_literals()
        .into_iter()
        .filter(|(file, _, _)| file.ends_with("serve/src/runtime.rs"))
        .map(|(_, _, name)| name)
        .collect();
    for expected in [
        "serve.served",
        "serve.missed",
        "serve.rejected",
        "serve.dropped",
        "serve.degraded",
        "serve.batch_size",
        "serve.latency_us",
        "serve.queue_delay_us",
    ] {
        assert!(
            runtime.contains(expected),
            "runtime.rs lost flush literal `{expected}`"
        );
        assert!(
            registry::is_registered(expected),
            "`{expected}` missing from METRIC_NAMES"
        );
    }
}
