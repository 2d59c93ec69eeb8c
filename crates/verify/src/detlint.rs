//! Workspace determinism lint: a source-scanning pass over the virtual-time
//! crates (`crates/serve`, `crates/obs`, `crates/sim`) that fails on
//! forbidden nondeterminism.
//!
//! The serving stack's core contract is bit-identical summaries across
//! `--jobs` settings and seeds — which only holds while the hot path stays
//! on integer microseconds, ordered collections, and virtual time. This
//! lint extends the precedent of `tests/obs_metrics_registry.rs` (a textual
//! scan with a structural floor) to three nondeterminism classes:
//!
//! * **`wall-clock`** — `Instant::now` / `SystemTime`: wall time leaking
//!   into simulation state.
//! * **`unordered-collection`** — `HashMap` / `HashSet`: iteration order
//!   varies run to run, which poisons any summary or timeline built from
//!   it. The deterministic crates use `BTreeMap`/`BTreeSet`.
//! * **`float-us`** — a float type on the same line as a `_us` binding:
//!   float accumulation in integer-microsecond code rounds differently
//!   across optimization levels and accumulation orders.
//!
//! Audited exceptions live in an allowlist file at the workspace root
//! ([`ALLOWLIST_FILE`]), one `path pattern — justification` entry per line.
//! Entries are matched per (file, pattern) and must carry a justification;
//! a stale entry (matching nothing) fails the lint, so the list can only
//! shrink once an exception is gone.
//!
//! Trailing `#[cfg(test)]` modules are skipped: every file in the scanned
//! crates keeps its tests in one trailing module (the scan stops at the
//! first `#[cfg(test)]` line), and test-only nondeterminism cannot reach a
//! summary.

use netcut_obs as obs;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Crate source roots the lint walks, relative to the workspace root.
pub const SCANNED_ROOTS: &[&str] = &["crates/serve/src", "crates/obs/src", "crates/sim/src"];

/// Allowlist file name, resolved against the workspace root.
pub const ALLOWLIST_FILE: &str = "detlint_allow.txt";

/// The workspace root to scan: the nearest ancestor of the current
/// directory holding [`ALLOWLIST_FILE`], else the workspace this crate
/// was built in.
pub fn workspace_root() -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            cwd.ancestors()
                .find(|dir| dir.join(ALLOWLIST_FILE).is_file())
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// The nondeterminism classes the lint recognizes.
pub const PATTERNS: &[&str] = &["wall-clock", "unordered-collection", "float-us"];

/// One line that matched a forbidden pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which pattern matched (one of [`PATTERNS`]).
    pub pattern: &'static str,
    /// The offending line, trimmed.
    pub snippet: String,
}

/// One audited exception from the allowlist file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Path relative to the workspace root.
    pub file: String,
    /// The pattern this entry excuses.
    pub pattern: String,
    /// Why the exception is sound.
    pub justification: String,
}

/// The result of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Findings *not* covered by the allowlist — any entry here fails the
    /// lint.
    pub findings: Vec<Finding>,
    /// Findings excused by an allowlist entry.
    pub allowed: Vec<Finding>,
    /// Allowlist entries that matched nothing — stale entries also fail
    /// the lint.
    pub stale: Vec<AllowEntry>,
    /// Source files walked.
    pub files_scanned: usize,
}

impl ScanOutcome {
    /// `true` when the workspace is clean: no uncovered finding and no
    /// stale allowlist entry.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }

    /// Human rendering, one line per finding plus a verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "detlint: {}:{} [{}] {}",
                f.file, f.line, f.pattern, f.snippet
            );
        }
        for e in &self.stale {
            let _ = writeln!(
                out,
                "detlint: stale allowlist entry `{} {}` matches nothing",
                e.file, e.pattern
            );
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s), {} finding(s), {} allowed, {} stale",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len(),
            self.stale.len()
        );
        out
    }

    /// Schema-v1 JSON-lines rendering on the `netcut-obs` event envelope:
    /// one `verify.detlint` instant per uncovered finding or stale entry,
    /// then a `verify.detlint_summary` with the counts.
    pub fn to_json_lines(&self) -> String {
        let ts_us = obs::now_us();
        let mut out = String::new();
        let instant = |name: &str, fields: Vec<(&'static str, obs::FieldValue)>| obs::Event {
            ts_us,
            kind: obs::EventKind::Instant,
            name: name.to_owned(),
            span_id: 0,
            parent_id: 0,
            dur_us: 0,
            fields,
        };
        for f in &self.findings {
            let event = instant(
                "verify.detlint",
                vec![
                    ("file", obs::FieldValue::from(f.file.clone())),
                    ("line", obs::FieldValue::from(f.line)),
                    ("pattern", obs::FieldValue::from(f.pattern)),
                    ("snippet", obs::FieldValue::from(f.snippet.clone())),
                ],
            );
            out.push_str(&event.to_json());
            out.push('\n');
        }
        for e in &self.stale {
            let event = instant(
                "verify.detlint",
                vec![
                    ("file", obs::FieldValue::from(e.file.clone())),
                    ("pattern", obs::FieldValue::from(e.pattern.clone())),
                    ("stale", obs::FieldValue::from(true)),
                ],
            );
            out.push_str(&event.to_json());
            out.push('\n');
        }
        let summary = instant(
            "verify.detlint_summary",
            vec![
                ("files", obs::FieldValue::from(self.files_scanned)),
                ("findings", obs::FieldValue::from(self.findings.len())),
                ("allowed", obs::FieldValue::from(self.allowed.len())),
                ("stale", obs::FieldValue::from(self.stale.len())),
            ],
        );
        out.push_str(&summary.to_json());
        out.push('\n');
        out
    }
}

/// Classifies one source line, ignoring comment-only lines. Returns the
/// matching pattern name, if any.
fn classify(line: &str) -> Option<&'static str> {
    let code = line.trim_start();
    if code.starts_with("//") {
        return None;
    }
    if code.contains("Instant::now") || code.contains("SystemTime") {
        return Some("wall-clock");
    }
    if code.contains("HashMap") || code.contains("HashSet") {
        return Some("unordered-collection");
    }
    if code.contains("_us") && (code.contains("f64") || code.contains("f32")) {
        return Some("float-us");
    }
    None
}

/// Scans one file's text, stopping at the first `#[cfg(test)]` line (the
/// scanned crates keep tests in one trailing module).
pub fn scan_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(pattern) = classify(line) {
            findings.push(Finding {
                file: rel_path.to_owned(),
                line: i + 1,
                pattern,
                snippet: line.trim().to_owned(),
            });
        }
    }
    findings
}

/// Parses the allowlist text. Blank lines and `#` comments are skipped;
/// every entry needs a known pattern and a non-empty justification.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(file), Some(pattern)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "allowlist line {}: expected `path pattern — justification`",
                i + 1
            ));
        };
        if !PATTERNS.contains(&pattern) {
            return Err(format!(
                "allowlist line {}: unknown pattern `{pattern}` (expected one of {PATTERNS:?})",
                i + 1
            ));
        }
        let justification = parts.next().map(str::trim).unwrap_or_default();
        if justification.is_empty() {
            return Err(format!(
                "allowlist line {}: entry `{file} {pattern}` has no justification",
                i + 1
            ));
        }
        entries.push(AllowEntry {
            file: file.to_owned(),
            pattern: pattern.to_owned(),
            justification: justification.to_owned(),
        });
    }
    Ok(entries)
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// report order.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace: every source under [`SCANNED_ROOTS`], with
/// the allowlist at `root/`[`ALLOWLIST_FILE`] applied (a missing allowlist
/// file is an empty allowlist).
pub fn scan_workspace(root: &Path) -> Result<ScanOutcome, String> {
    let _span = obs::span("verify.detlint");
    let allow_path = root.join(ALLOWLIST_FILE);
    let entries = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };

    let mut outcome = ScanOutcome::default();
    let mut used = vec![false; entries.len()];
    for crate_root in SCANNED_ROOTS {
        let dir = root.join(crate_root);
        let mut files = Vec::new();
        rust_sources(&dir, &mut files)?;
        for path in files {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            outcome.files_scanned += 1;
            for finding in scan_source(&rel, &text) {
                let covered = entries
                    .iter()
                    .position(|e| e.file == finding.file && e.pattern == finding.pattern);
                match covered {
                    Some(i) => {
                        used[i] = true;
                        outcome.allowed.push(finding);
                    }
                    None => outcome.findings.push(finding),
                }
            }
        }
    }
    for (i, entry) in entries.iter().enumerate() {
        if !used[i] {
            outcome.stale.push(entry.clone());
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_each_pattern() {
        assert_eq!(classify("    let t = Instant::now();"), Some("wall-clock"));
        assert_eq!(
            classify("let m: HashMap<u64, u64> = HashMap::new();"),
            Some("unordered-collection")
        );
        assert_eq!(
            classify("let latency_us = x as f64 * 2.0;"),
            Some("float-us")
        );
        assert_eq!(classify("let t_us = 5u64;"), None);
        assert_eq!(classify("// HashMap in a comment is fine"), None);
    }

    #[test]
    fn scan_stops_at_the_test_module() {
        let text = "fn a() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(scan_source("x.rs", text).is_empty());
    }

    #[test]
    fn allowlist_requires_a_justification() {
        assert!(parse_allowlist("crates/obs/src/lib.rs wall-clock").is_err());
        assert!(parse_allowlist("crates/obs/src/lib.rs wall-clock — trace epoch").is_ok());
        assert!(parse_allowlist("a.rs no-such-pattern — reason").is_err());
        assert!(parse_allowlist("# comment\n\n").unwrap().is_empty());
    }
}
