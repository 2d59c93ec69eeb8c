//! The gate harness for the committed bench documents.
//!
//! `suite_report` writes every `results/` document but one, and CI pins
//! those byte for byte. The one it leaves out is the event loop's
//! wall-clock throughput baseline: `bench_simcore --bless` writes
//! `BENCH_simcore.json`, and `bench_simcore` re-runs the same harness,
//! writes the fresh document to `target/` and compares it with the
//! committed one. This module is the one place that knows where those
//! documents live and how they are laid out and read, and how far a fresh
//! throughput run may differ from its baseline:
//!
//! * the deterministic `configs` section must match exactly, compared as
//!   parsed JSON so formatting can neither mask nor fake a drift;
//! * every number in the budget table (`budgets()`) may fall by at most
//!   its tolerance.

use crate::simcore;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The serve matrix's summaries, one leg per line.
pub const SERVE: &str = "BENCH_serve.json";
/// The [`crate::serve_matrix::TIMELINE_LEG`]'s windowed timeline, JSON
/// lines.
pub const TIMELINE: &str = "BENCH_timeline.jsonl";
/// The event loop's requests-per-second baseline.
pub const SIMCORE: &str = "BENCH_simcore.json";

/// The command that regenerates the gated document.
const REGENERATE: &str = "cargo run --release -p netcut-bench --bin bench_simcore -- --bless";

/// `<dir>/<file>` in the workspace this crate was built in.
fn workspace_path(dir: &str, file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{dir}/{file}"))
}

/// `results/<file>`: where the committed documents live.
pub fn results_path(file: &str) -> PathBuf {
    workspace_path("results", file)
}

/// Writes `text` to `path`, creating its directory.
///
/// # Panics
///
/// Panics if the file cannot be written: losing a result is fatal.
pub fn write(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads and parses one JSON document.
pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// The value at `keys` in a document: a section, a leg, then any field.
pub fn field<'a>(doc: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(doc, |value, key| value.get(key))
}

/// A document section: its name and its values' JSON text, one per leg.
pub(crate) type Section<'a> = (&'a str, Vec<String>);

/// Renders a bench document: `scenario` and, when given, `git`, then one
/// object per section with one `"leg": value` line per key, in `keys`
/// order.
pub(crate) fn render(
    scenario: &str,
    git: Option<&str>,
    keys: &[&str],
    sections: &[Section],
) -> String {
    let mut doc = format!("{{\n  \"scenario\": \"{scenario}\"");
    if let Some(git) = git {
        doc += &format!(",\n  \"git\": \"{git}\"");
    }
    for (name, values) in sections {
        let leg = |(key, value): (&&str, &String)| format!("    \"{key}\": {value}");
        let legs: Vec<String> = keys.iter().zip(values).map(leg).collect();
        doc += &format!(",\n  \"{name}\": {{\n{}\n  }}", legs.join(",\n"));
    }
    doc + "\n}\n"
}

/// One row of the budget table: the rule's name in verdicts, the number's
/// place in a committed document (file, section and leg), and how far
/// below the committed value a fresh run may take it, in parts per million
/// of the committed value.
struct Budget {
    rule: &'static str,
    document: &'static str,
    section: &'static str,
    leg: &'static str,
    tolerance_ppm: u64,
}

/// The budget table: every committed-vs-fresh number the gate compares,
/// one `rps` row per simcore leg.
fn budgets() -> Vec<Budget> {
    simcore::configs()
        .into_iter()
        .map(|(leg, _)| Budget {
            rule: "throughput",
            document: SIMCORE,
            section: "rps",
            leg,
            tolerance_ppm: simcore::RPS_REGRESSION_PPM,
        })
        .collect()
}

impl Budget {
    /// The number's keys in its document: section, then leg.
    fn keys(&self) -> [&'static str; 2] {
        [self.section, self.leg]
    }

    /// The lowest a fresh value may go from `committed`.
    fn limit(&self, committed: u64) -> u64 {
        let slack = u128::from(committed) * u128::from(self.tolerance_ppm) / 1_000_000;
        committed.saturating_sub(u64::try_from(slack).unwrap_or(u64::MAX))
    }

    /// The row's verdict on a committed and a fresh document: `Ok` with
    /// the pass line, `Err` with the failure.
    fn verdict(&self, committed: &Value, fresh: &Value) -> Result<String, String> {
        let (rule, keys, file) = (self.rule, self.keys(), self.document);
        let path = keys.join(".");
        let read = |doc: &Value, side: &str| {
            let missing = || format!("{rule} check: the {side} {file} has no integer {path}");
            field(doc, &keys)
                .and_then(Value::as_u64)
                .ok_or_else(missing)
        };
        let (was, now) = (read(committed, "committed")?, read(fresh, "fresh")?);
        let limit = self.limit(was);
        let verdict = format!("{path} {now} vs committed {was}");
        if now >= limit {
            return Ok(format!("{rule} OK — {verdict} (limit {limit})"));
        }
        Err(format!(
            "{rule} regression: {verdict} (limit {limit}, tolerance {} ppm of committed)",
            self.tolerance_ppm
        ))
    }
}

/// One gate run: prints each verdict under the gate's name and collects
/// the failures that decide its exit code.
pub struct Gate {
    name: &'static str,
    failures: Vec<String>,
}

impl Gate {
    /// A gate reporting as `name`.
    pub fn new(name: &'static str) -> Self {
        let failures = Vec::new();
        Gate { name, failures }
    }

    fn pass(&self, verdict: &str) {
        println!("{}: {verdict}", self.name);
    }

    /// Writes a fresh document to `target/`, where CI uploads it whether
    /// or not the gate passes.
    pub fn write_fresh(&self, file: &str, text: &str) {
        let path = workspace_path("target", file);
        write(&path, text);
        self.pass(&format!("fresh run written to {}", path.display()));
    }

    /// Records the fresh run's acceptance-invariant violations.
    pub fn invariants(&mut self, violations: Vec<String>) {
        if violations.is_empty() {
            self.pass("acceptance invariants OK");
        }
        self.failures.extend(violations);
    }

    /// Loads the committed `file` and checks the `fresh` text against it:
    /// `configs`, then every budget row of the document.
    ///
    /// # Panics
    ///
    /// Panics if `fresh` is not JSON: the harness rendered it.
    pub fn compare(&mut self, file: &str, fresh: &str) {
        let fresh: Value = serde_json::from_str(fresh).expect("a fresh document is valid JSON");
        let path = results_path(file);
        match load(&path) {
            Ok(committed) => self.check(file, &committed, &fresh),
            Err(e) => self.failures.push(format!(
                "cannot load committed {}: {e} (run `{REGENERATE}` and commit the result)",
                path.display()
            )),
        }
    }

    fn check(&mut self, file: &str, committed: &Value, fresh: &Value) {
        let (was, now) = (committed.get("configs"), fresh.get("configs"));
        if was.is_none() || now.is_none() {
            let side = if was.is_none() { "committed" } else { "fresh" };
            let failure = format!("determinism drift: the {side} {file} has no `configs` object");
            self.failures.push(failure);
        } else if was == now {
            self.pass(&format!(
                "determinism OK — `configs` matches the committed {file}"
            ));
        } else {
            self.failures.push(format!(
                "determinism drift: `configs` differs from the committed {file} — either a \
                 nondeterminism bug, or a behaviour change that must ship with a regenerated \
                 document (run `{REGENERATE}`)"
            ));
        }
        for row in budgets().iter().filter(|row| row.document == file) {
            match row.verdict(committed, fresh) {
                Ok(verdict) => self.pass(&verdict),
                Err(failure) => self.failures.push(failure),
            }
        }
    }

    /// Prints every failure and turns the run into its exit code.
    pub fn finish(self) -> ExitCode {
        if self.failures.is_empty() {
            self.pass("PASS");
            return ExitCode::SUCCESS;
        }
        for failure in &self.failures {
            eprintln!("{}: FAIL — {failure}", self.name);
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-leg document holding `value` where `row` reads it, laid out
    /// by the same writer as the committed documents.
    fn doc_for(row: &Budget, value: u64) -> Value {
        let sections = [(row.section, vec![value.to_string()])];
        let text = render("test", Some("test"), &[row.leg], &sections);
        serde_json::from_str(&text).expect("render writes JSON")
    }

    fn row(leg: &str) -> Budget {
        budgets()
            .into_iter()
            .find(|r| r.leg == leg)
            .expect("the table has the row")
    }

    #[test]
    fn every_row_passes_at_its_limit_and_fails_one_past() {
        let rows = budgets();
        assert_eq!(rows.len(), simcore::configs().len());
        for row in rows {
            let was = 1_234_567;
            let limit = row.limit(was);
            let committed = doc_for(&row, was);
            assert!(
                row.verdict(&committed, &doc_for(&row, limit)).is_ok(),
                "{} must pass at its limit",
                row.keys().join(".")
            );
            let failure = row
                .verdict(&committed, &doc_for(&row, limit - 1))
                .expect_err("one past the limit fails");
            assert!(
                failure.starts_with(&format!(
                    "{} regression: {}",
                    row.rule,
                    row.keys().join(".")
                )),
                "{failure}"
            );
        }
    }

    #[test]
    fn every_rps_row_holds_its_ten_percent_floor() {
        for (leg, _) in simcore::configs() {
            let rps = row(leg);
            assert_eq!(rps.limit(1_567_241), 1_410_517);
            let committed = doc_for(&rps, 1_567_241);
            assert!(rps.verdict(&committed, &doc_for(&rps, 1_410_517)).is_ok());
            let failure = rps
                .verdict(&committed, &doc_for(&rps, 1_410_516))
                .expect_err("below the floor");
            assert!(failure.contains(&format!("rps.{leg} 1410516")), "{failure}");
        }
    }

    #[test]
    fn every_row_reads_an_integer_in_the_committed_documents() {
        for row in budgets() {
            let doc = load(&results_path(row.document)).expect("committed document loads");
            assert!(
                row.verdict(&doc, &doc).is_ok(),
                "{}: {:?}",
                row.keys().join("."),
                row.verdict(&doc, &doc)
            );
        }
    }

    #[test]
    fn a_configs_drift_fails_and_a_match_passes() {
        let committed: Value =
            serde_json::from_str(r#"{"configs": {"baseline": {"total": 9831}}}"#).expect("json");
        let mut gate = Gate::new("test");
        gate.check(SIMCORE, &committed, &committed.clone());
        assert!(!gate.failures.iter().any(|f| f.contains("determinism")));

        let drifted: Value =
            serde_json::from_str(r#"{"configs": {"baseline": {"total": 9832}}}"#).expect("json");
        let mut gate = Gate::new("test");
        gate.check(SIMCORE, &committed, &drifted);
        assert!(
            gate.failures
                .iter()
                .any(|f| f.starts_with("determinism drift: `configs` differs")),
            "{:?}",
            gate.failures
        );
    }

    #[test]
    fn a_missing_leg_is_a_named_failure() {
        let rps = row("baseline");
        let present = doc_for(&rps, 1_567_241);
        let other_leg = doc_for(&row("drift"), 1);
        let failure = rps.verdict(&other_leg, &present).expect_err("no leg");
        assert_eq!(
            failure,
            "throughput check: the committed BENCH_simcore.json has no integer rps.baseline"
        );
        let failure = rps.verdict(&present, &other_leg).expect_err("no leg");
        assert!(
            failure.contains("the fresh BENCH_simcore.json"),
            "{failure}"
        );

        // A document with no sections at all: every check fails by name.
        let empty: Value = serde_json::from_str("{}").expect("json");
        let mut gate = Gate::new("test");
        gate.check(SIMCORE, &empty, &empty);
        assert_eq!(
            gate.failures.len(),
            1 + budgets().len(),
            "{:?}",
            gate.failures
        );
        assert!(
            gate.failures[0].contains("has no `configs`"),
            "{:?}",
            gate.failures
        );
        assert!(gate.failures[1..].iter().all(|f| f.contains(" check: ")));
    }

    #[test]
    fn render_writes_one_leg_per_line() {
        let configs = ("configs", vec!["{\"n\":1}".into(), "{\"n\":2}".into()]);
        let wall_ms = ("wall_ms", vec!["1.5".into(), "2.0".into()]);
        let text = render("s", Some("g"), &["a", "b"], &[configs.clone(), wall_ms]);
        assert_eq!(
            text,
            "{\n  \"scenario\": \"s\",\n  \"git\": \"g\",\n  \"configs\": {\n    \
             \"a\": {\"n\":1},\n    \"b\": {\"n\":2}\n  },\n  \"wall_ms\": {\n    \
             \"a\": 1.5,\n    \"b\": 2.0\n  }\n}\n"
        );
        // Without `git`, the scenario line leads straight into the sections.
        let text = render("s", None, &["a", "b"], &[configs]);
        assert_eq!(
            text,
            "{\n  \"scenario\": \"s\",\n  \"configs\": {\n    \
             \"a\": {\"n\":1},\n    \"b\": {\"n\":2}\n  }\n}\n"
        );
    }
}
