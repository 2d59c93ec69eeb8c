//! The gate harness for the committed bench documents.
//!
//! `bench_serve` and `bench_simcore --bless` write `results/BENCH_*`;
//! `bench_check` and `bench_simcore` re-run the same harness, write the
//! fresh document to `target/` and compare it with the committed one;
//! `suite_report` renders the committed ones. This module is the one place
//! that knows where those documents live, how they are laid out and read,
//! and how far a fresh run may differ from them:
//!
//! * the deterministic `configs` section must match exactly, compared as
//!   parsed JSON so formatting can neither mask nor fake a drift;
//! * every number in the budget table (`budgets()`) may move the worse
//!   way by at most its tolerance;
//! * the timeline's non-alert lines must match exactly, compared per line
//!   as parsed JSON, and each alert code's count may move by at most
//!   [`serve_matrix::ALERT_COUNT_TOLERANCE`].

use crate::{serve_matrix, simcore};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The serve matrix's summaries, one leg per line.
pub const SERVE: &str = "BENCH_serve.json";
/// The [`serve_matrix::TIMELINE_LEG`]'s windowed timeline, JSON lines.
pub const TIMELINE: &str = "BENCH_timeline.jsonl";
/// The event loop's requests-per-second baseline.
pub const SIMCORE: &str = "BENCH_simcore.json";

/// The command that regenerates a committed document.
fn regenerate(file: &str) -> &'static str {
    if file == SIMCORE {
        "cargo run --release -p netcut-bench --bin bench_simcore -- --bless"
    } else {
        "cargo run --release -p netcut-bench --bin bench_serve"
    }
}

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

/// Renders a bench document: `scenario` and `git`, then one object per
/// section with one `"leg": value` line per key, in `keys` order.
pub(crate) fn render(scenario: &str, git: &str, keys: &[&str], sections: &[Section]) -> String {
    let mut doc = format!("{{\n  \"scenario\": \"{scenario}\",\n  \"git\": \"{git}\"");
    for (name, values) in sections {
        let leg = |(key, value): (&&str, &String)| format!("    \"{key}\": {value}");
        let legs: Vec<String> = keys.iter().zip(values).map(leg).collect();
        doc += &format!(",\n  \"{name}\": {{\n{}\n  }}", legs.join(",\n"));
    }
    doc + "\n}\n"
}

/// Which way a gated number regresses: a higher or a lower fresh value.
#[derive(Clone, Copy, Debug)]
enum Worse {
    Higher,
    Lower,
}

/// How far a fresh value may move the worse way: a fixed amount in the
/// field's own unit, or parts per million of the committed value.
#[derive(Clone, Copy, Debug)]
enum Tolerance {
    Units(u64),
    Ppm(u64),
}

/// One row of the budget table: the rule's name in verdicts, the number's
/// place in a committed document (file, section, leg, and the leg's field
/// or `None` when the leg's value is the number), which way it regresses,
/// and how far a fresh run may move it that way.
struct Budget {
    rule: &'static str,
    document: &'static str,
    section: &'static str,
    leg: &'static str,
    field: Option<&'static str>,
    worse: Worse,
    tolerance: Tolerance,
}

/// The budget table: every committed-vs-fresh number the gates compare,
/// built from the serve matrix's and simcore's budget constants.
fn budgets() -> Vec<Budget> {
    use serve_matrix::{ACC_GOODPUT_REGRESSION_PPM as ACC, MISS_REGRESSION_PPM as MISS};
    use Tolerance::{Ppm, Units};
    use Worse::{Higher, Lower};
    #[rustfmt::skip]
    let serve = [
        ("miss-rate",                 "batch_shard", "miss_rate_ppm",    Higher, Units(MISS)),
        ("accuracy-weighted-goodput", "batch_shard", "acc_goodput_mrps", Lower,  Ppm(ACC)),
        ("recalibration",             "drift",       "acc_goodput_mrps", Lower,  Ppm(ACC)),
    ];
    let serve = serve
        .into_iter()
        .map(|(rule, leg, field, worse, tolerance)| Budget {
            rule,
            document: SERVE,
            section: "configs",
            leg,
            field: Some(field),
            worse,
            tolerance,
        });
    let rps = simcore::configs().into_iter().map(|(leg, _)| Budget {
        rule: "throughput",
        document: SIMCORE,
        section: "rps",
        leg,
        field: None,
        worse: Lower,
        tolerance: Ppm(simcore::RPS_REGRESSION_PPM),
    });
    serve.chain(rps).collect()
}

impl Budget {
    /// The number's keys in its document: section, leg, then any field.
    fn keys(&self) -> Vec<&'static str> {
        [self.section, self.leg]
            .into_iter()
            .chain(self.field)
            .collect()
    }

    /// The furthest a fresh value may go the worse way from `committed`.
    fn limit(&self, committed: u64) -> u64 {
        let slack = match self.tolerance {
            Tolerance::Units(units) => units,
            Tolerance::Ppm(ppm) => {
                let slack = u128::from(committed) * u128::from(ppm) / 1_000_000;
                u64::try_from(slack).unwrap_or(u64::MAX)
            }
        };
        match self.worse {
            Worse::Higher => committed.saturating_add(slack),
            Worse::Lower => committed.saturating_sub(slack),
        }
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
        let tolerance = match self.tolerance {
            Tolerance::Units(units) => units.to_string(),
            Tolerance::Ppm(ppm) => format!("{ppm} ppm of committed"),
        };
        match self.worse {
            Worse::Higher if now <= limit => Ok(format!("{rule} OK — {verdict} (limit {limit})")),
            Worse::Lower if now >= limit => Ok(format!("{rule} OK — {verdict} (limit {limit})")),
            _ => Err(format!(
                "{rule} regression: {verdict} (limit {limit}, tolerance {tolerance})"
            )),
        }
    }
}

/// A timeline's canonically reserialized non-alert lines, in order, and
/// its alert count per code.
type TimelineParts = (Vec<String>, BTreeMap<String, u64>);

/// Splits a timeline JSON-lines document into its parts. `Err` names the
/// first malformed line.
fn split_timeline(text: &str) -> Result<TimelineParts, String> {
    let (mut lines, mut alerts) = (Vec::new(), BTreeMap::new());
    for (i, line) in text.lines().enumerate() {
        let bad = |what: String| format!("line {}: {what}", i + 1);
        let doc: Value =
            serde_json::from_str(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let text_of = |key| doc.get(key).and_then(Value::as_str);
        match text_of("kind") {
            None => return Err(bad("missing `kind`".into())),
            Some("alert") => {
                let code = text_of("code").ok_or_else(|| bad("alert missing `code`".into()))?;
                *alerts.entry(code.to_string()).or_insert(0) += 1;
            }
            Some(_) => lines.push(serde_json::to_string(&doc).expect("reserialize parsed JSON")),
        }
    }
    Ok((lines, alerts))
}

/// The timeline rule: compares a fresh timeline with the committed one
/// and returns every failure (empty = pass).
fn timeline_failures(committed: &str, fresh: &str) -> Vec<String> {
    let ((was, was_alerts), (now, now_alerts)) =
        match (split_timeline(committed), split_timeline(fresh)) {
            (Ok(was), Ok(now)) => (was, now),
            (Err(e), _) => return vec![format!("committed {TIMELINE}: {e}")],
            (_, Err(e)) => return vec![format!("fresh {TIMELINE}: {e}")],
        };
    let mut failures = Vec::new();
    let (lines_was, lines_now) = (was.len(), now.len());
    if lines_was != lines_now {
        failures.push(format!(
            "timeline drift: {lines_was} non-alert lines committed vs {lines_now} fresh"
        ));
    } else if let Some(i) = (0..lines_now).find(|&i| was[i] != now[i]) {
        let (line, was, now) = (i + 1, &was[i], &now[i]);
        failures.push(format!(
            "timeline drift at non-alert line {line}: committed {was} vs fresh {now}"
        ));
    }
    let tolerance = serve_matrix::ALERT_COUNT_TOLERANCE;
    let codes: BTreeSet<&String> = was_alerts.keys().chain(now_alerts.keys()).collect();
    for code in codes {
        let count = |alerts: &BTreeMap<String, u64>| alerts.get(code).copied().unwrap_or(0);
        let (was, now) = (count(&was_alerts), count(&now_alerts));
        if was.abs_diff(now) > tolerance {
            failures.push(format!(
                "timeline alert drift: {code} fired {now}x fresh vs {was}x committed \
                 (tolerance +/-{tolerance})"
            ));
        }
    }
    failures
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

    /// Reads the committed `file` with `read`, or records why it cannot.
    fn committed<T>(&mut self, file: &str, read: fn(&Path) -> Result<T, String>) -> Option<T> {
        let path = results_path(file);
        read(&path)
            .map_err(|e| {
                let (path, regenerate) = (path.display(), regenerate(file));
                let failure = format!(
                    "cannot load committed {path}: {e} (run `{regenerate}` and commit the result)"
                );
                self.failures.push(failure);
            })
            .ok()
    }

    /// Loads the committed `file` and checks the `fresh` text against it:
    /// `configs`, then every budget row of the document.
    ///
    /// # Panics
    ///
    /// Panics if `fresh` is not JSON: the harness rendered it.
    pub fn compare(&mut self, file: &str, fresh: &str) {
        let fresh: Value = serde_json::from_str(fresh).expect("a fresh document is valid JSON");
        if let Some(committed) = self.committed(file, load) {
            self.check(file, &committed, &fresh);
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
                 document (run `{}`)",
                regenerate(file)
            ));
        }
        for row in budgets().iter().filter(|row| row.document == file) {
            match row.verdict(committed, fresh) {
                Ok(verdict) => self.pass(&verdict),
                Err(failure) => self.failures.push(failure),
            }
        }
    }

    /// Loads the committed timeline and applies the timeline rule to
    /// `fresh`.
    pub fn compare_timeline(&mut self, fresh: &str) {
        let read = |path: &Path| std::fs::read_to_string(path).map_err(|e| e.to_string());
        let Some(committed) = self.committed(TIMELINE, read) else {
            return;
        };
        let failures = timeline_failures(&committed, fresh);
        if failures.is_empty() {
            let leg = serve_matrix::TIMELINE_LEG;
            self.pass(&format!(
                "timeline OK — {leg} leg matches the committed file"
            ));
        }
        self.failures.extend(failures);
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
        let entry = match row.field {
            Some(field) => format!("{{\"{field}\": {value}}}"),
            None => value.to_string(),
        };
        let text = render("test", "test", &[row.leg], &[(row.section, vec![entry])]);
        serde_json::from_str(&text).expect("render writes JSON")
    }

    fn row(document: &str, leg: &str, field: Option<&str>) -> Budget {
        budgets()
            .into_iter()
            .find(|r| r.document == document && r.leg == leg && r.field == field)
            .expect("the table has the row")
    }

    #[test]
    fn every_row_passes_at_its_limit_and_fails_one_past() {
        let rows = budgets();
        assert_eq!(rows.len(), 3 + simcore::configs().len());
        for row in rows {
            let was = 1_234_567;
            let limit = row.limit(was);
            let past = match row.worse {
                Worse::Higher => limit + 1,
                Worse::Lower => limit - 1,
            };
            let committed = doc_for(&row, was);
            assert!(
                row.verdict(&committed, &doc_for(&row, limit)).is_ok(),
                "{} must pass at its limit",
                row.keys().join(".")
            );
            let failure = row
                .verdict(&committed, &doc_for(&row, past))
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
    fn the_serve_rows_hold_their_budgets_at_the_boundary() {
        let miss = row(SERVE, "batch_shard", Some("miss_rate_ppm"));
        let committed = doc_for(&miss, 74_153);
        assert!(miss.verdict(&committed, &doc_for(&miss, 84_153)).is_ok());
        assert!(miss.verdict(&committed, &doc_for(&miss, 84_154)).is_err());
        for leg in ["batch_shard", "drift"] {
            let acc = row(SERVE, leg, Some("acc_goodput_mrps"));
            // 1 % of 1,035,358 is 10,353.58; the floor rounds the slack down.
            assert_eq!(acc.limit(1_035_358), 1_025_005);
            let committed = doc_for(&acc, 1_035_358);
            assert!(acc.verdict(&committed, &doc_for(&acc, 1_025_005)).is_ok());
            assert!(acc.verdict(&committed, &doc_for(&acc, 1_025_004)).is_err());
        }
    }

    #[test]
    fn every_rps_row_holds_its_ten_percent_floor() {
        for (leg, _) in simcore::configs() {
            let rps = row(SIMCORE, leg, None);
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
    fn a_missing_leg_or_field_is_a_named_failure() {
        let miss = row(SERVE, "batch_shard", Some("miss_rate_ppm"));
        let present = doc_for(&miss, 74_153);
        let other_leg = doc_for(&row(SERVE, "drift", Some("acc_goodput_mrps")), 1);
        let failure = miss.verdict(&other_leg, &present).expect_err("no leg");
        assert_eq!(
            failure,
            "miss-rate check: the committed BENCH_serve.json has no integer \
             configs.batch_shard.miss_rate_ppm"
        );
        let other_field = doc_for(&row(SERVE, "batch_shard", Some("acc_goodput_mrps")), 1);
        let failure = miss.verdict(&present, &other_field).expect_err("no field");
        assert!(failure.contains("the fresh BENCH_serve.json"), "{failure}");

        // Documents with no sections at all: every check fails by name.
        let empty: Value = serde_json::from_str("{}").expect("json");
        for doc in [SERVE, SIMCORE] {
            let mut gate = Gate::new("test");
            gate.check(doc, &empty, &empty);
            let rows = budgets().iter().filter(|r| r.document == doc).count();
            assert_eq!(gate.failures.len(), 1 + rows, "{:?}", gate.failures);
            assert!(
                gate.failures[0].contains("has no `configs`"),
                "{:?}",
                gate.failures
            );
            assert!(gate.failures[1..].iter().all(|f| f.contains(" check: ")));
        }
    }

    const HEADER: &str = r#"{"v":1,"kind":"header","windows":2}"#;
    const WINDOW: &str = r#"{"v":1,"kind":"window","w":0,"served":9}"#;
    const ALERT: &str = r#"{"v":1,"kind":"alert","code":"OBS001","w":0}"#;

    fn timeline(lines: &[&str]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn the_timeline_rule_names_the_first_malformed_line() {
        let good = timeline(&[HEADER, WINDOW]);
        let failures = timeline_failures(&good, &timeline(&[HEADER, "{oops", "also bad"]));
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("fresh BENCH_timeline.jsonl: line 2: invalid JSON"),
            "{failures:?}"
        );
        let failures = timeline_failures(&timeline(&[HEADER, r#"{"v":1}"#]), &good);
        assert_eq!(
            failures,
            ["committed BENCH_timeline.jsonl: line 2: missing `kind`"]
        );
        let failures = timeline_failures(&good, &timeline(&[r#"{"kind":"alert"}"#]));
        assert_eq!(
            failures,
            ["fresh BENCH_timeline.jsonl: line 1: alert missing `code`"]
        );
    }

    #[test]
    fn the_timeline_rule_pins_non_alert_lines() {
        let committed = timeline(&[HEADER, WINDOW, ALERT]);
        // Key order and spacing are canonicalized away.
        let reordered = timeline(&[
            HEADER,
            r#"{"served": 9, "w": 0, "kind": "window", "v": 1}"#,
            ALERT,
        ]);
        assert!(timeline_failures(&committed, &reordered).is_empty());
        let changed = timeline(&[HEADER, &WINDOW.replace("9", "8"), ALERT]);
        let failures = timeline_failures(&committed, &changed);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("timeline drift at non-alert line 2"),
            "{failures:?}"
        );
        let failures = timeline_failures(&committed, &timeline(&[HEADER, ALERT]));
        assert_eq!(
            failures,
            ["timeline drift: 2 non-alert lines committed vs 1 fresh"]
        );
    }

    #[test]
    fn alert_counts_may_move_by_two_per_code_but_not_three() {
        let committed = timeline(&[HEADER, WINDOW, ALERT]);
        let with = |extra: usize, code: &str| {
            let alert = ALERT.replace("OBS001", code);
            let mut lines = vec![HEADER, WINDOW, ALERT];
            lines.extend(std::iter::repeat_n(alert.as_str(), extra));
            timeline(&lines)
        };
        assert!(timeline_failures(&committed, &with(2, "OBS001")).is_empty());
        assert!(timeline_failures(&committed, &with(2, "OBS002")).is_empty());
        assert_eq!(
            timeline_failures(&committed, &with(3, "OBS001")),
            ["timeline alert drift: OBS001 fired 4x fresh vs 1x committed (tolerance +/-2)"]
        );
        assert_eq!(
            timeline_failures(&committed, &with(3, "OBS004")),
            ["timeline alert drift: OBS004 fired 3x fresh vs 0x committed (tolerance +/-2)"]
        );
        // Fewer alerts count the same way.
        assert_eq!(
            timeline_failures(&with(3, "OBS001"), &committed),
            ["timeline alert drift: OBS001 fired 1x fresh vs 4x committed (tolerance +/-2)"]
        );
    }

    #[test]
    fn render_writes_one_leg_per_line() {
        let text = render(
            "s",
            "g",
            &["a", "b"],
            &[
                ("configs", vec!["{\"n\":1}".into(), "{\"n\":2}".into()]),
                ("wall_ms", vec!["1.5".into(), "2.0".into()]),
            ],
        );
        assert_eq!(
            text,
            "{\n  \"scenario\": \"s\",\n  \"git\": \"g\",\n  \"configs\": {\n    \
             \"a\": {\"n\":1},\n    \"b\": {\"n\":2}\n  },\n  \"wall_ms\": {\n    \
             \"a\": 1.5,\n    \"b\": 2.0\n  }\n}\n"
        );
    }
}
