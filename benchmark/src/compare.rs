//! `benchmark --compare A B`: the reported values and quartiles of two
//! sets of results side by side, with every pair beyond its bound flagged.

use crate::metrics::{self, Gate};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The reported value, first and third quartile of one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

type Table = BTreeMap<(String, String), Reported>;

/// Reads one results document, or every `*.json` in a directory of them.
fn load(path: &Path) -> Result<Table, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut table = Table::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        parse_into(&text, &mut table).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(table)
}

fn parse_into(text: &str, table: &mut Table) -> Result<(), String> {
    let doc: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let workload = doc
        .get("workload")
        .and_then(serde_json::Value::as_str)
        .ok_or("no `workload`")?;
    let metrics = doc
        .get("metrics")
        .and_then(serde_json::Value::as_object)
        .ok_or("no `metrics`")?;
    for (name, m) in metrics {
        let num = |key: &str| {
            m.get(key)
                .and_then(serde_json::Value::as_f64)
                .ok_or(format!("{name}: no `{key}`"))
        };
        let q = Reported {
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
        };
        table.insert((workload.to_owned(), name.clone()), q);
    }
    Ok(())
}

/// The verdict on one pair: `None` when nothing is flagged.
pub fn verdict(name: &str, a: &Reported, b: &Reported) -> Option<&'static str> {
    let metric = metrics::find(name)?;
    match metric.gate {
        Gate::Bound(bound) => {
            stats::exceeds(a.value, b.value, metric.better, bound).then_some("REGRESSED")
        }
        Gate::Exact => (a.value != b.value).then_some("CHANGED"),
        Gate::None => None,
    }
}

fn order(key: &(String, String)) -> (usize, usize) {
    let workload = crate::workloads::Workload::ALL
        .iter()
        .position(|w| w.name() == key.0)
        .unwrap_or(usize::MAX);
    let metric = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .position(|m| m.name == key.1)
        .unwrap_or(usize::MAX);
    (workload, metric)
}

/// Prints the comparison; fails when any pair is flagged or nothing
/// matches.
pub fn run(a: &str, b: &str) -> ExitCode {
    let (ta, tb) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut keys: Vec<&(String, String)> = ta.keys().filter(|k| tb.contains_key(*k)).collect();
    keys.sort_by_key(|k| order(k));
    if keys.is_empty() {
        eprintln!("benchmark: {a} and {b} share no (workload, metric)");
        return ExitCode::from(2);
    }
    println!(
        "{:<11} {:<27} {:>32} {:>32} {:>8}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "change"
    );
    let fmt = |q: &Reported| format!("{:.6} [{:.6}, {:.6}]", q.value, q.q1, q.q3);
    let mut flagged = 0;
    for key in keys {
        let (qa, qb) = (&ta[key], &tb[key]);
        let change = if qa.value == 0.0 {
            "-".to_owned()
        } else {
            format!("{:+.2}%", (qb.value - qa.value) / qa.value.abs() * 100.0)
        };
        let v = verdict(&key.1, qa, qb);
        flagged += usize::from(v.is_some());
        println!(
            "{:<11} {:<27} {:>32} {:>32} {:>8}  {}",
            key.0,
            key.1,
            fmt(qa),
            fmt(qb),
            change,
            v.unwrap_or("ok")
        );
    }
    if flagged == 0 {
        println!("benchmark: every pair within its bound");
        ExitCode::SUCCESS
    } else {
        println!("benchmark: {flagged} pair(s) beyond their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(value: f64) -> Reported {
        Reported {
            value,
            q1: value,
            q3: value,
        }
    }

    #[test]
    fn verdicts_follow_the_metric_tables() {
        assert_eq!(verdict("e2e_s", &q(1.0), &q(1.2)), None);
        assert_eq!(verdict("e2e_s", &q(1.0), &q(1.3)), Some("REGRESSED"));
        assert_eq!(verdict("e2e_s", &q(1.0), &q(0.5)), None);
        assert_eq!(
            verdict("runtime.requests", &q(10.0), &q(11.0)),
            Some("CHANGED")
        );
        assert_eq!(verdict("stage.run_s", &q(1.0), &q(9.0)), None);
        assert_eq!(verdict("unknown", &q(1.0), &q(9.0)), None);
    }

    #[test]
    fn results_documents_parse() {
        let mut t = Table::new();
        let doc = r#"{"workload": "matrix", "metrics": {"e2e_s": {"unit": "s", "value": 0.03, "median": 0.05, "q1": 0.04, "q3": 0.06, "tail": null, "samples": [0.03, 0.05, 0.07]}}}"#;
        parse_into(doc, &mut t).expect("parses");
        let got = t[&("matrix".to_owned(), "e2e_s".to_owned())];
        assert_eq!(
            got,
            Reported {
                value: 0.03,
                q1: 0.04,
                q3: 0.06
            }
        );
    }
}
