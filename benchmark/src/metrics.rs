//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a test keeps them equal.

use crate::stats::Better::{self, Higher, Lower};

/// How `--compare` judges a change in a metric's reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// A regression when worse by more than this share of the old value.
    Bound(f64),
    /// A work count computed from the outputs: any change is flagged.
    Exact,
    /// Reported, never flagged.
    None,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> Metric {
    Metric {
        name,
        unit,
        better,
        gate,
    }
}

/// Printed with `--trace 0`, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("e2e_s", "s", Lower, Gate::Bound(0.25)),
    m("setup_s", "s", Lower, Gate::Bound(0.25)),
    m("peak_heap_mb", "MB", Lower, Gate::Bound(0.10)),
];

/// Printed with `--trace 1`, from the traced samples. Layers a workload
/// does not run read 0; so that such a 0 is never a time, the serve-only
/// layers are reported as shares of the sample's end-to-end time.
pub const PER_LAYER: &[Metric] = &[
    m("stage.setup_s", "s", Lower, Gate::None),
    m("stage.run_s", "s", Lower, Gate::None),
    m("stage.aggregate_s", "s", Lower, Gate::None),
    m("stage.emit_s", "s", Lower, Gate::None),
    m("explore.exhaustive_s", "s", Lower, Gate::None),
    m("request.generate_share", "fraction", Lower, Gate::None),
    m("request.noise_share", "fraction", Lower, Gate::None),
    m("scenario.other_share", "fraction", Lower, Gate::None),
    m("runtime.loop_share", "fraction", Lower, Gate::None),
    m("timeline.overhead_share", "fraction", Lower, Gate::None),
    m("recalib.closed_open_ratio", "x", Lower, Gate::None),
    m("runtime.loop_rps", "1/s", Higher, Gate::None),
    m("runtime.alloc_mb", "MB", Lower, Gate::Exact),
    m("summary.alloc_mb", "MB", Lower, Gate::Exact),
    m("eval.hit_ratio", "fraction", Higher, Gate::Exact),
    m("eval.misses", "count", Lower, Gate::Exact),
    m("eval.distinct_retrains", "count", Lower, Gate::Exact),
    m("explore.candidates", "count", Lower, Gate::Exact),
    m("runtime.requests", "count", Higher, Gate::Exact),
    m("runtime.batches", "count", Lower, Gate::Exact),
    m("batch.join_ratio", "fraction", Higher, Gate::Exact),
    m("runtime.reject_ratio", "fraction", Lower, Gate::Exact),
    m("faults.drop_ratio", "fraction", Lower, Gate::Exact),
    m("ladder.degrade_ratio", "fraction", Lower, Gate::Exact),
    m("recalib.swaps", "count", Lower, Gate::Exact),
    m("timeline.windows", "count", Higher, Gate::Exact),
    m("serve.miss_rate_ppm", "ppm", Lower, Gate::Exact),
    m("serve.acc_goodput_rps", "1/s", Higher, Gate::Exact),
    m("pipeline.retrain_hours", "h", Lower, Gate::Exact),
    m(
        "pipeline.selected_accuracy",
        "fraction",
        Higher,
        Gate::Exact,
    ),
    m("stage.emit_bytes", "bytes", Lower, Gate::Exact),
    m("trace.unattributed_ratio", "fraction", Lower, Gate::None),
    m("trace.overhead_ratio", "fraction", Lower, Gate::None),
];

/// The definition of `name`, from either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn benchmark_json() -> serde_json::Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn entries<'a>(doc: &'a serde_json::Value, key: &str) -> &'a Vec<serde_json::Value> {
        doc.get(key)
            .and_then(serde_json::Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
    }

    fn field<'a>(entry: &'a serde_json::Value, key: &str) -> &'a str {
        entry.get(key).and_then(serde_json::Value::as_str).unwrap()
    }

    #[test]
    fn workloads_match_the_compiled_table() {
        let doc = benchmark_json();
        let listed: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let compiled: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, compiled);
        assert!((2..=8).contains(&listed.len()));
        for w in entries(&doc, "workloads") {
            assert!(valid_name(field(w, "name")));
            assert!(field(w, "why").len() <= 200 && !field(w, "why").contains('\n'));
        }
    }

    fn assert_table(doc: &serde_json::Value, key: &str, table: &[Metric], max: usize) {
        let listed = entries(doc, key);
        assert!(
            !listed.is_empty() && listed.len() <= max,
            "{key}: {}",
            listed.len()
        );
        let names: Vec<&str> = listed.iter().map(|e| field(e, "name")).collect();
        let compiled: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(names, compiled, "{key} names");
        for (entry, metric) in listed.iter().zip(table) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                field(entry, "better"),
                metric.better.as_str(),
                "{}",
                metric.name
            );
            let unit_ok = metric.unit.len() <= 16
                && metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(unit_ok, "{}", metric.unit);
        }
    }

    #[test]
    fn metrics_match_the_compiled_tables() {
        let doc = benchmark_json();
        assert_table(&doc, "end_to_end", END_TO_END, 16);
        assert_table(&doc, "per_layer", PER_LAYER, 128);
        for (entry, metric) in entries(&doc, "end_to_end").iter().zip(END_TO_END) {
            let bound = entry.get("bound").and_then(serde_json::Value::as_f64);
            assert_eq!(Some(metric.gate), bound.map(Gate::Bound), "{}", metric.name);
            assert!(bound.is_some_and(|b| (0.0..=0.25).contains(&b)));
        }
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "metric names are used once");
    }
}
