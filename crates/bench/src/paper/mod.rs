//! The paper's evaluation as one table.
//!
//! [`DOCUMENTS`] maps every figure and ablation document under `results/`
//! to the study that computes it over one shared [`Lab`]. A study prints
//! its series and the paper's numbers to stdout, checks the paper's shape
//! claims, and returns its typed rows as JSON together with its section of
//! `REPORT.md`, if the report shows it. `suite_report` runs the table in
//! order and writes both.

mod ablations;
mod figures;

use crate::Lab;
use serde::Serialize;

/// What one study produces.
pub struct Document {
    /// The study's rows as pretty JSON: the text of `results/<name>.json`.
    pub json: String,
    /// The study's section of `REPORT.md`; empty when the report does not
    /// show the study.
    pub report: String,
}

impl Document {
    fn new<T: Serialize + ?Sized>(rows: &T, report: String) -> Self {
        Document {
            json: serde_json::to_string_pretty(rows).expect("serialize results"),
            report,
        }
    }
}

/// A study: computes one document over the shared lab.
pub type Study = fn(&Lab) -> Document;

/// Every figure and ablation document, by its name under `results/`, in
/// run order. The report's figure sections come out in this order.
pub const DOCUMENTS: [(&str, Study); 21] = [
    ("fig01_offshelf", figures::fig01_offshelf),
    (
        "fig04_blockwise_vs_iterative",
        figures::fig04_blockwise_vs_iterative,
    ),
    ("fig05_removal_accuracy", figures::fig05_removal_accuracy),
    ("fig06_trn_tradeoff", figures::fig06_trn_tradeoff),
    ("fig07_new_pareto", figures::fig07_new_pareto),
    ("fig08_resnet_estimates", figures::fig08_resnet_estimates),
    ("fig09_estimator_error", figures::fig09_estimator_error),
    ("fig10_netcut_selection", figures::fig10_netcut_selection),
    ("ablation_batching", ablations::batching),
    ("ablation_device", ablations::device),
    ("ablation_energy", ablations::energy),
    ("ablation_estimator_features", ablations::estimator_features),
    ("ablation_estimator_models", ablations::estimator_models),
    ("ablation_extended_zoo", ablations::extended_zoo),
    ("ablation_fusion", ablations::fusion),
    ("ablation_granularity", ablations::granularity),
    ("ablation_head", ablations::head),
    ("ablation_loop_reliability", ablations::loop_reliability),
    ("ablation_netadapt", ablations::netadapt),
    ("ablation_precision", ablations::precision),
    ("ablation_tail_latency", ablations::tail_latency),
];

#[cfg(test)]
mod tests {
    use super::DOCUMENTS;
    use crate::{gate, serve_matrix};

    /// `git status` after a run catches a stale, untracked or deleted
    /// document, but not an orphan that nothing writes any more: that
    /// takes this check. Every committed `results/` file is a study's
    /// document, one of the serve matrix's two, `REPORT.md` (all written
    /// by `suite_report`) or the throughput baseline `bench_simcore
    /// --bless` writes.
    #[test]
    fn the_runners_write_every_committed_document() {
        let results = gate::results_path("");
        let mut committed: Vec<String> = std::fs::read_dir(&results)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        committed.sort();
        let serve = serve_matrix::documents(crate::tests::matrix());
        let mut written: Vec<String> = DOCUMENTS
            .iter()
            .map(|(name, _)| format!("{name}.json"))
            .chain(serve.iter().map(|(file, _)| file.to_string()))
            .chain(["REPORT.md", gate::SIMCORE].map(String::from))
            .collect();
        written.sort();
        assert_eq!(written, committed, "documents in {}", results.display());
    }
}
