//! Structured diagnostics: stable codes, severities, graph spans, and the
//! rendered [`Report`] (human text plus schema-v1 JSON lines).

use netcut_graph::NodeId;
use netcut_obs as obs;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: legitimate but worth knowing (e.g. a network with no
    /// convolutions has a zero filter-size feature).
    Note,
    /// Suspicious but not structurally fatal; strict mode promotes these to
    /// failures.
    Warning,
    /// The graph violates an invariant the pipeline relies on; downstream
    /// latency estimates and retraining would be garbage.
    Error,
}

impl Severity {
    /// Stable wire name (`"error"`, `"warning"`, `"note"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. Codes are append-only: a code is never reused
/// for a different rule, so log consumers and the mutation harness can rely
/// on them across versions. The full table lives in DESIGN.md §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// NC001 — the network has no nodes.
    NC001,
    /// NC002 — broken topology: an input reference that does not strictly
    /// precede its consumer, a stored node id that disagrees with its
    /// position, or an out-of-range graph output.
    NC002,
    /// NC003 — shape-inference inconsistency along an edge: a stored shape
    /// that re-inference from the stored input shapes contradicts.
    NC003,
    /// NC004 — a node unreachable from the graph output (dangling).
    NC004,
    /// NC005 — a block that is empty or references nodes outside the graph.
    NC005,
    /// NC006 — block-boundary integrity: a non-contiguous block, a block
    /// output that is not a member, or an edge tapping a block's interior
    /// from outside (a cut through the block would sever it).
    NC006,
    /// NC007 — cutpoint monotonicity: block outputs not strictly increasing,
    /// a node owned by two blocks, or a block extending into the head.
    NC007,
    /// NC008 — head structure: the head boundary is out of range, the graph
    /// output is not a head node, the head has no weighted layer, or the
    /// output is not a class vector.
    NC008,
    /// NC009 — head-reattachment compatibility: the head's FC stack or
    /// class count does not match the expected [`netcut_graph::HeadSpec`].
    NC009,
    /// NC010 — stats coherence: aggregate FLOPs/params disagree with the
    /// per-layer recomputation, or a weighted layer has zero cost.
    NC010,
    /// NC011 — fingerprint instability: refingerprinting (or fingerprinting
    /// a clone) yields a different value.
    NC011,
    /// NC012 — estimator-feature sanity: a backbone statistic that feeds a
    /// zero (or NaN, after normalization) feature to the latency SVR.
    NC012,
    /// NC013 — exit-head structure: an exit whose node range is out of
    /// range or inverted, holds no weighted layer, whose output is not a
    /// class-probability vector, or whose class count disagrees with the
    /// other exits.
    NC013,
    /// NC014 — exit monotonicity: exit heads not stored shallowest-first
    /// (head starts strictly increasing), or the deepest exit's output is
    /// not the graph output.
    NC014,
    /// NC015 — one head per boundary: the exit table does not claim every
    /// block exactly once, or an exit's entry node does not consume its
    /// claimed block's output.
    NC015,
    /// NC016 — exit isolation: an exit range outside the head region,
    /// overlapping exit ranges, an exit node consumed from outside its exit
    /// (not a pure sink), or a backbone fingerprint that is unstable under
    /// exit-head attachment.
    NC016,
    /// SV001 — ladder order: exit-table rungs not strictly ascending in
    /// predicted latency (ties included — equal latencies must be deduped
    /// at build time), or a rung with zero predicted latency.
    SV001,
    /// SV002 — exit-table range: an empty ladder (no exit candidates
    /// survived the Pareto filter) or an exit pin that addresses a rung
    /// outside the table.
    SV002,
    /// SV003 — dominated rung: a rung that is both slower and no more
    /// accurate than an earlier rung, so the selector would never have a
    /// reason to pick it.
    SV003,
    /// SV004 — batch-curve shape: the curve roster does not carry exactly
    /// one curve per rung, a curve is empty, or `curve[0]` is not `PPM`
    /// (batch size 1 must cost exactly one request).
    SV004,
    /// SV005 — batch-curve scaling: a curve that decreases with batch size,
    /// or exceeds linear scaling (`curve[n-1] > n·PPM`) for batch ≥ 2 —
    /// batching that is slower than serial dispatch is never sound.
    SV005,
    /// SV006 — roster consistency: two shards serving the same device
    /// disagree on the ladder (rungs, curves, or pin), so routing between
    /// them would change latency predictions for identical hardware.
    SV006,
    /// SV007 — fault-window bounds: a fault window that is empty
    /// (`start >= end`) or extends past the scenario duration.
    SV007,
    /// SV008 — fault-window overlap: two windows of the same fault class
    /// overlap on one shard (or in the global plan), making the injected
    /// magnitude order-dependent.
    SV008,
    /// SV009 — fault partition: the per-shard fault plans do not partition
    /// the global timeline — a global window owned by zero or several
    /// shards, or a shard window absent from the global plan.
    SV009,
    /// SV010 — SLO budget: the miss budget is zero (every miss is an
    /// instant page) or exceeds `PPM` (not a rate).
    SV010,
    /// SV011 — SLO threshold order: the burn alert fires below the
    /// on-budget line (`burn_alert_ppm < PPM`), a zero drift threshold, or
    /// zero minimum sample/arrival floors (every empty window would alert).
    SV011,
    /// SV012 — alert reachability: a policy constant that makes one of the
    /// stable `OBS0xx` alert codes impossible to emit, e.g. a burn
    /// threshold above the burn rate of an all-miss window.
    SV012,
    /// SV013 — recalibration-config sanity: a closed-loop scenario whose
    /// controller can never act soundly — zero drift threshold, cooldown,
    /// watermark cadence, or sample floor, a refit window smaller than the
    /// sample floor it must satisfy, or a saturated drift threshold that
    /// makes OBS005 unreachable.
    SV013,
}

impl Code {
    /// Stable wire name, e.g. `"NC003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NC001 => "NC001",
            Code::NC002 => "NC002",
            Code::NC003 => "NC003",
            Code::NC004 => "NC004",
            Code::NC005 => "NC005",
            Code::NC006 => "NC006",
            Code::NC007 => "NC007",
            Code::NC008 => "NC008",
            Code::NC009 => "NC009",
            Code::NC010 => "NC010",
            Code::NC011 => "NC011",
            Code::NC012 => "NC012",
            Code::NC013 => "NC013",
            Code::NC014 => "NC014",
            Code::NC015 => "NC015",
            Code::NC016 => "NC016",
            Code::SV001 => "SV001",
            Code::SV002 => "SV002",
            Code::SV003 => "SV003",
            Code::SV004 => "SV004",
            Code::SV005 => "SV005",
            Code::SV006 => "SV006",
            Code::SV007 => "SV007",
            Code::SV008 => "SV008",
            Code::SV009 => "SV009",
            Code::SV010 => "SV010",
            Code::SV011 => "SV011",
            Code::SV012 => "SV012",
            Code::SV013 => "SV013",
        }
    }

    /// Short kebab-case rule name, e.g. `"shape-consistency"`.
    pub fn rule_name(self) -> &'static str {
        match self {
            Code::NC001 => "empty-network",
            Code::NC002 => "topological-order",
            Code::NC003 => "shape-consistency",
            Code::NC004 => "reachability",
            Code::NC005 => "block-structure",
            Code::NC006 => "block-boundary",
            Code::NC007 => "cutpoint-monotonicity",
            Code::NC008 => "head-structure",
            Code::NC009 => "head-spec",
            Code::NC010 => "stats-coherence",
            Code::NC011 => "fingerprint-stability",
            Code::NC012 => "estimator-features",
            Code::NC013 => "exit-head-structure",
            Code::NC014 => "exit-monotonicity",
            Code::NC015 => "one-head-per-boundary",
            Code::NC016 => "exit-isolation",
            Code::SV001 => "ladder-order",
            Code::SV002 => "exit-table-range",
            Code::SV003 => "dominated-rung",
            Code::SV004 => "batch-curve-shape",
            Code::SV005 => "batch-curve-scaling",
            Code::SV006 => "roster-consistency",
            Code::SV007 => "fault-window-bounds",
            Code::SV008 => "fault-window-overlap",
            Code::SV009 => "fault-partition",
            Code::SV010 => "slo-budget",
            Code::SV011 => "slo-threshold-order",
            Code::SV012 => "alert-reachability",
            Code::SV013 => "recalib-config",
        }
    }

    /// The fixed severity findings of this code carry.
    pub fn severity(self) -> Severity {
        match self {
            Code::NC004 => Severity::Warning,
            Code::NC012 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the graph a finding is anchored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpan {
    /// The network as a whole.
    Network,
    /// One node.
    Node {
        /// The node's id.
        id: NodeId,
        /// The node's name at analysis time.
        name: String,
    },
    /// One edge (producer → consumer).
    Edge {
        /// Producer node.
        from: NodeId,
        /// Consumer node.
        to: NodeId,
        /// Consumer name at analysis time.
        to_name: String,
    },
    /// One backbone block.
    Block {
        /// Index into [`netcut_graph::Network::blocks`].
        index: usize,
        /// The block's name at analysis time.
        name: String,
    },
    /// The classification head (every node from `head_start` on).
    Head {
        /// First head node.
        start: NodeId,
    },
    /// One serve-plane shard (serve-plane rules only).
    Shard {
        /// The shard's roster name, e.g. `"shard0:jetson_xavier"`.
        name: String,
    },
    /// One exit-table rung of a shard's ladder.
    Rung {
        /// The owning shard's roster name.
        shard: String,
        /// Rung index, shallowest-first.
        index: usize,
    },
    /// One fault window of a shard's plan (`"global"` for the scenario-wide
    /// timeline before shard ownership is assigned).
    Fault {
        /// The owning shard's roster name, or `"global"`.
        shard: String,
        /// Window index in plan order.
        index: usize,
    },
    /// The scenario's SLO policy.
    SloPolicy,
    /// The scenario's closed-loop recalibration policy.
    RecalibPolicy,
}

impl fmt::Display for GraphSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSpan::Network => write!(f, "network"),
            GraphSpan::Node { id, name } => write!(f, "node {id} `{name}`"),
            GraphSpan::Edge { from, to, to_name } => {
                write!(f, "edge {from} -> {to} `{to_name}`")
            }
            GraphSpan::Block { index, name } => write!(f, "block #{index} `{name}`"),
            GraphSpan::Head { start } => write!(f, "head (from {start})"),
            GraphSpan::Shard { name } => write!(f, "shard `{name}`"),
            GraphSpan::Rung { shard, index } => write!(f, "rung #{index} of `{shard}`"),
            GraphSpan::Fault { shard, index } => {
                write!(f, "fault window #{index} of `{shard}`")
            }
            GraphSpan::SloPolicy => write!(f, "slo policy"),
            GraphSpan::RecalibPolicy => write!(f, "recalib policy"),
        }
    }
}

/// One finding: a stable code, its severity, where it is, and what went
/// wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable rule code.
    pub code: Code,
    /// Severity, fixed per code.
    pub severity: Severity,
    /// Graph location.
    pub span: GraphSpan,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity comes from the code.
    pub fn new(code: Code, span: GraphSpan, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

/// Count of findings by severity; cheap to merge across many reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Note-severity findings.
    pub notes: usize,
}

impl Summary {
    /// Adds another summary's counts into this one.
    pub fn merge(&mut self, other: Summary) {
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.notes += other.notes;
    }

    /// Total findings of any severity.
    pub fn total(&self) -> usize {
        self.errors + self.warnings + self.notes
    }
}

/// The analyzer's output for one network: every finding plus identity
/// (name, structural fingerprint) for report provenance.
#[derive(Debug, Clone)]
pub struct Report {
    pub(crate) network: String,
    pub(crate) fingerprint: u64,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Name of the analyzed network.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Structural fingerprint of the analyzed network.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Every finding, in the order the rules ran.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when no Error-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        self.summary().errors == 0
    }

    /// First Error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Consumes the report, returning the first Error-severity finding.
    pub fn into_first_error(self) -> Option<Diagnostic> {
        self.diagnostics
            .into_iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Findings counted by severity.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => s.errors += 1,
                Severity::Warning => s.warnings += 1,
                Severity::Note => s.notes += 1,
            }
        }
        s
    }

    /// Multi-line human rendering: one line per finding plus a trailing
    /// verdict line. Clean reports render as a single `ok` line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}: {d}", self.network);
        }
        let s = self.summary();
        if s.total() == 0 {
            let _ = writeln!(out, "{}: ok", self.network);
        } else {
            let _ = writeln!(
                out,
                "{}: {} error(s), {} warning(s), {} note(s)",
                self.network, s.errors, s.warnings, s.notes
            );
        }
        out
    }

    /// Schema-v1 JSON-lines rendering, reusing the `netcut-obs` event
    /// envelope: one `verify.diagnostic` instant event per finding, then a
    /// `verify.summary` event with counts by severity, each on its own
    /// line. Consumers can mix these lines into a `--trace-out` stream.
    pub fn to_json_lines(&self) -> String {
        let ts_us = obs::now_us();
        let mut out = String::new();
        for d in &self.diagnostics {
            let event = obs::Event {
                ts_us,
                kind: obs::EventKind::Instant,
                name: "verify.diagnostic".to_owned(),
                span_id: 0,
                parent_id: 0,
                dur_us: 0,
                fields: vec![
                    ("network", obs::FieldValue::from(self.network.clone())),
                    ("code", obs::FieldValue::from(d.code.as_str())),
                    ("severity", obs::FieldValue::from(d.severity.as_str())),
                    ("span", obs::FieldValue::from(d.span.to_string())),
                    ("message", obs::FieldValue::from(d.message.clone())),
                ],
            };
            out.push_str(&event.to_json());
            out.push('\n');
        }
        let s = self.summary();
        let summary = obs::Event {
            ts_us,
            kind: obs::EventKind::Instant,
            name: "verify.summary".to_owned(),
            span_id: 0,
            parent_id: 0,
            dur_us: 0,
            fields: vec![
                ("network", obs::FieldValue::from(self.network.clone())),
                ("fingerprint", obs::FieldValue::from(self.fingerprint)),
                ("errors", obs::FieldValue::from(s.errors)),
                ("warnings", obs::FieldValue::from(s.warnings)),
                ("notes", obs::FieldValue::from(s.notes)),
            ],
        };
        out.push_str(&summary.to_json());
        out.push('\n');
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Code;

    /// Every code in declaration order. Each arm names the code after it,
    /// so a new code does not compile until it takes its place here, and
    /// the rule tables' tests then fail until a rule reports it.
    pub(crate) fn all_codes() -> Vec<Code> {
        let mut all = vec![Code::NC001];
        loop {
            let next = match all[all.len() - 1] {
                Code::NC001 => Code::NC002,
                Code::NC002 => Code::NC003,
                Code::NC003 => Code::NC004,
                Code::NC004 => Code::NC005,
                Code::NC005 => Code::NC006,
                Code::NC006 => Code::NC007,
                Code::NC007 => Code::NC008,
                Code::NC008 => Code::NC009,
                Code::NC009 => Code::NC010,
                Code::NC010 => Code::NC011,
                Code::NC011 => Code::NC012,
                Code::NC012 => Code::NC013,
                Code::NC013 => Code::NC014,
                Code::NC014 => Code::NC015,
                Code::NC015 => Code::NC016,
                Code::NC016 => Code::SV001,
                Code::SV001 => Code::SV002,
                Code::SV002 => Code::SV003,
                Code::SV003 => Code::SV004,
                Code::SV004 => Code::SV005,
                Code::SV005 => Code::SV006,
                Code::SV006 => Code::SV007,
                Code::SV007 => Code::SV008,
                Code::SV008 => Code::SV009,
                Code::SV009 => Code::SV010,
                Code::SV010 => Code::SV011,
                Code::SV011 => Code::SV012,
                Code::SV012 => Code::SV013,
                Code::SV013 => return all,
            };
            all.push(next);
        }
    }

    /// The codes of one plane (`"NC"` or `"SV"`), in declaration order.
    pub(crate) fn plane_codes(prefix: &str) -> Vec<Code> {
        all_codes()
            .into_iter()
            .filter(|code| code.as_str().starts_with(prefix))
            .collect()
    }

    #[test]
    fn codes_are_numbered_in_declaration_order_per_plane() {
        let all = all_codes();
        assert_eq!(all.len(), plane_codes("NC").len() + plane_codes("SV").len());
        for prefix in ["NC", "SV"] {
            let names: Vec<String> = plane_codes(prefix)
                .iter()
                .map(|code| code.as_str().to_owned())
                .collect();
            let numbered: Vec<String> = (1..=names.len())
                .map(|n| format!("{prefix}{n:03}"))
                .collect();
            assert_eq!(names, numbered);
        }
    }
}
