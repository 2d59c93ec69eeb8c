//! End-to-end observability checks: a full NetCut exploration run must
//! emit a well-formed JSON-lines trace (schema v1, balanced and properly
//! nested spans, monotone timestamps, one span per explored candidate with
//! predicted and measured latency, and Algorithm 1's decision record: one
//! `estimate.predict` instant before each `netcut.step`) and a loadable
//! Chrome trace document.

use netcut_repro::core::eval::EvalContext;
use netcut_repro::core::netcut::NetCut;
use netcut_repro::estimate::ProfilerEstimator;
use netcut_repro::graph::zoo;
use netcut_repro::obs;
use netcut_repro::sim::{DeviceModel, Precision, Session};
use netcut_repro::train::SurrogateRetrainer;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The obs sink is process-global; serialize the tests that install one.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs NetCut over two small families at 0.2 ms, which both must be cut
/// to meet (their sources measure about 0.25 and 0.34 ms).
fn run_explore() -> usize {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer);
    let sources = [zoo::mobilenet_v1(0.25), zoo::mobilenet_v1(0.5)];
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 7);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, 0.2, &ctx);
    outcome.proposals.len()
}

#[test]
fn explore_emits_well_formed_jsonl_trace() {
    let _guard = sink_lock();
    let path = std::env::temp_dir().join("netcut_obs_trace_it.jsonl");
    let sink = obs::JsonLinesSink::create(&path).expect("create trace file");
    obs::set_sink(Arc::new(sink));
    let families = run_explore();
    obs::clear_sink();

    let text = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > 10,
        "explore run produced {} events",
        lines.len()
    );

    let mut last_ts = 0u64;
    let mut stack: Vec<u64> = Vec::new();
    let mut open_spans = 0usize;
    let mut candidate_spans = 0usize;
    let mut family_spans = 0usize;
    // Per enclosing span: the `estimate.predict` not yet claimed by a
    // `netcut.step`, as (candidate, predicted_ms).
    let mut pending: HashMap<u64, (String, f64)> = HashMap::new();
    let mut steps = 0usize;
    for (i, line) in lines.iter().enumerate() {
        // Every line parses independently as one JSON object.
        let event: serde_json::Value = line
            .parse()
            .unwrap_or_else(|e| panic!("line {i} is not JSON ({e:?}): {line}"));
        assert_eq!(
            event.get("v").and_then(serde_json::Value::as_u64),
            Some(u64::from(obs::SCHEMA_VERSION)),
            "line {i} has wrong schema version: {line}"
        );
        let ts = event
            .get("ts_us")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("line {i} lacks ts_us: {line}"));
        assert!(ts >= last_ts, "timestamps regress at line {i}");
        last_ts = ts;
        let kind = event
            .get("kind")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("line {i} lacks kind: {line}"));
        let name = event.get("name").and_then(|v| v.as_str()).unwrap_or("");
        assert!(!name.is_empty(), "line {i} lacks a name: {line}");
        match kind {
            "span_begin" => {
                let id = event
                    .get("span")
                    .and_then(serde_json::Value::as_u64)
                    .expect("span id");
                // Nesting discipline: the parent is the innermost open span.
                let parent = event
                    .get("parent")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0);
                assert_eq!(
                    parent,
                    stack.last().copied().unwrap_or(0),
                    "line {i}: span {id} has parent {parent} but innermost open \
                     span is {:?}",
                    stack.last()
                );
                stack.push(id);
                open_spans += 1;
            }
            "span_end" => {
                let id = event
                    .get("span")
                    .and_then(serde_json::Value::as_u64)
                    .expect("span id");
                assert_eq!(
                    stack.pop(),
                    Some(id),
                    "line {i}: span {id} closed out of order"
                );
                let dur = event.get("dur_us").and_then(serde_json::Value::as_u64);
                assert!(dur.is_some(), "line {i}: span_end lacks dur_us");
                let fields = event.get("fields");
                let field = |key: &str| fields.and_then(|f| f.get(key)).cloned();
                if name == "explore.candidate" {
                    candidate_spans += 1;
                    assert!(
                        field("measured_ms").and_then(|v| v.as_f64()).is_some(),
                        "candidate span lacks measured_ms: {line}"
                    );
                }
                if name == "netcut.family" {
                    family_spans += 1;
                    // The acceptance contract: every explored candidate's
                    // span carries both the prediction and the measurement.
                    for key in ["predicted_ms", "measured_ms"] {
                        assert!(
                            field(key).and_then(|v| v.as_f64()).is_some(),
                            "family span lacks {key}: {line}"
                        );
                    }
                    assert!(
                        field("accept").is_some() && field("reason").is_some(),
                        "family span lacks accept/reason: {line}"
                    );
                }
            }
            "instant" => {
                let parent = event
                    .get("parent")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0);
                let fields = event.get("fields");
                let str_field = |key: &str| {
                    fields
                        .and_then(|f| f.get(key))
                        .and_then(|v| v.as_str())
                        .unwrap_or_else(|| panic!("line {i} lacks {key}: {line}"))
                        .to_owned()
                };
                let num_field = |key: &str| {
                    fields
                        .and_then(|f| f.get(key))
                        .and_then(serde_json::Value::as_f64)
                        .unwrap_or_else(|| panic!("line {i} lacks {key}: {line}"))
                };
                match name {
                    "estimate.predict" => {
                        let previous = pending
                            .insert(parent, (str_field("candidate"), num_field("predicted_ms")));
                        assert!(
                            previous.is_none(),
                            "line {i}: two predictions without a step: {line}"
                        );
                    }
                    "netcut.step" => {
                        let (candidate, predicted) = pending
                            .remove(&parent)
                            .unwrap_or_else(|| panic!("line {i}: step without a prediction"));
                        let cutpoint = fields
                            .and_then(|f| f.get("cutpoint"))
                            .and_then(serde_json::Value::as_u64)
                            .unwrap_or_else(|| panic!("line {i} lacks cutpoint: {line}"));
                        assert_eq!(
                            candidate,
                            format!("{}/cut{cutpoint}", str_field("family")),
                            "line {i}: step and prediction name different cuts"
                        );
                        assert_eq!(
                            num_field("predicted_ms"),
                            predicted,
                            "line {i}: step and prediction disagree"
                        );
                        steps += 1;
                    }
                    _ => {}
                }
            }
            other => panic!("line {i} has unknown kind `{other}`"),
        }
    }
    assert!(
        stack.is_empty(),
        "unclosed spans at end of trace: {stack:?}"
    );
    assert!(open_spans > 0);
    assert_eq!(family_spans, families, "one netcut.family span per source");
    assert!(steps > 0, "the run took no Algorithm 1 step");
    assert!(
        pending.is_empty(),
        "predictions no step claimed: {pending:?}"
    );
    assert!(
        candidate_spans >= families,
        "at least one explore.candidate span per proposal"
    );
}

#[test]
fn explore_emits_loadable_chrome_trace() {
    let _guard = sink_lock();
    let path = std::env::temp_dir().join("netcut_obs_trace_it_chrome.json");
    obs::set_sink(Arc::new(obs::ChromeTraceSink::create(&path)));
    run_explore();
    obs::clear_sink();

    let text = std::fs::read_to_string(&path).expect("read chrome trace");
    let _ = std::fs::remove_file(&path);
    // One JSON document in trace_event format.
    let doc: serde_json::Value = text.parse().expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .clone();
    assert!(events.len() > 10);
    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut family_ends_with_latency = 0usize;
    for e in &events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("phase");
        assert!(matches!(ph, "B" | "E" | "i"), "unknown phase {ph}");
        assert!(e.get("ts").and_then(serde_json::Value::as_u64).is_some());
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        match ph {
            "B" => begins += 1,
            "E" => {
                ends += 1;
                if e.get("name").and_then(|v| v.as_str()) == Some("netcut.family") {
                    let args = e.get("args").expect("family args");
                    if args
                        .get("predicted_ms")
                        .and_then(serde_json::Value::as_f64)
                        .is_some()
                        && args
                            .get("measured_ms")
                            .and_then(serde_json::Value::as_f64)
                            .is_some()
                    {
                        family_ends_with_latency += 1;
                    }
                }
            }
            _ => {}
        }
    }
    assert_eq!(begins, ends, "every B event pairs with an E event");
    assert_eq!(family_ends_with_latency, 2);
}
