//! With a trace sink installed, a serve run emits one `serve.request` span
//! per request that started, inside its `serve.run` span: batch by batch
//! in dispatch order, each batch's members in arrival order. This pins
//! those spans against the run's own outcome records and pins the whole
//! event sequence by a digest of its names, parents and fields (never its
//! timestamps), on a batched two-shard run with faults. Kept in its own
//! integration binary: the trace sink is process-global.

use netcut_repro::graph::Fnv1a;
use netcut_repro::obs::{self, Event, EventKind, FieldValue};
use netcut_repro::serve::{RequestOutcome, Scenario, ScenarioConfig, Status};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// FNV-1a over every event's kind, name, parent name and fields, in
/// order. Span ids and timestamps are left out: ids count every span the
/// process opened before, and timestamps are wall-clock.
fn digest(events: &[Event]) -> u64 {
    let names: HashMap<u64, &str> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanBegin)
        .map(|e| (e.span_id, e.name.as_str()))
        .collect();
    let mut h = Fnv1a::new();
    for e in events {
        h.str(e.kind.as_str());
        h.str(&e.name);
        h.str(names.get(&e.parent_id).copied().unwrap_or(""));
        h.u64(e.fields.len() as u64);
        for (key, value) in &e.fields {
            h.str(key);
            h.str(&format!("{value:?}"));
        }
    }
    h.finish()
}

/// The unsigned field `key` of `span`, if present.
fn field(span: &Event, key: &str) -> Option<u64> {
    span.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            FieldValue::U64(n) => *n,
            other => panic!("field `{key}` is not unsigned: {other:?}"),
        })
}

#[test]
fn request_spans_match_the_outcomes_and_their_order_is_pinned() {
    let scenario = Scenario::build(ScenarioConfig {
        duration_us: 500_000,
        batch_max: 8,
        shards: 2,
        ..ScenarioConfig::default()
    });
    let sink = Arc::new(obs::MemorySink::new());
    obs::set_sink(sink.clone());
    let (outcomes, _) = scenario.run_full();
    obs::clear_sink();
    let events = sink.events();

    let by_id: HashMap<u64, &RequestOutcome> = outcomes.iter().map(|o| (o.id, o)).collect();
    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "serve.request")
        .collect();
    let started = outcomes
        .iter()
        .filter(|o| matches!(o.status, Status::Served | Status::Missed))
        .count();
    assert_eq!(spans.len(), started, "one span per started request");
    assert!(
        outcomes.iter().any(|o| o.batch_size > 1),
        "fixture must form batches"
    );
    assert!(
        outcomes.iter().any(|o| o.shard == 1),
        "fixture must use both shards"
    );

    let mut seen = HashSet::new();
    for span in &spans {
        let id = field(span, "id").expect("every span names its request");
        assert!(seen.insert(id), "request {id} has two spans");
        let o = by_id[&id];
        assert!(
            matches!(o.status, Status::Served | Status::Missed),
            "request {id} is {:?} but has a span",
            o.status
        );
        let keys: Vec<&str> = span.fields.iter().map(|(k, _)| *k).collect();
        let mut want = vec![
            "id",
            "shard",
            "batch_size",
            "queue_delay_us",
            "service_us",
            "latency_us",
        ];
        if o.rung.is_some() {
            want.push("rung");
        }
        assert_eq!(keys, want, "request {id}: span fields");
        assert_eq!(field(span, "shard"), Some(o.shard as u64), "request {id}");
        assert_eq!(
            field(span, "batch_size"),
            Some(o.batch_size as u64),
            "request {id}"
        );
        assert_eq!(
            field(span, "queue_delay_us"),
            Some(o.queue_delay_us),
            "request {id}"
        );
        assert_eq!(
            field(span, "service_us"),
            Some(o.service_us),
            "request {id}"
        );
        assert_eq!(
            field(span, "latency_us"),
            Some(o.latency_us()),
            "request {id}"
        );
        assert_eq!(
            field(span, "rung"),
            o.rung.map(|r| r as u64),
            "request {id}"
        );
    }

    // The whole sequence as finalization emitted it from each batch's
    // member list: spans batch by batch in dispatch order, members in
    // arrival order, nested in `serve.run`.
    assert_eq!(
        digest(&events),
        0x1ea2_e84d_92da_83c3,
        "event sequence digest"
    );
}
