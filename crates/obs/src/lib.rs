//! `netcut-obs` — dependency-light observability for the NetCut pipeline.
//!
//! Hand-rolled on `std` alone (no external tracing crates), this crate
//! provides the three primitives the exploration / measurement / training
//! pipeline reports through:
//!
//! * **Spans** ([`span`]) — RAII scopes with fields, parent links and
//!   durations: one span per measured network, per explored candidate, per
//!   estimator fit, per retraining run.
//! * **Instant events** ([`instant`]) — point observations such as each
//!   deadline-loop step or per-layer profile record.
//! * **Metrics** ([`counter_add`], [`observe`]) — always-on process-wide
//!   counters and integer [`Histogram`]s, summarized by [`snapshot`].
//!   Names are static literals or dynamic `name{label=value}` strings
//!   ([`labeled`]) checked against the [`registry`] of known base names.
//! * **Windowed telemetry** ([`residual`], [`alert`]) — per-run (not
//!   global) virtual-time machinery: predicted-vs-observed latency EWMAs
//!   in integer ppm and SLO burn-rate alerts with stable `OBS0xx` codes;
//!   per-window queue-delay distributions are the same [`Histogram`] the
//!   registry keeps. Everything is exact integer arithmetic, so derived
//!   timelines are bit-identical across thread counts and platforms.
//!
//! Events go to an [`EventSink`] installed with [`set_sink`]: a
//! human-readable stderr logger, a JSON-lines file (schema
//! [`SCHEMA_VERSION`]), a Chrome `trace_event` exporter that opens directly
//! in `chrome://tracing` / Perfetto, or any fan-out of those. With **no
//! sink installed, the instrumentation is inert**: one relaxed atomic load
//! per span, nothing allocated, nothing written.
//!
//! # Example
//!
//! ```
//! use netcut_obs as obs;
//! use std::sync::Arc;
//!
//! let sink = Arc::new(obs::MemorySink::new());
//! obs::set_sink(sink.clone());
//! {
//!     let mut span = obs::span("demo.work");
//!     span.field("items", 3u64);
//! }
//! obs::clear_sink();
//! let events = sink.events();
//! assert_eq!(events.len(), 2); // span_begin + span_end
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
mod event;
mod metrics;
pub mod registry;
pub mod residual;
mod sink;
mod span;

pub use alert::{burn_rate_ppm, Alert, AlertCode, SloPolicy, WindowObservation};
pub use event::{Event, EventKind, FieldValue, SCHEMA_VERSION};
pub use metrics::{
    counter_add, gauge_set, histogram_merge, labeled, observe, reset as reset_metrics, snapshot,
    Gauge, Histogram, HistogramSummary, MetricName, MetricsSnapshot,
};
pub use residual::{ResidualCell, ResidualTracker, DEFAULT_ALPHA_PPM, DEFAULT_WINDOW, PPM};
pub use sink::{ChromeTraceSink, EventSink, JsonLinesSink, MemorySink, MultiSink, StderrSink};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `true` when an event sink is installed. The fast path every
/// instrumentation site checks first — a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-wide event destination and enables
/// instrumentation. Replaces any previous sink (which is flushed first).
pub fn set_sink(sink: Arc<dyn EventSink>) {
    // Anchor the clock before the first event so timestamps start near 0.
    let _ = EPOCH.get_or_init(Instant::now);
    let previous = {
        let mut guard = SINK.write().expect("obs sink lock poisoned");
        guard.replace(sink)
    };
    if let Some(previous) = previous {
        previous.flush();
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables instrumentation and drops the sink (flushing it).
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    let previous = SINK.write().expect("obs sink lock poisoned").take();
    if let Some(previous) = previous {
        previous.flush();
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = SINK.read().expect("obs sink lock poisoned").as_ref() {
        sink.flush();
    }
}

/// Microseconds since the process trace epoch (first obs activity).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

pub(crate) fn dispatch(event: &Event) {
    if let Some(sink) = SINK.read().expect("obs sink lock poisoned").as_ref() {
        sink.record(event);
    }
}

/// Opens a span named `name`. Returns an inert guard when no sink is
/// installed, so the call is safe (and nearly free) on hot paths.
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::begin(name)
    } else {
        SpanGuard::inert()
    }
}

/// Id of the innermost open span on the calling thread (`0` if none).
/// Capture this before spawning workers and hand it to
/// [`span_with_parent`] so per-worker spans link back to the spawning
/// scope in traces.
pub fn current_span_id() -> u64 {
    span::current_span()
}

/// Opens a span explicitly parented to `parent` (a value previously
/// obtained from [`current_span_id`], possibly on another thread) instead
/// of this thread's innermost open span. Returns an inert guard when no
/// sink is installed.
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    if enabled() {
        SpanGuard::begin_with_parent(name, parent)
    } else {
        SpanGuard::inert()
    }
}

/// Emits a point-in-time event with the given fields, parented to the
/// innermost open span on this thread. No-op when no sink is installed;
/// callers building costly field values should still gate on [`enabled`].
pub fn instant(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    dispatch(&Event {
        ts_us: now_us(),
        kind: EventKind::Instant,
        name: name.into(),
        span_id: 0,
        parent_id: span::current_span(),
        dur_us: 0,
        fields: fields.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the process-global sink.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_and_inert() {
        let _guard = sink_lock();
        clear_sink();
        assert!(!enabled());
        let mut span = span("never.seen");
        span.field("x", 1.0);
        assert!(!span.is_recording());
        drop(span);
        instant("never.seen", &[("x", FieldValue::from(1u64))]);
    }

    #[test]
    fn spans_nest_and_parent() {
        let _guard = sink_lock();
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        {
            let mut outer = span("outer");
            outer.field("who", "outer");
            {
                let mut inner = span("inner");
                inner.field("depth", 2u64);
                instant("tick", &[("n", FieldValue::from(1u64))]);
            }
        }
        clear_sink();
        let events = sink.events();
        // outer begin, inner begin, tick, inner end, outer end.
        assert_eq!(events.len(), 5);
        let outer_id = events[0].span_id;
        assert_eq!(events[0].kind, EventKind::SpanBegin);
        assert_eq!(events[0].parent_id, 0);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].parent_id, outer_id);
        assert_eq!(events[2].kind, EventKind::Instant);
        assert_eq!(events[2].parent_id, events[1].span_id);
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].name, "inner");
        assert!(events[3].fields.contains(&("depth", FieldValue::U64(2))));
        assert_eq!(events[4].name, "outer");
        // Timestamps are monotone.
        for pair in events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }

    #[test]
    fn cross_thread_span_parents_to_spawning_scope() {
        let _guard = sink_lock();
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        {
            let _outer = span("outer");
            let parent = current_span_id();
            assert_ne!(parent, 0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut worker = span_with_parent("worker", parent);
                    worker.field("n", 1u64);
                    let _inner = span("inner.task");
                });
            });
        }
        clear_sink();
        let events = sink.events();
        let outer_id = events[0].span_id;
        let worker_begin = events
            .iter()
            .find(|e| e.name == "worker" && e.kind == EventKind::SpanBegin)
            .expect("worker span_begin");
        assert_eq!(worker_begin.parent_id, outer_id);
        let inner_begin = events
            .iter()
            .find(|e| e.name == "inner.task" && e.kind == EventKind::SpanBegin)
            .expect("inner span_begin");
        // Spans opened on the worker thread nest under the worker span.
        assert_eq!(inner_begin.parent_id, worker_begin.span_id);
    }

    #[test]
    fn span_end_carries_duration() {
        let _guard = sink_lock();
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        {
            let _span = span("timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        clear_sink();
        let end = sink
            .events()
            .into_iter()
            .find(|e| e.kind == EventKind::SpanEnd)
            .expect("span_end event");
        assert!(end.dur_us >= 1_000, "dur_us = {}", end.dur_us);
    }

    #[test]
    fn set_sink_replaces_and_flushes() {
        let _guard = sink_lock();
        let first = Arc::new(MemorySink::new());
        let second = Arc::new(MemorySink::new());
        set_sink(first.clone());
        instant("one", &[]);
        set_sink(second.clone());
        instant("two", &[]);
        clear_sink();
        assert_eq!(first.events().len(), 1);
        assert_eq!(second.events().len(), 1);
        assert_eq!(second.events()[0].name, "two");
    }
}
