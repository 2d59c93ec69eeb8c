//! Soak tests: long steady request streams with one fault window of each
//! class injected mid-run. Each test asserts the fault actually bites
//! while its window is open, and — the recovery guarantee — that the
//! server is back to serving the top (most accurate) rung within a
//! bounded number of requests after the fault clears, and stays there for
//! the rest of the stream.
//!
//! The streams use uniform arrivals and a `Server::new` shard, whose zero
//! jitter draws neutral noise, so the baseline behaviour is exact: without faults every request is served at the top
//! rung with zero queue delay, which makes "recovered" unambiguous.

use netcut_serve::{
    FaultKind, FaultPlan, FaultWindow, Request, RequestKind, Rung, Server, ServerConfig, Status,
    TrnLadder, PPM,
};

/// Uniform visual-only stream: one request every `gap_us` for
/// `duration_us`.
fn steady_stream(gap_us: u64, duration_us: u64) -> Vec<Request> {
    (1..)
        .map(|i| Request {
            id: i - 1,
            arrival_us: i * gap_us,
            kind: RequestKind::Visual,
        })
        .take_while(|r| r.arrival_us < duration_us)
        .collect()
}

fn ladder() -> TrnLadder {
    let rung = |name: &str, cutpoint, latency_us, accuracy| Rung {
        name: name.to_string(),
        cutpoint,
        latency_us,
        accuracy,
    };
    TrnLadder::from_rungs(vec![
        rung("net/cut3", 3, 100, 0.60),
        rung("net/cut2", 2, 300, 0.70),
        rung("net/cut1", 1, 600, 0.80),
        rung("net/cut0", 0, 700, 0.85),
    ])
}

fn config() -> ServerConfig {
    ServerConfig {
        deadline_us: 900,
        workers: 1,
        degrade: true,
        emg_service_us: 800,
        batch_max: 1,
        batch_slack_us: 0,
        exit_pin: None,
    }
}

const STREAM_US: u64 = 6_000_000; // 6 s, 4000 requests at 1.5 ms spacing
const GAP_US: u64 = 1_500;
const FAULT_START: u64 = 2_000_000;
const FAULT_END: u64 = 2_400_000;

/// How many post-fault requests the server is allowed before it must be
/// back at the top rung for good. One worker at 47% utilization drains
/// any residual backlog almost immediately; 32 requests (48 ms) is ample.
const RECOVERY_BOUND: usize = 32;

fn run_with_fault(window: FaultWindow) -> Vec<netcut_serve::RequestOutcome> {
    let faults = FaultPlan {
        windows: vec![window],
        seed: 11,
    };
    Server::new(ladder(), config(), faults).run(&steady_stream(GAP_US, STREAM_US))
}

/// Splits outcomes into (during-window, after-window) by arrival time.
fn split_at_clear(
    outcomes: &[netcut_serve::RequestOutcome],
) -> (
    Vec<&netcut_serve::RequestOutcome>,
    Vec<&netcut_serve::RequestOutcome>,
) {
    let during = outcomes
        .iter()
        .filter(|o| (FAULT_START..FAULT_END).contains(&o.arrival_us))
        .collect();
    let after = outcomes
        .iter()
        .filter(|o| o.arrival_us >= FAULT_END)
        .collect();
    (during, after)
}

/// Asserts the recovery guarantee on the post-fault tail: the top rung is
/// reached within [`RECOVERY_BOUND`] requests and never left again.
fn assert_bounded_recovery(after: &[&netcut_serve::RequestOutcome]) {
    let top = ladder().top();
    let recovered = after
        .iter()
        .position(|o| o.rung.map(usize::from) == Some(top))
        .expect("server never returned to the top rung");
    assert!(
        recovered < RECOVERY_BOUND,
        "first top-rung service only {recovered} requests after the fault cleared"
    );
    for o in &after[recovered..] {
        assert_eq!(
            o.rung.map(usize::from),
            Some(top),
            "relapsed below the top rung at t={} µs (id {})",
            o.arrival_us,
            o.id
        );
        assert_eq!(o.status, Status::Served);
    }
}

#[test]
fn baseline_without_faults_never_degrades() {
    let outcomes =
        Server::new(ladder(), config(), FaultPlan::none()).run(&steady_stream(GAP_US, STREAM_US));
    assert!(outcomes.len() > 3500);
    for o in &outcomes {
        assert_eq!(o.status, Status::Served);
        assert_eq!(o.rung.map(usize::from), Some(ladder().top()));
        assert_eq!(o.queue_delay_us, 0);
    }
}

#[test]
fn recovers_from_device_jitter() {
    // 2.5× service time: the 700 µs top rung becomes 1750 µs — slower
    // than the 1.5 ms arrival gap — so backlog builds and the ladder must
    // absorb it.
    let outcomes = run_with_fault(FaultWindow {
        kind: FaultKind::Jitter,
        start_us: FAULT_START,
        end_us: FAULT_END,
        magnitude: 2_500_000,
    });
    let (during, after) = split_at_clear(&outcomes);
    let degraded = during
        .iter()
        .filter(|o| o.rung.is_some_and(|r| usize::from(r) < ladder().top()))
        .count();
    assert!(
        degraded > 10,
        "jitter window degraded only {degraded} requests"
    );
    assert_bounded_recovery(&after);
}

#[test]
fn recovers_from_a_worker_stall() {
    // The only worker stalls for the whole window: admission control
    // sheds arrivals (queue delay ≥ deadline) instead of queueing them,
    // which is exactly what makes recovery fast once the worker returns.
    let outcomes = run_with_fault(FaultWindow {
        kind: FaultKind::Stall,
        start_us: FAULT_START,
        end_us: FAULT_END,
        magnitude: 1,
    });
    let (during, after) = split_at_clear(&outcomes);
    let rejected = during
        .iter()
        .filter(|o| o.status == Status::Rejected)
        .count();
    assert!(
        rejected > 200,
        "stall window rejected only {rejected} of {} requests",
        during.len()
    );
    assert_bounded_recovery(&after);
}

#[test]
fn recovers_from_dropped_requests() {
    // Half the arrivals in the window are lost upstream. Drops create no
    // backlog, so service quality for the surviving requests must be
    // untouched and recovery immediate.
    let outcomes = run_with_fault(FaultWindow {
        kind: FaultKind::Drop,
        start_us: FAULT_START,
        end_us: FAULT_END,
        magnitude: PPM / 2,
    });
    let (during, after) = split_at_clear(&outcomes);
    let dropped = during
        .iter()
        .filter(|o| o.status == Status::Dropped)
        .count();
    assert!(
        (60..=210).contains(&dropped),
        "drop window lost {dropped} of {} requests",
        during.len()
    );
    for o in &during {
        if o.status != Status::Dropped {
            assert_eq!(o.rung.map(usize::from), Some(ladder().top()));
            assert_eq!(o.status, Status::Served);
        }
    }
    assert!(after.iter().all(|o| o.status != Status::Dropped));
    assert_bounded_recovery(&after);
}
