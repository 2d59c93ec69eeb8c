//! Property tests of the closed recalibration loop — the invariants the
//! generation-tagged hot-swap must preserve:
//!
//! 1. Conservation: every timeline window of a recalibrating run still
//!    partitions its arrivals into served + missed + rejected + dropped —
//!    a swap never drops or double-counts an in-flight request.
//! 2. Admission tagging: every outcome carries the generation its shard
//!    was serving when the request arrived, so generations are
//!    nondecreasing in arrival order per shard and agree with the
//!    timeline's per-window generation column.
//! 3. Monotonicity: a shard's generation never moves backwards, and the
//!    summary's final generations match the timeline's last windows.
//! 4. Determinism: the recalibrating scenario's summary is bit-identical
//!    at `--jobs 1` and `--jobs 8`.
//! 5. The summary's recalibration block is the run's swap log: it counts
//!    every swap and reports each shard's last generation and scale,
//!    whatever the telemetry window and wherever requests were routed.

use netcut_obs::alert::AlertCode;
use netcut_serve::{Scenario, ScenarioConfig, ServeSummary, Timeline};

/// The drifting scenario all properties run against: +30% thermal
/// throttle, demo faults off, one shard, loop closed with a short
/// cooldown so multiple swaps occur.
fn drifting_config(jobs: usize) -> ScenarioConfig {
    ScenarioConfig {
        duration_us: 1_200_000,
        jobs,
        faults: false,
        shards: 1,
        thermal_ppm: 1_300_000,
        recalibrate: true,
        recalib_cooldown_us: 200_000,
        ..ScenarioConfig::default()
    }
}

fn drifting(jobs: usize) -> Scenario {
    Scenario::try_build(drifting_config(jobs)).expect("drifting scenario builds")
}

fn run_drifting(jobs: usize) -> (ServeSummary, Timeline) {
    drifting(jobs).run_summary()
}

#[test]
fn windows_conserve_arrivals_across_swaps() {
    let (summary, timeline) = run_drifting(1);
    assert!(
        summary.recalibrations >= 2,
        "fixture must actually swap more than once, got {}",
        summary.recalibrations
    );
    for row in &timeline.rows {
        assert_eq!(
            row.arrivals,
            row.served + row.missed + row.rejected + row.dropped,
            "window {} shard {} leaks requests across a swap",
            row.window,
            row.shard
        );
    }
    // And run-wide, straight from the outcomes.
    assert_eq!(
        summary.total,
        summary.served + summary.missed + summary.rejected + summary.dropped
    );
    // The timeline judges "degraded" against each request's admission
    // ladder; the summary against the build-time exit table. A hot-swap
    // must not pull the two apart.
    assert_eq!(
        timeline.rows.iter().map(|r| r.degraded).sum::<u64>(),
        summary.degraded,
        "timeline and summary disagree on degraded completions across swaps"
    );
}

#[test]
fn outcomes_carry_their_admission_generation() {
    let (outcomes, timeline) = drifting(1).run_full();

    // Nondecreasing in arrival order per shard (outcomes are in request
    // order, which is arrival order).
    let shard_count = timeline.shard_names.len();
    let mut last_gen = vec![0u64; shard_count];
    for o in &outcomes {
        let (s, generation) = (usize::from(o.shard), u64::from(o.generation));
        assert!(
            generation >= last_gen[s],
            "request {} regressed shard {s} from generation {} to {generation}",
            o.id,
            last_gen[s],
        );
        last_gen[s] = generation;
    }
    assert!(
        last_gen.iter().any(|&g| g > 0),
        "fixture must reach a swapped generation"
    );

    // Each outcome's generation agrees with the timeline: a request
    // arriving in a window can be at most the generation the window ends
    // at, and at least the generation the previous window ended at.
    for o in &outcomes {
        let w = (o.arrival_us / timeline.window_us).min(timeline.windows - 1);
        let row = |win: u64| &timeline.rows[(win as usize) * shard_count + usize::from(o.shard)];
        let upper = row(w).generation;
        let lower = if w == 0 { 0 } else { row(w - 1).generation };
        assert!(
            (lower..=upper).contains(&u64::from(o.generation)),
            "request {} (arrival {} µs) has generation {}, outside window {}'s [{lower}, {upper}]",
            o.id,
            o.arrival_us,
            o.generation,
            w
        );
    }
}

#[test]
fn timeline_generations_are_monotone_and_match_the_summary() {
    let (summary, timeline) = run_drifting(1);
    let shard_count = timeline.shard_names.len();
    for shard in 0..shard_count {
        let gens: Vec<u64> = (0..timeline.windows)
            .map(|w| timeline.rows[(w as usize) * shard_count + shard].generation)
            .collect();
        assert!(
            gens.windows(2).all(|p| p[0] <= p[1]),
            "shard {shard} generation went backwards: {gens:?}"
        );
        assert_eq!(
            *gens.last().unwrap(),
            summary.generations[shard],
            "summary must report shard {shard}'s final generation"
        );
    }
    assert_eq!(
        summary.recalibrations,
        summary.generations.iter().sum::<u64>(),
        "every swap bumps exactly one shard's generation by one"
    );
}

#[test]
fn recalibrating_summaries_are_bit_identical_across_jobs() {
    let (summary_seq, tl_seq) = run_drifting(1);
    let (summary_par, tl_par) = run_drifting(8);
    assert_eq!(
        summary_seq.to_json(),
        summary_par.to_json(),
        "recalibrating summaries must be bit-identical at --jobs 1 and --jobs 8"
    );
    assert!(summary_seq.recalibrations > 0);
    // The timelines (including OBS005 alert placement) match too.
    assert_eq!(tl_seq.to_jsonl(), tl_par.to_jsonl());
}

/// Two or three shards on the drift scenario with no cooldown, so
/// shards swap at consecutive watermarks.
fn swapping(duration_us: u64, shards: usize, timeline_window_us: u64) -> (ServeSummary, Timeline) {
    Scenario::try_build(ScenarioConfig {
        duration_us,
        shards,
        workers: 4,
        faults: false,
        thermal_ppm: 1_300_000,
        recalibrate: true,
        recalib_cooldown_us: 1,
        timeline_window_us,
        ..ScenarioConfig::default()
    })
    .expect("swapping scenario builds")
    .run_summary()
}

/// Each shard's `(last generation, last scale)` straight off the log.
fn last_swaps(timeline: &Timeline) -> Vec<(u64, u64)> {
    let mut last = vec![(0, 0); timeline.shard_names.len()];
    for swap in &timeline.swaps {
        last[swap.shard] = (swap.generation, swap.calib_ppm);
    }
    last
}

#[test]
fn the_recalibration_block_does_not_depend_on_the_window() {
    // One 5 s window holds all of a 3 s run, so each shard's swaps share
    // one (window, shard) and one OBS005 alert; 100 ms windows give every
    // swap its own. The block must read the same either way.
    let (wide, wide_timeline) = swapping(3_000_000, 2, 5_000_000);
    let (narrow, narrow_timeline) = swapping(3_000_000, 2, 100_000);
    assert_eq!(wide_timeline.swaps, narrow_timeline.swaps);
    assert_eq!(
        wide_timeline.alert_counts()[AlertCode::Recalibrated.index()],
        2,
        "the wide window folds the swaps into one alert per shard"
    );
    for summary in [&wide, &narrow] {
        assert_eq!(summary.recalibrations, 5);
        assert_eq!(summary.generations, vec![2, 3]);
        assert_eq!(summary.recalib_scale_ppm, vec![994_145, 997_067]);
    }
    let last = last_swaps(&wide_timeline);
    assert_eq!(
        wide.generations,
        last.iter().map(|l| l.0).collect::<Vec<_>>()
    );
    assert_eq!(
        wide.recalib_scale_ppm,
        last.iter().map(|l| l.1).collect::<Vec<_>>()
    );
}

#[test]
fn a_shard_swapped_after_its_last_request_reports_the_swap() {
    // Shard 1 swaps, then routing sends it no further request: its
    // outcomes never carry the new generation, but the swap log does.
    let (summary, timeline) = swapping(300_100, 3, 100_000);
    assert_eq!(summary.recalibrations, 7);
    assert_eq!(summary.recalibrations, timeline.swaps.len() as u64);
    assert_eq!(summary.generations, vec![3, 1, 3]);
    assert_eq!(
        summary.recalib_scale_ppm,
        vec![998_959, 1_012_295, 1_009_112]
    );
    assert_eq!(
        summary.recalibrations,
        summary.generations.iter().sum::<u64>(),
        "every swap bumps exactly one shard's generation by one"
    );
}
