//! bench_simcore — the CI simulator-throughput gate.
//!
//! Times the serving event loop (`Scenario::run_full`, scenario build
//! excluded) over the reference matrix plus the 10⁶-request `stress_1m`
//! leg and reports requests-simulated-per-second per leg. Two modes:
//!
//! * `bench_simcore --bless` — measure and (re)write the committed
//!   baseline `results/BENCH_simcore.json`. Run this on an intentional
//!   performance change, on the machine class CI uses, and commit the
//!   result.
//! * `bench_simcore` (CI mode) — measure a fresh run, always write it to
//!   `target/BENCH_simcore.json` for artifact upload, and exit non-zero
//!   on:
//!   * **Shape drift** — the deterministic `configs` object (leg set,
//!     request counts, pool shapes) differs from the committed file. The
//!     simulated request stream is bit-exact by construction, so any
//!     difference is a real scenario change that must ship with a
//!     re-blessed baseline.
//!   * **Throughput regression** — any leg's fresh requests-per-second
//!     falls more than [`simcore::RPS_REGRESSION_PPM`] (10%) below the
//!     committed value. Wall-clock noise is real; the 10% budget plus the
//!     multi-iteration sampling in [`simcore::run`] is sized so only a
//!     genuine event-loop pessimization trips the gate.
//!   * **Acceptance violations** — the leg set or the stress leg's
//!     ≥ 10⁶-request scale drifted, or the closed-loop `drift` leg's
//!     fastest `run_full` took more than
//!     [`simcore::CLOSED_OPEN_MAX_RATIO`] times the open `drift_norecal`
//!     leg's, timed in alternation ([`simcore::acceptance_violations`]).

use netcut_bench::simcore;
use std::path::PathBuf;
use std::process::ExitCode;

/// Extracts one leg's value from a section of a parsed `BENCH_simcore.json`.
fn leg_u64(doc: &serde_json::Value, section: &str, leg: &str) -> Option<u64> {
    doc.get(section)?.get(leg)?.as_u64()
}

/// The deterministic part of a document: the `configs` object, reserialized
/// canonically so formatting differences cannot mask or fake a drift.
fn deterministic_part(doc: &serde_json::Value) -> Option<String> {
    serde_json::to_string(doc.get("configs")?).ok()
}

fn main() -> ExitCode {
    let bless = std::env::args().any(|a| a == "--bless");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed_path = root.join("results/BENCH_simcore.json");
    let fresh_path = root.join("target/BENCH_simcore.json");

    println!(
        "bench_simcore: timing the event loop ({})...",
        simcore::SCENARIO
    );
    let legs = simcore::run();
    print!("{}", simcore::table(&legs));
    let fresh_text = simcore::to_json(&legs, &netcut_bench::git_describe());
    if let Some(dir) = fresh_path.parent() {
        std::fs::create_dir_all(dir).expect("create target dir");
    }
    std::fs::write(&fresh_path, &fresh_text).expect("write fresh BENCH_simcore.json");
    println!(
        "bench_simcore: fresh run written to {}",
        fresh_path.display()
    );

    let closed_open = simcore::closed_open();
    println!(
        "bench_simcore: closed/open {:.2}x (drift {:.2} ms, drift_norecal {:.2} ms, \
         fastest of alternating runs; budget {}x)",
        closed_open.ratio(),
        closed_open.closed_ms,
        closed_open.open_ms,
        simcore::CLOSED_OPEN_MAX_RATIO
    );
    let mut failures: Vec<String> = simcore::acceptance_violations(&legs, &closed_open);

    if bless {
        if failures.is_empty() {
            std::fs::write(&committed_path, &fresh_text).expect("write blessed baseline");
            println!(
                "bench_simcore: baseline blessed at {}",
                committed_path.display()
            );
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("bench_simcore: REFUSING TO BLESS: {f}");
        }
        return ExitCode::FAILURE;
    }

    let committed: serde_json::Value = match std::fs::read_to_string(&committed_path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "bench_simcore: cannot load committed {}: {e} (run with --bless to create it)",
                committed_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let fresh: serde_json::Value =
        serde_json::from_str(&fresh_text).expect("fresh document is valid JSON");

    match (deterministic_part(&committed), deterministic_part(&fresh)) {
        (Some(a), Some(b)) if a == b => {
            println!("bench_simcore: PASS deterministic configs match the committed baseline");
        }
        (Some(_), Some(_)) => failures.push(
            "deterministic `configs` drifted from the committed baseline — a scenario \
             change must ship with a re-blessed results/BENCH_simcore.json"
                .into(),
        ),
        _ => failures.push("committed baseline has no `configs` object".into()),
    }

    for leg in &legs {
        let Some(base_rps) = leg_u64(&committed, "rps", leg.key) else {
            failures.push(format!("committed baseline has no rps for `{}`", leg.key));
            continue;
        };
        let floor = base_rps - base_rps * simcore::RPS_REGRESSION_PPM / 1_000_000;
        if leg.rps < floor {
            failures.push(format!(
                "leg `{}` regressed: {} req/s vs committed {} req/s (floor {})",
                leg.key, leg.rps, base_rps, floor
            ));
        } else {
            println!(
                "bench_simcore: PASS {} {} req/s (committed {}, floor {})",
                leg.key, leg.rps, base_rps, floor
            );
        }
    }

    if failures.is_empty() {
        println!("bench_simcore: all gates green");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_simcore: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
