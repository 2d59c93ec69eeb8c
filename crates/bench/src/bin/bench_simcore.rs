//! bench_simcore — the CI simulator-throughput gate.
//!
//! Times the serving event loop (`Scenario::run_full`, scenario build
//! excluded) over the reference matrix plus the 10⁶-request `stress_1m`
//! leg and reports requests-simulated-per-second per leg. Two modes:
//!
//! * `bench_simcore --bless` — measure and (re)write the committed
//!   baseline `results/BENCH_simcore.json`; run it on an intentional
//!   performance change and commit the result. The committed baseline was
//!   measured on a 2-vCPU development VM (its `git` field names the tree),
//!   not on the machine class CI uses.
//! * `bench_simcore` (CI mode) — measure, write the fresh document to
//!   `target/BENCH_simcore.json` for artifact upload, compare it with the
//!   committed baseline through [`netcut_bench::gate`], and exit non-zero
//!   on a `configs` drift (leg set, request counts, pool shapes: a
//!   scenario change must ship with a re-blessed baseline), on an `rps`
//!   row of the gate's budget table falling past its tolerance, or on
//!   [`simcore::acceptance_violations`]: the leg set or the stress leg's
//!   ≥ 10⁶-request scale drifted, or the closed `drift` leg's fastest
//!   `run_full` took more than [`simcore::CLOSED_OPEN_MAX_RATIO`] times
//!   the open `drift_norecal` leg's, timed in alternation.

use netcut_bench::gate::{self, Gate};
use netcut_bench::simcore;
use std::process::ExitCode;

fn main() -> ExitCode {
    let bless = std::env::args().any(|a| a == "--bless");

    println!(
        "bench_simcore: timing the event loop ({})...",
        simcore::SCENARIO
    );
    let legs = simcore::run();
    print!("{}", simcore::table(&legs));
    let fresh = simcore::to_json(&legs, &netcut_bench::git_describe());
    let mut gate = Gate::new("bench_simcore");
    gate.write_fresh(gate::SIMCORE, &fresh);

    let closed_open = simcore::closed_open();
    println!(
        "bench_simcore: closed/open {:.2}x (drift {:.2} ms, drift_norecal {:.2} ms, \
         fastest of alternating runs; budget {}x)",
        closed_open.ratio(),
        closed_open.closed_ms,
        closed_open.open_ms,
        simcore::CLOSED_OPEN_MAX_RATIO
    );
    let violations = simcore::acceptance_violations(&legs, &closed_open);

    if bless {
        if violations.is_empty() {
            let path = gate::results_path(gate::SIMCORE);
            gate::write(&path, &fresh);
            println!("bench_simcore: baseline blessed at {}", path.display());
            return ExitCode::SUCCESS;
        }
        for v in &violations {
            eprintln!("bench_simcore: REFUSING TO BLESS: {v}");
        }
        return ExitCode::FAILURE;
    }

    gate.invariants(violations);
    gate.compare(gate::SIMCORE, &fresh);
    gate.finish()
}
