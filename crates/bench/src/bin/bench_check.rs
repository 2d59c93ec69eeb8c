//! bench_check — the CI bench-regression gate for the serving runtime.
//!
//! Re-runs the `bench_serve` reference matrix and writes the fresh
//! documents to `target/BENCH_serve.json` and `target/BENCH_timeline.jsonl`
//! first, so CI can upload them even on failure: they are the files to
//! inspect and, for an intentional change, to commit. It then compares
//! them with the committed `results/` files through [`netcut_bench::gate`]
//! and exits non-zero on:
//!
//! * **Determinism drift** — `configs` (every integer-only summary at the
//!   same seed and flags) differs at all. The simulation is bit-exact by
//!   construction, so a difference is a behaviour change that must ship
//!   with regenerated results, or a nondeterminism bug.
//! * **Budget regressions** — a `BENCH_serve.json` row of the gate's
//!   budget table moves the worse way past its tolerance: the
//!   `batch_shard` miss rate and accuracy-weighted goodput, and the closed
//!   loop's `drift` accuracy-weighted goodput. They are redundant while
//!   `configs` must match exactly, but they document the tolerances.
//! * **Acceptance violations** — [`serve_matrix::acceptance_violations`].
//! * **Timeline drift** — the gate's timeline rule fails.
//! * **A missing committed document.**

use netcut_bench::gate::{self, Gate};
use netcut_bench::serve_matrix;
use std::process::ExitCode;

fn main() -> ExitCode {
    println!(
        "bench_check: re-running the reference matrix ({})...",
        serve_matrix::SCENARIO
    );
    let legs = serve_matrix::run();
    let fresh = serve_matrix::to_json(&legs, &netcut_bench::git_describe());
    let fresh_timeline = serve_matrix::timeline_leg(&legs).timeline.to_jsonl();

    let mut gate = Gate::new("bench_check");
    gate.write_fresh(gate::SERVE, &fresh);
    gate.write_fresh(gate::TIMELINE, &fresh_timeline);
    gate.compare(gate::SERVE, &fresh);
    gate.invariants(serve_matrix::acceptance_violations(&legs));
    gate.compare_timeline(&fresh_timeline);
    gate.finish()
}
