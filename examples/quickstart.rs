//! Quickstart: run NetCut end to end on the paper's seven networks.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the architecture zoo, profiles each network once on the simulated
//! Jetson Xavier, and runs Algorithm 1 at the robotic hand's 0.9 ms
//! deadline, printing the proposed TRN per family and the final selection.

use netcut::eval::EvalContext;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::zoo;
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

fn main() {
    let deadline_ms = 0.9;
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    // Every measurement, profile and retrain goes through one memoizing
    // context.
    let ctx = EvalContext::new(&session, &retrainer);
    let sources = zoo::paper_networks();
    println!("source networks:");
    for net in &sources {
        let m = ctx.measure(net, 42);
        println!(
            "  {:22} {:3} blocks  {:6.2} MFLOPs  {:6.3} ms",
            net.name(),
            net.num_blocks(),
            net.stats().total_flops as f64 / 1e6,
            m.mean_ms
        );
    }

    // One profiling pass per family is all the estimator needs.
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 42);
    let outcome = NetCut::new(&estimator, &retrainer).run_with(&sources, deadline_ms, &ctx);

    println!();
    println!("NetCut proposals at {deadline_ms} ms:");
    for p in &outcome.proposals {
        println!(
            "  {:28} est {:.3} ms | measured {:.3} ms | accuracy {:.3}",
            p.name,
            p.estimated_ms.unwrap_or(f64::NAN),
            p.latency_ms,
            p.accuracy
        );
    }
    match outcome.selected() {
        Some(best) => println!(
            "\nselected: {} (accuracy {:.3}, {:.2} h of retraining across all proposals)",
            best.name, best.accuracy, outcome.exploration_hours
        ),
        None => println!("\nno family could be trimmed under the deadline"),
    }
}
