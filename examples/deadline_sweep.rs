//! Deadline sweep: what NetCut selects as the application deadline varies
//! — an extension beyond the paper's single 0.9 ms operating point.
//!
//! ```text
//! cargo run --release --example deadline_sweep
//! ```
//!
//! Tight deadlines force deep cuts of the small MobileNets; moderate
//! deadlines are won by trimmed ResNets (the paper's case); loose deadlines
//! let the big networks run uncut.

use netcut::eval::EvalContext;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::zoo;
use netcut_sim::{DeviceModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

fn main() {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    // One context for the whole sweep: a TRN proposed at several deadlines
    // is measured and retrained once.
    let ctx = EvalContext::new(&session, &retrainer);
    let sources = zoo::paper_networks();
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 21);
    let netcut = NetCut::new(&estimator, &retrainer);
    println!("deadline_ms  selected network                accuracy  measured_ms  retrain_h");
    for deadline in [0.2, 0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.2, 3.0, 4.5] {
        let outcome = netcut.run_with(&sources, deadline, &ctx);
        match outcome.selected() {
            Some(p) => println!(
                "{deadline:10.1}   {:30}  {:.3}     {:8.3}    {:6.2}",
                p.name, p.accuracy, p.latency_ms, outcome.exploration_hours
            ),
            None => println!("{deadline:10.1}   (no real-time TRN found)"),
        }
    }
}
