//! Battery-budget analysis (extension beyond the paper): the prosthetic
//! hand runs on a battery, so the visual classifier's energy — not just
//! its latency — bounds a day of use. This example prices every NetCut
//! proposal in grasps-per-charge and shows the three-way trade-off
//! (accuracy / latency / energy) the deadline-only view hides.
//!
//! ```text
//! cargo run --release --example energy_budget
//! ```

use netcut::eval::EvalContext;
use netcut::netcut::NetCut;
use netcut_estimate::ProfilerEstimator;
use netcut_graph::{zoo, HeadSpec};
use netcut_hand::LoopBudget;
use netcut_sim::{DeviceModel, EnergyModel, Precision, Session};
use netcut_train::SurrogateRetrainer;

fn main() {
    let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
    let retrainer = SurrogateRetrainer::paper();
    let ctx = EvalContext::new(&session, &retrainer);
    let sources = zoo::paper_networks();
    let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 42);
    let energy = EnergyModel::jetson_xavier();
    let budget = LoopBudget::paper();
    // A prosthetic-scale battery: 3.7 V × 2000 mAh ≈ 26.6 kJ, of which the
    // vision subsystem may spend a quarter.
    let vision_budget_j = 26_640.0 * 0.25;

    let outcome =
        NetCut::new(&estimator, &retrainer).run_with(&sources, budget.visual_budget_ms(), &ctx);
    println!(
        "per-proposal energy at the {:.1} ms deadline (vision battery share: {:.1} kJ):",
        budget.visual_budget_ms(),
        vision_budget_j / 1e3
    );
    println!(
        "{:28} {:>8} {:>9} {:>13} {:>15}",
        "proposal", "ms", "accuracy", "mJ/inference", "grasps/charge"
    );
    let mut best_grasps = 0.0f64;
    let mut selected_grasps = 0.0f64;
    let selected = outcome.selected().expect("selection exists").name.clone();
    for p in &outcome.proposals {
        let net = sources
            .iter()
            .find(|s| s.name() == p.family)
            .expect("family exists")
            .cut_blocks(p.cutpoint)
            .expect("valid cutpoint")
            .with_head(&HeadSpec::default());
        let mj = energy.network_energy_mj(&net, session.device(), session.precision());
        // One grasp = one reach = `decisions_required` fused inferences.
        let grasp_j = mj * budget.decisions_required as f64 / 1e3;
        let grasps = vision_budget_j / grasp_j;
        println!(
            "{:28} {:>8.3} {:>9.3} {:>13.2} {:>15.0}",
            p.name, p.latency_ms, p.accuracy, mj, grasps
        );
        best_grasps = best_grasps.max(grasps);
        if p.name == selected {
            selected_grasps = grasps;
        }
    }
    println!();
    println!(
        "the accuracy-selected {selected} delivers {selected_grasps:.0} grasps per \
         charge; the most frugal proposal would deliver {best_grasps:.0}. Filling \
         the latency slack buys accuracy at roughly {:.0}x the energy — a second \
         axis a deployed NetCut would expose to the user.",
        best_grasps / selected_grasps
    );
}
