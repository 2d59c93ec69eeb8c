//! A recalibrator may decline a swap by returning `None`. The trigger
//! still counts and the shard's cooldown still arms, so a shard whose
//! swaps are always declined re-triggers at most once per cooldown — not
//! at every watermark its drift stays above the threshold. Nothing else
//! moves: with every swap declined, the closed-loop run is the open-loop
//! run. Kept in its own integration binary: the metrics registry is
//! process-global.

use netcut_repro::obs;
use netcut_repro::serve::{reference_matrix, Recalibrator, Scenario, TrnLadder};

/// A recalibrator that declines every swap.
struct AlwaysDecline;

impl Recalibrator for AlwaysDecline {
    fn recalibrate(&self, _shard: usize, _generation: u64, _calib_ppm: u64) -> Option<TrnLadder> {
        None
    }
}

#[test]
fn a_declined_swap_arms_the_cooldown() {
    let (_, cfg) = reference_matrix()
        .into_iter()
        .find(|(key, _)| *key == "drift")
        .expect("the reference matrix has a drift leg");
    let scenario = Scenario::build(cfg);
    let server = scenario.server();
    let tcfg = scenario.timeline_config();
    let rcfg = scenario.recalib_config();

    obs::reset_metrics();
    let (closed, closed_tl) =
        server.run_recalibrating(&scenario.requests, &tcfg, &rcfg, &AlwaysDecline);
    let snapshot = obs::snapshot();
    let (open, open_tl) = server.run_with_timeline(&scenario.requests, &tcfg);

    assert_eq!(snapshot.counter("recalib.swaps"), 0);
    assert_eq!(closed, open, "a declined swap changed an outcome");
    assert_eq!(closed_tl.to_jsonl(), open_tl.to_jsonl());

    let triggers = snapshot.counter("recalib.triggers");
    let bound = scenario.config().duration_us / rcfg.cooldown_us + 1;
    assert!(
        triggers >= 1,
        "the drift leg never triggered the controller"
    );
    assert!(
        triggers <= bound,
        "{triggers} triggers in {} µs at a {} µs cooldown (at most {bound})",
        scenario.config().duration_us,
        rcfg.cooldown_us
    );
}
