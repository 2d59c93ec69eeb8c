//! Control-loop simulation: reaches, per-frame fusion, and the
//! latency→reliability coupling that motivates the paper's deadline.
//!
//! A slower visual classifier does not crash the loop — it lowers the
//! number of fused predictions gathered before actuation must begin, which
//! degrades decision quality. This module quantifies that chain.

use crate::budget::LoopBudget;
use crate::fusion::{fuse, FusionRule};
use netcut_data::angular_similarity;

/// Outcome of one simulated reach.
#[derive(Debug, Clone)]
pub struct ReachOutcome {
    /// The fused grasp decision.
    pub decision: Vec<f32>,
    /// Angular similarity of the decision to the true distribution.
    pub similarity: f64,
    /// Frames actually fused (limited by the classifier's latency).
    pub frames_used: usize,
    /// `true` if the classifier met the per-frame visual budget.
    pub deadline_met: bool,
}

/// Aggregate over many reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachStats {
    /// Mean decision similarity.
    pub mean_similarity: f64,
    /// Fraction of reaches where the visual deadline was met.
    pub deadline_met_fraction: f64,
    /// Mean frames fused per reach.
    pub mean_frames: f64,
}

/// The control loop: a timing budget plus a fusion rule.
#[derive(Debug, Clone)]
pub struct ControlLoop {
    /// Timing budget of the loop.
    pub budget: LoopBudget,
    /// Rule used to fuse frames into the final decision.
    pub rule: FusionRule,
}

impl ControlLoop {
    /// A loop with the paper budget and average fusion.
    pub fn paper() -> Self {
        ControlLoop {
            budget: LoopBudget::paper(),
            rule: FusionRule::Average,
        }
    }

    /// Simulates one reach: the visual classifier runs at
    /// `visual_latency_ms`, which bounds how many of the available
    /// `frame_estimates` are gathered before actuation; those frames fuse
    /// into the decision.
    ///
    /// # Panics
    ///
    /// Panics if `frame_estimates` is empty.
    pub fn simulate_reach(
        &self,
        frame_estimates: &[Vec<f32>],
        truth: &[f32],
        visual_latency_ms: f64,
    ) -> ReachOutcome {
        assert!(!frame_estimates.is_empty(), "a reach needs frames");
        let achievable = self.budget.decisions_achieved(visual_latency_ms).max(1);
        let frames_used = achievable.min(frame_estimates.len());
        let decision = fuse(&frame_estimates[..frames_used], self.rule);
        let similarity = angular_similarity(&decision, truth);
        let deadline_met = self.budget.sustains(visual_latency_ms);
        if deadline_met {
            netcut_obs::counter_add("hand.deadline_met", 1);
        } else {
            netcut_obs::counter_add("hand.deadline_missed", 1);
        }
        ReachOutcome {
            decision,
            similarity,
            frames_used,
            deadline_met,
        }
    }

    /// Simulates many reaches and aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `reaches` is empty or any reach has no frames.
    pub fn simulate_many(
        &self,
        reaches: &[(Vec<Vec<f32>>, Vec<f32>)],
        visual_latency_ms: f64,
    ) -> ReachStats {
        assert!(!reaches.is_empty(), "no reaches to simulate");
        let mut span = netcut_obs::span("hand.reaches");
        span.field("reaches", reaches.len());
        span.field("visual_latency_ms", visual_latency_ms);
        let mut sim = 0.0;
        let mut met = 0usize;
        let mut frames = 0usize;
        for (estimates, truth) in reaches {
            let outcome = self.simulate_reach(estimates, truth, visual_latency_ms);
            sim += outcome.similarity;
            met += usize::from(outcome.deadline_met);
            frames += outcome.frames_used;
        }
        let n = reaches.len() as f64;
        let stats = ReachStats {
            mean_similarity: sim / n,
            deadline_met_fraction: met as f64 / n,
            mean_frames: frames as f64 / n,
        };
        span.field("deadline_met_fraction", stats.deadline_met_fraction);
        span.field("mean_similarity", stats.mean_similarity);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Noisy frame estimates around a fixed truth.
    fn synthetic_reaches(
        n: usize,
        frames: usize,
        noise: f32,
        seed: u64,
    ) -> Vec<(Vec<Vec<f32>>, Vec<f32>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let raw: Vec<f32> = (0..5).map(|_| rng.gen_range(0.1..1.0f32)).collect();
                let sum: f32 = raw.iter().sum();
                let truth: Vec<f32> = raw.iter().map(|v| v / sum).collect();
                let estimates = (0..frames)
                    .map(|_| {
                        let noisy: Vec<f32> = truth
                            .iter()
                            .map(|&t| (t + rng.gen_range(-noise..noise)).max(1e-3))
                            .collect();
                        let s: f32 = noisy.iter().sum();
                        noisy.into_iter().map(|v| v / s).collect()
                    })
                    .collect();
                (estimates, truth)
            })
            .collect()
    }

    #[test]
    fn fast_classifier_uses_all_frames() {
        let lp = ControlLoop::paper();
        let reaches = synthetic_reaches(10, 8, 0.15, 1);
        let stats = lp.simulate_many(&reaches, 0.4);
        assert_eq!(stats.mean_frames, 8.0);
        assert_eq!(stats.deadline_met_fraction, 1.0);
    }

    #[test]
    fn slow_classifier_loses_frames_and_quality() {
        let lp = ControlLoop::paper();
        let reaches = synthetic_reaches(60, 40, 0.3, 2);
        let fast = lp.simulate_many(&reaches, 0.4);
        let slow = lp.simulate_many(&reaches, 8.0);
        assert!(slow.mean_frames < fast.mean_frames);
        assert_eq!(slow.deadline_met_fraction, 0.0);
        assert!(
            slow.mean_similarity < fast.mean_similarity,
            "fewer fused frames must hurt quality: {} vs {}",
            slow.mean_similarity,
            fast.mean_similarity
        );
    }

    #[test]
    fn more_frames_denoise_the_decision() {
        let lp = ControlLoop::paper();
        let reaches = synthetic_reaches(80, 20, 0.3, 3);
        let one: Vec<(Vec<Vec<f32>>, Vec<f32>)> = reaches
            .iter()
            .map(|(e, t)| (e[..1].to_vec(), t.clone()))
            .collect();
        let single = lp.simulate_many(&one, 0.4);
        let many = lp.simulate_many(&reaches, 0.4);
        assert!(many.mean_similarity > single.mean_similarity);
    }

    #[test]
    #[should_panic(expected = "a reach needs frames")]
    fn empty_reach_panics() {
        ControlLoop::paper().simulate_reach(&[], &[1.0, 0.0], 0.5);
    }
}
