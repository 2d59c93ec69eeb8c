//! Profiler-based estimation (§V-B-1): one per-layer latency table per
//! unmodified source network, and the ratio formula
//!
//! ```text
//! Latency(TRN_n) = Latency(Net₀) · (1 − Σ_removed Latency(Layerᵢ)
//!                                     / Σ_all Latency(Layerᵢ))
//! ```
//!
//! where the sums run over backbone layers (classification layers
//! excluded). The ratio form is used because per-layer sums exceed the true
//! end-to-end latency (event-recording overhead), so absolute subtraction
//! would be biased.

use crate::LatencyEstimator;
use netcut_graph::{HeadSpec, Network, Node, NodeId};
use netcut_obs as obs;
use netcut_sim::LatencyTable;
use std::collections::{HashMap, HashSet};

struct FamilyProfile {
    source: Network,
    table: LatencyTable,
}

/// The profiler-based latency estimator: holds one latency table per source
/// network (7 tables for the paper's study — "profiler-based estimation
/// only needs to construct 7 tables to estimate the performance of any
/// TRN").
///
/// # Example
///
/// ```
/// use netcut_estimate::{LatencyEstimator, ProfilerEstimator};
/// use netcut_graph::{zoo, HeadSpec};
/// use netcut_sim::{DeviceModel, Precision, Session};
///
/// let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
/// let source = zoo::mobilenet_v1(0.5);
/// let estimator = ProfilerEstimator::profile_with(&session, &[source.clone()], 42);
/// let trn = source.cut_blocks(3)?.with_head(&HeadSpec::default());
/// let predicted = estimator.estimate_ms(&trn);
/// assert!(predicted > 0.0);
/// # Ok::<(), netcut_graph::GraphError>(())
/// ```
pub struct ProfilerEstimator {
    profiles: HashMap<String, FamilyProfile>,
}

impl ProfilerEstimator {
    /// Profiles each source network once through `provider`, building the
    /// per-family layer tables. A [`Session`](netcut_sim::Session)
    /// profiles every time; a memoizing provider (the evaluation context
    /// in `netcut::eval`) reuses tables it already recorded.
    ///
    /// Algorithm 1 takes the *trained* networks as input, i.e. the
    /// transfer-adapted models with the application head already attached —
    /// so each source is profiled as `backbone + default transfer head`,
    /// which is also the head every TRN carries. Sources already carrying a
    /// transfer head are profiled as-is.
    pub fn profile_with<P: crate::ProfileProvider>(
        provider: &P,
        sources: &[Network],
        seed: u64,
    ) -> Self {
        let mut span = obs::span("estimate.profile");
        span.field("families", sources.len());
        let head = HeadSpec::default();
        let profiles = sources
            .iter()
            .map(|net| {
                let mut fit_span = obs::span("estimate.fit");
                if fit_span.is_recording() {
                    fit_span.field("family", net.base_name());
                }
                let mut adapted = net.backbone().with_head(&head);
                adapted.rename(net.name());
                let table = provider.profile_table(&adapted, seed);
                fit_span.field("layers", table.layers().len());
                fit_span.field("end_to_end_ms", table.end_to_end_ms());
                (
                    net.base_name().to_owned(),
                    FamilyProfile {
                        source: adapted,
                        table,
                    },
                )
            })
            .collect();
        ProfilerEstimator { profiles }
    }

    /// Families this estimator can predict for.
    pub fn families(&self) -> impl Iterator<Item = &str> {
        self.profiles.keys().map(String::as_str)
    }

    /// The recorded table for a family, if profiled.
    pub fn table(&self, family: &str) -> Option<&LatencyTable> {
        self.profiles.get(family).map(|p| &p.table)
    }

    fn profile(&self, family: &str) -> &FamilyProfile {
        self.profiles
            .get(family)
            .unwrap_or_else(|| panic!("family `{family}` was not profiled"))
    }
}

impl FamilyProfile {
    /// The ratio formula for a TRN of this family that keeps the profiled
    /// source's backbone nodes `kept` selects. `candidate` names the TRN
    /// in the `estimate.predict` instant and runs only when a sink is
    /// installed.
    fn predict(&self, kept: impl Fn(NodeId) -> bool, candidate: impl FnOnce() -> String) -> f64 {
        let source = &self.source;
        // Head (classification) layers are excluded from both sums per the
        // paper; treat them as "not removed" so they never count.
        let removed = |id: NodeId| !source.is_head_node(id) && !kept(id);
        let total: f64 = self
            .table
            .layers()
            .iter()
            .filter(|l| l.members.iter().all(|&m| !source.is_head_node(m)))
            .map(|l| l.latency_ms)
            .sum();
        let removed_ms = self.table.removed_time_ms(&removed);
        let ratio = if total > 0.0 { removed_ms / total } else { 0.0 };
        let predicted = self.table.end_to_end_ms() * (1.0 - ratio);
        obs::counter_add("estimate.predictions", 1);
        if obs::enabled() {
            obs::instant(
                "estimate.predict",
                &[
                    ("candidate", candidate().into()),
                    ("family", source.base_name().into()),
                    ("predicted_ms", predicted.into()),
                    ("removed_ratio", ratio.into()),
                ],
            );
        }
        predicted
    }
}

impl LatencyEstimator for ProfilerEstimator {
    fn estimate_ms(&self, trn: &Network) -> f64 {
        let profile = self.profile(trn.base_name());
        // Kept nodes are identified by name: cutting preserves names.
        let kept: HashSet<&str> = trn.nodes().iter().map(Node::name).collect();
        profile.predict(
            |id| kept.contains(profile.source.node(id).name()),
            || trn.name().to_owned(),
        )
    }

    /// Reads the kept set off the profiled source instead of building the
    /// TRN. The profiled source carries `source`'s backbone blocks, and a
    /// blockwise cut keeps exactly the ancestors of its last kept block's
    /// output, so the mask selects the nodes [`estimate_ms`] finds by name
    /// and the shared ratio returns the same bits. `head` is not read:
    /// head layers are excluded from both sums.
    ///
    /// [`estimate_ms`]: LatencyEstimator::estimate_ms
    fn estimate_cut_ms(&self, source: &Network, cutpoint: usize, _head: &HeadSpec) -> f64 {
        let family = source.base_name();
        let profile = self.profile(family);
        let blocks = profile.source.blocks();
        let last_kept = blocks
            .len()
            .checked_sub(cutpoint + 1)
            .expect("cutpoint below block count");
        let kept = profile.source.ancestor_mask(blocks[last_kept].output());
        profile.predict(|id| kept[id.index()], || format!("{family}/cut{cutpoint}"))
    }

    fn name(&self) -> &str {
        "profiler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::zoo;
    use netcut_sim::{DeviceModel, Precision, Session};

    fn session() -> Session {
        Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
    }

    fn estimator() -> ProfilerEstimator {
        ProfilerEstimator::profile_with(&session(), &zoo::paper_networks(), 3)
    }

    #[test]
    fn uncut_estimate_matches_source_measurement() {
        let est = estimator();
        let net = zoo::mobilenet_v2(1.0);
        let full = net.cut_blocks(0).unwrap().with_head(&HeadSpec::default());
        let predicted = est.estimate_ms(&full);
        let measured = est.table("mobilenet_v2_1.00").unwrap().end_to_end_ms();
        assert!((predicted - measured).abs() / measured < 1e-9);
    }

    #[test]
    fn estimates_decrease_with_cut_depth() {
        let est = estimator();
        let net = zoo::resnet50();
        let head = HeadSpec::default();
        let mut prev = f64::INFINITY;
        for k in 0..net.num_blocks() {
            let trn = net.cut_blocks(k).unwrap().with_head(&head);
            let e = est.estimate_ms(&trn);
            assert!(e < prev);
            prev = e;
        }
    }

    #[test]
    fn estimate_tracks_ground_truth_within_ten_percent() {
        // The paper reports 3.5 % mean relative error; allow headroom per
        // individual TRN.
        let est = estimator();
        let s = session();
        let head = HeadSpec::default();
        for net in zoo::paper_networks() {
            for k in [1, net.num_blocks() / 2] {
                let trn = net.cut_blocks(k).unwrap().with_head(&head);
                let predicted = est.estimate_ms(&trn);
                let truth = s.measure(&trn, 9).mean_ms;
                let rel = (predicted - truth).abs() / truth;
                assert!(
                    rel < 0.10,
                    "{}: pred {predicted:.3} vs truth {truth:.3} ({:.1} %)",
                    trn.name(),
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn per_cut_estimate_is_the_built_trns_bit_for_bit() {
        let nets = zoo::extended_networks();
        let est = ProfilerEstimator::profile_with(&session(), &nets, 3);
        let narrow = HeadSpec {
            hidden: vec![64],
            classes: 3,
        };
        for head in [HeadSpec::default(), narrow] {
            for net in &nets {
                for k in 0..net.num_blocks() {
                    let trn = net.cut_blocks(k).unwrap().with_head(&head);
                    assert_eq!(
                        est.estimate_cut_ms(net, k, &head).to_bits(),
                        est.estimate_ms(&trn).to_bits(),
                        "{} under {head:?}",
                        trn.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn unknown_family_panics() {
        let est = ProfilerEstimator::profile_with(&session(), &[zoo::resnet50()], 1);
        let other = zoo::mobilenet_v1(0.5);
        let trn = other.cut_blocks(1).unwrap();
        est.estimate_ms(&trn);
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn unknown_family_panics_per_cut() {
        let est = ProfilerEstimator::profile_with(&session(), &[zoo::resnet50()], 1);
        est.estimate_cut_ms(&zoo::mobilenet_v1(0.5), 1, &HeadSpec::default());
    }
}
