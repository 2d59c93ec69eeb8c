//! Calibrated transfer-accuracy surrogate.
//!
//! Accuracy here is the robotic-hand application's metric: mean angular
//! similarity between the predicted and labelled grasp distributions after
//! fine-tuning and INT8 deployment. The surrogate maps a TRN to accuracy
//! through its *structure* (fraction of source backbone layers removed),
//! with per-family retention curves calibrated to the paper's Fig. 5:
//!
//! * DenseNet-121 / InceptionV3: negligible loss past 100 removed layers,
//!   smooth drop afterwards;
//! * ResNet-50: gentle degradation (its TRNs "fill the gap" in Fig. 6);
//! * MobileNetV1/V2: rapid degradation — MobileNet features are the least
//!   transferable, MobileNetV2 worst of all (§IV-B-1).

use netcut_graph::{Fnv1a, Network};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Transfer behaviour of one source-architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferProfile {
    /// Deployed (post-INT8) angular-similarity accuracy of the *uncut*
    /// network after full fine-tuning.
    pub base_accuracy: f64,
    /// Coefficient of the removal penalty `c · f^p`.
    pub drop_coeff: f64,
    /// Exponent of the removal penalty (higher = flatter plateau).
    pub drop_exponent: f64,
    /// Weighted backbone layer count of the uncut source network.
    pub source_layers: usize,
}

impl TransferProfile {
    /// Accuracy after removing the given fraction `f ∈ [0, 1]` of backbone
    /// layers (before noise).
    pub fn accuracy_at(&self, fraction_removed: f64) -> f64 {
        let f = fraction_removed.clamp(0.0, 1.0);
        (self.base_accuracy - self.drop_coeff * f.powf(self.drop_exponent)).max(0.2)
    }
}

/// The surrogate accuracy model over all known families.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct TransferModel {
    profiles: HashMap<String, TransferProfile>,
    noise_sigma: f64,
    seed: u64,
}

impl TransferModel {
    /// The calibration used throughout the reproduction, matching the
    /// paper's seven networks.
    ///
    /// Base accuracies follow Fig. 1 (MobileNetV1 0.5 at 0.81 under the
    /// 0.9 ms deadline); MobileNetV2 carries the per-tensor INT8
    /// quantization penalty of Krishnamoorthi 2018 (the paper's \[20\]).
    /// Each row's last column is the source network's
    /// [`Network::weighted_layer_count`], written out so that building the
    /// model builds no network; a test pins every value to the zoo.
    pub fn paper() -> Self {
        let mut profiles = HashMap::new();
        let mut add = |name: &str, base: f64, c: f64, p: f64, source_layers: usize| {
            profiles.insert(
                name.to_owned(),
                TransferProfile {
                    base_accuracy: base,
                    drop_coeff: c,
                    drop_exponent: p,
                    source_layers,
                },
            );
        };
        add("mobilenet_v1_0.25", 0.723, 0.30, 1.6, 27);
        add("mobilenet_v1_0.50", 0.810, 0.25, 1.5, 27);
        add("mobilenet_v2_1.00", 0.800, 0.48, 1.4, 52);
        add("mobilenet_v2_1.40", 0.845, 0.48, 1.4, 52);
        add("inception_v3", 0.875, 0.38, 7.0, 94);
        add("resnet50", 0.870, 0.32, 5.0, 53);
        add("densenet121", 0.880, 0.38, 7.0, 120);
        // Extended-zoo families (not in the paper): VGG transfers well but
        // is shallow per block; AlexNet's few layers are all fairly
        // general; SqueezeNet behaves like the compact MobileNets.
        add("vgg16", 0.855, 0.40, 3.0, 13);
        add("alexnet", 0.790, 0.35, 2.0, 5);
        add("squeezenet", 0.775, 0.40, 1.6, 25);
        TransferModel {
            profiles,
            noise_sigma: 0.004,
            seed: 0x5eed,
        }
    }

    /// Builds a model from explicit profiles (for tests and ablations).
    pub fn from_profiles(
        profiles: HashMap<String, TransferProfile>,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        TransferModel {
            profiles,
            noise_sigma,
            seed,
        }
    }

    /// The profile for a family, if known.
    pub fn profile(&self, family: &str) -> Option<&TransferProfile> {
        self.profiles.get(family)
    }

    /// Known family names.
    pub fn families(&self) -> impl Iterator<Item = &str> {
        self.profiles.keys().map(String::as_str)
    }

    /// Fraction of the source backbone's weighted layers that `trn` has
    /// removed (0 for the uncut network).
    ///
    /// # Panics
    ///
    /// Panics if the TRN's family (its [`Network::base_name`]) is unknown.
    pub fn fraction_removed(&self, trn: &Network) -> f64 {
        let profile = self
            .profiles
            .get(trn.base_name())
            .unwrap_or_else(|| panic!("unknown family `{}`", trn.base_name()));
        let kept = trn.weighted_layer_count();
        let total = profile.source_layers;
        (1.0 - kept as f64 / total as f64).clamp(0.0, 1.0)
    }

    /// Deployed accuracy of a fine-tuned TRN (deterministic per network
    /// name: retraining the same TRN twice gives the same result).
    ///
    /// # Panics
    ///
    /// Panics if the TRN's family is unknown.
    pub fn accuracy(&self, trn: &Network) -> f64 {
        let profile = self.profiles[trn.base_name()];
        let f = self.fraction_removed(trn);
        let noiseless = profile.accuracy_at(f);
        (noiseless + self.noise(trn.name())).clamp(0.2, 0.98)
    }

    /// Deterministic pseudo-Gaussian retraining noise derived from the
    /// network name.
    fn noise(&self, name: &str) -> f64 {
        let mut h = Fnv1a::seeded(self.seed);
        h.bytes(name.as_bytes());
        // Two xorshift rounds, then map to approx N(0, sigma).
        let mut x = h.finish() | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u1 = (x >> 11) as f64 / (1u64 << 53) as f64;
        let mut y = x.wrapping_mul(0x2545F4914F6CDD1D);
        y ^= y >> 33;
        let u2 = (y >> 11) as f64 / (1u64 << 53) as f64;
        let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        z * self.noise_sigma
    }
}

/// Accuracy surrogate for *width pruning* of a MobileNetV1-style chain —
/// the search space of NetAdapt-like filter pruning (the paper's §II
/// comparison point). Each block has a sensitivity; narrowing block `i` to
/// relative width `w` costs `sensitivity[i] · (1 − w)^1.5`.
#[derive(Debug, Clone)]
pub struct WidthPruningModel {
    base_accuracy: f64,
    sensitivities: Vec<f64>,
}

impl WidthPruningModel {
    /// Calibrated for MobileNetV1 (0.5): halving every block's width must
    /// land at MobileNetV1 (0.25)'s accuracy (0.723), with early blocks
    /// more sensitive than late ones (matching the transferability
    /// gradient).
    pub fn mobilenet_v1_05() -> Self {
        let blocks = 13;
        // Linear ramp, early > late, normalized so Σ s_i · 0.5^1.5 = 0.087.
        let raw: Vec<f64> = (0..blocks)
            .map(|i| 2.0 - 1.5 * i as f64 / (blocks - 1) as f64)
            .collect();
        let raw_sum: f64 = raw.iter().sum();
        let target = (0.810 - 0.723) / 0.5f64.powf(1.5);
        let sensitivities = raw.iter().map(|r| r / raw_sum * target).collect();
        WidthPruningModel {
            base_accuracy: 0.810,
            sensitivities,
        }
    }

    /// Number of prunable blocks.
    pub fn blocks(&self) -> usize {
        self.sensitivities.len()
    }

    /// Accuracy after fine-tuning a network whose block `i` keeps relative
    /// width `widths[i]` (1.0 = unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `widths` does not match the block count.
    pub fn accuracy(&self, widths: &[f64]) -> f64 {
        assert_eq!(widths.len(), self.sensitivities.len(), "width arity");
        let drop: f64 = widths
            .iter()
            .zip(&self.sensitivities)
            .map(|(&w, &s)| s * (1.0 - w.clamp(0.0, 1.0)).powf(1.5))
            .sum();
        (self.base_accuracy - drop).max(0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::{zoo, HeadSpec};

    fn model() -> TransferModel {
        TransferModel::paper()
    }

    #[test]
    fn source_layers_match_the_zoo() {
        let m = model();
        let nets = zoo::extended_networks();
        assert_eq!(m.families().count(), nets.len());
        for net in &nets {
            let profile = m
                .profile(net.name())
                .unwrap_or_else(|| panic!("no profile for `{}`", net.name()));
            assert_eq!(
                profile.source_layers,
                net.weighted_layer_count(),
                "{}",
                net.name()
            );
        }
    }

    #[test]
    fn width_model_interpolates_the_anchors() {
        let m = WidthPruningModel::mobilenet_v1_05();
        assert!((m.accuracy(&[1.0; 13]) - 0.810).abs() < 1e-9);
        assert!((m.accuracy(&[0.5; 13]) - 0.723).abs() < 1e-9);
    }

    #[test]
    fn width_model_prefers_pruning_late_blocks() {
        let m = WidthPruningModel::mobilenet_v1_05();
        let mut early = [1.0; 13];
        early[0] = 0.5;
        let mut late = [1.0; 13];
        late[12] = 0.5;
        assert!(m.accuracy(&late) > m.accuracy(&early));
    }

    #[test]
    fn base_accuracies_match_figure_1() {
        let m = model();
        for net in zoo::paper_networks() {
            let full = net.cut_blocks(0).unwrap().with_head(&HeadSpec::default());
            let acc = m.accuracy(&full);
            let base = m.profile(net.name()).unwrap().base_accuracy;
            assert!(
                (acc - base).abs() < 0.02,
                "{}: {acc} vs base {base}",
                net.name()
            );
        }
        // MobileNetV1 0.5 is the paper's deadline-meeting selection at 0.81.
        assert!((m.profile("mobilenet_v1_0.50").unwrap().base_accuracy - 0.81).abs() < 1e-9);
    }

    #[test]
    fn accuracy_is_deterministic() {
        let m = model();
        let net = zoo::resnet50();
        let trn = net.cut_blocks(4).unwrap().with_head(&HeadSpec::default());
        assert_eq!(m.accuracy(&trn), m.accuracy(&trn));
    }

    #[test]
    fn deeper_cuts_lose_more_accuracy() {
        let m = model();
        let net = zoo::mobilenet_v2(1.0);
        let head = HeadSpec::default();
        let shallow = m.accuracy(&net.cut_blocks(2).unwrap().with_head(&head));
        let deep = m.accuracy(&net.cut_blocks(12).unwrap().with_head(&head));
        assert!(shallow > deep + 0.05, "shallow {shallow} deep {deep}");
    }

    #[test]
    fn densenet_plateaus_past_100_removed_layers() {
        // Fig. 5: DenseNet loses almost nothing past 100 removed layers.
        let m = model();
        let net = zoo::densenet121();
        let head = HeadSpec::default();
        let full = m.accuracy(&net.cut_blocks(0).unwrap().with_head(&head));
        // 26 dense layers removed = 52 convs plus the transition convs.
        let trn = net.cut_blocks(26).unwrap().with_head(&head);
        let removed = net.weighted_layer_count() - trn.weighted_layer_count();
        assert!(removed > 50, "removed = {removed}");
        let cut = m.accuracy(&trn);
        assert!(full - cut < 0.03, "densenet dropped {:.3}", full - cut);
    }

    #[test]
    fn mobilenets_are_fragile() {
        // Fig. 5: MobileNet accuracy drops fast; at 40 % removal the loss
        // must already be substantial, unlike ResNet's.
        let m = model();
        let mob = m.profile("mobilenet_v2_1.00").unwrap();
        let res = m.profile("resnet50").unwrap();
        assert!(mob.accuracy_at(0.4) < mob.base_accuracy - 0.08);
        assert!(res.accuracy_at(0.4) > res.base_accuracy - 0.02);
    }

    #[test]
    fn mobilenet_v2_more_affected_than_resnet() {
        // §IV-B-1: ResNet and MobileNetV2 have similar depth, but V2
        // suffers more from removal.
        let m = model();
        let v2 = m.profile("mobilenet_v2_1.00").unwrap();
        let res = m.profile("resnet50").unwrap();
        for f in [0.2, 0.4, 0.6, 0.8] {
            let v2_loss = v2.base_accuracy - v2.accuracy_at(f);
            let res_loss = res.base_accuracy - res.accuracy_at(f);
            assert!(v2_loss > res_loss, "at f={f}: v2 {v2_loss} res {res_loss}");
        }
    }

    #[test]
    fn fraction_removed_bounds() {
        let m = model();
        let net = zoo::inception_v3();
        let head = HeadSpec::default();
        let f0 = m.fraction_removed(&net.cut_blocks(0).unwrap().with_head(&head));
        assert!(f0.abs() < 1e-9);
        let f_deep = m.fraction_removed(&net.cut_blocks(10).unwrap().with_head(&head));
        assert!(f_deep > 0.7 && f_deep < 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown family")]
    fn unknown_family_panics() {
        use netcut_graph::{NetworkBuilder, Padding, Shape};
        let mut b = NetworkBuilder::new("mystery", Shape::map(3, 8, 8));
        let x = b.input();
        let c = b.conv(x, 4, 3, 1, Padding::Same, "c");
        let net = b.finish(c).unwrap();
        model().fraction_removed(&net);
    }
}
