//! Property-based tests over randomly generated sequential CNNs: the cut
//! machinery must uphold its invariants for *any* well-formed network, not
//! just the zoo.

use netcut_graph::{Activation, HeadSpec, Network, NetworkBuilder, Padding, Shape};
use proptest::prelude::*;

/// One randomly chosen backbone block.
#[derive(Debug, Clone)]
enum BlockSpec {
    Conv {
        channels: usize,
        kernel: usize,
        stride: usize,
    },
    Separable {
        channels: usize,
    },
    Residual {
        channels: usize,
    },
}

fn block_strategy() -> impl Strategy<Value = BlockSpec> {
    prop_oneof![
        (1usize..=4, 0usize..3, 1usize..=2).prop_map(|(c, k, s)| BlockSpec::Conv {
            channels: 8 * c,
            kernel: [1, 3, 5][k],
            stride: s,
        }),
        (1usize..=4).prop_map(|c| BlockSpec::Separable { channels: 8 * c }),
        (1usize..=4).prop_map(|c| BlockSpec::Residual { channels: 8 * c }),
    ]
}

/// Builds a random-but-valid network from block specs.
fn build(blocks: &[BlockSpec]) -> Network {
    let mut b = NetworkBuilder::new("random", Shape::map(3, 64, 64));
    let mut x = b.input();
    let mut channels = 3usize;
    for (i, spec) in blocks.iter().enumerate() {
        let name = format!("b{i}");
        b.begin_block(&name);
        match *spec {
            BlockSpec::Conv {
                channels: c,
                kernel,
                stride,
            } => {
                x = b.conv_bn_relu(x, c, kernel, stride, Padding::Same, &name);
                channels = c;
            }
            BlockSpec::Separable { channels: c } => {
                let d = b.depthwise_conv(x, 3, 1, Padding::Same, &format!("{name}/dw"));
                let d = b.batch_norm(d, &format!("{name}/dw_bn"));
                let d = b.activation(d, Activation::Relu, &format!("{name}/dw_relu"));
                x = b.conv_bn_relu(d, c, 1, 1, Padding::Same, &format!("{name}/pw"));
                channels = c;
            }
            BlockSpec::Residual { channels: c } => {
                // Project to c, then a shape-preserving residual unit.
                let p = b.conv_bn_relu(x, c, 1, 1, Padding::Same, &format!("{name}/proj"));
                let inner = b.conv_bn_relu(p, c, 3, 1, Padding::Same, &format!("{name}/conv"));
                x = b.add(&[p, inner], &format!("{name}/add"));
                channels = c;
            }
        }
        b.end_block(x).expect("non-empty block");
    }
    let _ = channels;
    b.finish(x).expect("random network is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_networks_validate(blocks in prop::collection::vec(block_strategy(), 1..8)) {
        let net = build(&blocks);
        prop_assert!(netcut_verify::validate(&net).is_ok());
        prop_assert_eq!(net.num_blocks(), blocks.len());
    }

    #[test]
    fn every_block_cut_is_valid_and_smaller(blocks in prop::collection::vec(block_strategy(), 2..8)) {
        let net = build(&blocks);
        let full_stats = net.stats();
        for k in 0..net.num_blocks() {
            let trn = net.cut_blocks(k).expect("valid cutpoint");
            prop_assert!(netcut_verify::validate(&trn).is_ok());
            let s = trn.stats();
            prop_assert!(s.total_flops <= full_stats.total_flops);
            prop_assert!(s.total_params <= full_stats.total_params);
            prop_assert_eq!(trn.num_blocks(), net.num_blocks() - k);
        }
    }

    #[test]
    fn cuts_are_monotone_in_depth(blocks in prop::collection::vec(block_strategy(), 2..8)) {
        let net = build(&blocks);
        let mut prev_flops = u64::MAX;
        let mut prev_layers = usize::MAX;
        for k in 0..net.num_blocks() {
            let trn = net.cut_blocks(k).expect("valid cutpoint");
            let s = trn.stats();
            prop_assert!(s.total_flops <= prev_flops);
            prop_assert!(trn.weighted_layer_count() <= prev_layers);
            prev_flops = s.total_flops;
            prev_layers = trn.weighted_layer_count();
        }
    }

    #[test]
    fn head_attachment_yields_class_distribution_shape(
        blocks in prop::collection::vec(block_strategy(), 1..6),
        classes in 2usize..20,
    ) {
        let net = build(&blocks);
        let with = net.clone().with_head(&HeadSpec::with_classes(classes));
        prop_assert!(netcut_verify::validate(&with).is_ok());
        prop_assert_eq!(with.output_shape(), Shape::vector(classes));
        // The backbone round-trips through head attachment.
        let bb = with.backbone();
        prop_assert_eq!(bb.weighted_layer_count(), net.weighted_layer_count());
    }

    #[test]
    fn cut_at_every_node_keeps_ancestor_closure(blocks in prop::collection::vec(block_strategy(), 1..5)) {
        let net = build(&blocks);
        for node in net.layer_cutpoints().into_iter().step_by(3) {
            let cut = net.cut_at_node(node, "random/cutX");
            prop_assert!(netcut_verify::validate(&cut).is_ok());
            prop_assert!(cut.len() <= net.len());
            // The cut output reproduces the original node's shape.
            prop_assert_eq!(cut.output_shape(), net.shape(node));
        }
    }

    #[test]
    fn double_cut_equals_deep_cut(blocks in prop::collection::vec(block_strategy(), 3..8)) {
        let net = build(&blocks);
        let a = net.cut_blocks(1).expect("valid").cut_blocks(1).expect("valid");
        let b = net.cut_blocks(2).expect("valid");
        // Structural equality up to the name.
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.output_shape(), b.output_shape());
    }

    #[test]
    fn fingerprint_is_deterministic_and_name_invariant(
        blocks in prop::collection::vec(block_strategy(), 1..8),
    ) {
        let net = build(&blocks);
        // Deterministic: recomputing never changes the value.
        prop_assert_eq!(net.structural_fingerprint(), net.structural_fingerprint());
        // Rebuilding the identical structure yields the identical value.
        prop_assert_eq!(build(&blocks).structural_fingerprint(), net.structural_fingerprint());
        // The network name does not participate.
        let mut renamed = net.clone();
        renamed.rename("something/else");
        prop_assert_eq!(renamed.structural_fingerprint(), net.structural_fingerprint());
    }

    #[test]
    fn fingerprint_separates_structurally_unequal_networks(
        blocks in prop::collection::vec(block_strategy(), 2..8),
    ) {
        let net = build(&blocks);
        let fp = net.structural_fingerprint();
        // Every blockwise cut, and the head-attached variant, must hash
        // differently from the full backbone (and from each other).
        let mut seen = std::collections::HashSet::new();
        seen.insert(fp);
        for k in 1..net.num_blocks() {
            let cut = net.cut_blocks(k).expect("valid cutpoint");
            prop_assert!(
                seen.insert(cut.structural_fingerprint()),
                "cut {} collided", k
            );
        }
        prop_assert!(seen.insert(net.with_head(&HeadSpec::default()).structural_fingerprint()));
    }

    #[test]
    fn fingerprint_equal_structures_collide(blocks in prop::collection::vec(block_strategy(), 3..8)) {
        // double_cut_equals_deep_cut at the fingerprint level: two routes to
        // the same structure must produce the same fingerprint even though
        // the intermediate networks (and names) differ.
        let net = build(&blocks);
        let a = net.cut_blocks(1).expect("valid").cut_blocks(1).expect("valid");
        let b = net.cut_blocks(2).expect("valid");
        prop_assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
    }
}
