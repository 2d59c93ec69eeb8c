//! Canonical structural fingerprinting.
//!
//! [`Network::structural_fingerprint`] hashes everything that determines how
//! a network *executes* — layer kinds and hyper-parameters, wiring, inferred
//! shapes, block decomposition and head boundary — while deliberately
//! excluding the network's display [`Network::name`]. Two networks share a
//! fingerprint exactly when they are structurally equal, so the value is
//! usable as a memo-cache key alongside device, precision and seed.
//!
//! The hash is a hand-rolled 64-bit FNV-1a over an explicit, versioned byte
//! encoding: it does not go through `std::hash::Hash`, whose derived byte
//! layout is an implementation detail, so fingerprints are stable across
//! runs, platforms and compiler versions.

use crate::layer::{Activation, LayerKind, Padding};
use crate::network::Network;
use crate::shape::Shape;

/// Version tag mixed into every fingerprint; bump when the encoding changes
/// so stale cross-process caches can never alias. Version 2 added the
/// multi-exit head table ([`crate::ExitPoint`]) to the encoding.
const ENCODING_VERSION: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `ZERO_RUN[z]` is `FNV_PRIME` to the power `z`: a zero byte leaves the
/// XOR step a no-op, so feeding `z` of them multiplies the state by this.
const ZERO_RUN: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut z = 1;
    while z < pow.len() {
        pow[z] = pow[z - 1].wrapping_mul(FNV_PRIME);
        z += 1;
    }
    pow
};

/// Incremental 64-bit FNV-1a: the workspace's one stable hash, behind the
/// structural fingerprint, the session fingerprint, the simulator's and the
/// surrogate's per-network seeds and the serve-artifact fingerprint. Not a
/// cryptographic hash.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a::seeded(0)
    }

    /// A hasher whose offset basis is XORed with `seed`, so one input
    /// hashes to a different value per seed.
    pub fn seeded(seed: u64) -> Self {
        Fnv1a(FNV_OFFSET ^ seed)
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Feeds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Feeds `v` as its eight little-endian bytes. Its zero high bytes
    /// go in as one multiply, which reaches the state feeding them one at
    /// a time would, so the small counts and indices that fill a
    /// fingerprint cost a byte or two each.
    pub fn u64(&mut self, v: u64) {
        let significant = 8 - v.leading_zeros() as usize / 8;
        self.bytes(&v.to_le_bytes()[..significant]);
        self.0 = self.0.wrapping_mul(ZERO_RUN[8 - significant]);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds a length-prefixed string (the length as [`Fnv1a::u64`]), so
    /// adjacent fields cannot alias.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn shape(&mut self, s: Shape) {
        match s {
            Shape::Map { c, h, w } => {
                self.byte(0);
                self.usize(c);
                self.usize(h);
                self.usize(w);
            }
            Shape::Vector { n } => {
                self.byte(1);
                self.usize(n);
            }
        }
    }

    fn padding(&mut self, p: Padding) {
        self.byte(match p {
            Padding::Same => 0,
            Padding::Valid => 1,
        });
    }

    fn kind(&mut self, k: &LayerKind) {
        match *k {
            LayerKind::Input => self.byte(0),
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                self.byte(1);
                self.usize(out_channels);
                self.usize(kernel);
                self.usize(stride);
                self.padding(padding);
            }
            LayerKind::Conv2dRect {
                out_channels,
                kernel_h,
                kernel_w,
                stride,
                padding,
            } => {
                self.byte(2);
                self.usize(out_channels);
                self.usize(kernel_h);
                self.usize(kernel_w);
                self.usize(stride);
                self.padding(padding);
            }
            LayerKind::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                self.byte(3);
                self.usize(kernel);
                self.usize(stride);
                self.padding(padding);
            }
            LayerKind::Dense { units } => {
                self.byte(4);
                self.usize(units);
            }
            LayerKind::BatchNorm => self.byte(5),
            LayerKind::Activation(a) => {
                self.byte(6);
                self.byte(match a {
                    Activation::Relu => 0,
                    Activation::Relu6 => 1,
                    Activation::Softmax => 2,
                });
            }
            LayerKind::MaxPool2d {
                kernel,
                stride,
                padding,
            } => {
                self.byte(7);
                self.usize(kernel);
                self.usize(stride);
                self.padding(padding);
            }
            LayerKind::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                self.byte(8);
                self.usize(kernel);
                self.usize(stride);
                self.padding(padding);
            }
            LayerKind::GlobalAvgPool => self.byte(9),
            LayerKind::Add => self.byte(10),
            LayerKind::Concat => self.byte(11),
            LayerKind::Flatten => self.byte(12),
            LayerKind::Dropout { rate_percent } => {
                self.byte(13);
                self.byte(rate_percent);
            }
        }
    }
}

impl Network {
    /// A stable 64-bit hash of the network's *structure*: input shape,
    /// every node's name, kind, hyper-parameters and wiring, the inferred
    /// activation shapes, the graph output, the block decomposition and the
    /// head boundary. The network's own [`name`](Network::name) is
    /// excluded, so a renamed copy fingerprints identically while any
    /// structural change — a different head, one more cut block, a changed
    /// stride — yields a different value.
    ///
    /// Node *names* are included because downstream consumers (fusion, the
    /// profiler estimator's kept-layer matching) identify layers by name;
    /// two graphs whose layers answer to different names are not
    /// interchangeable.
    ///
    /// # Example
    ///
    /// ```
    /// use netcut_graph::zoo;
    ///
    /// let a = zoo::mobilenet_v1(0.5);
    /// let mut renamed = a.clone();
    /// renamed.rename("other");
    /// assert_eq!(a.structural_fingerprint(), renamed.structural_fingerprint());
    /// assert_ne!(
    ///     a.structural_fingerprint(),
    ///     zoo::mobilenet_v1(0.25).structural_fingerprint()
    /// );
    /// ```
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(ENCODING_VERSION);
        h.shape(self.input_shape);
        h.usize(self.nodes.len());
        for node in &self.nodes {
            h.str(&node.name);
            h.kind(&node.kind);
            h.usize(node.inputs.len());
            for &input in node.inputs.iter() {
                h.usize(input.index());
            }
        }
        for &shape in &self.shapes {
            h.shape(shape);
        }
        h.usize(self.output.index());
        h.usize(self.blocks.len());
        for block in &self.blocks {
            h.str(&block.name);
            h.usize(block.nodes.len());
            for &id in &block.nodes {
                h.usize(id.index());
            }
            h.usize(block.output.index());
        }
        match self.head_start {
            Some(id) => {
                h.byte(1);
                h.usize(id.index());
            }
            None => h.byte(0),
        }
        h.usize(self.exits.len());
        for exit in &self.exits {
            h.usize(exit.block());
            h.usize(exit.head_start().index());
            h.usize(exit.output().index());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;
    use crate::network::Network;
    use crate::trim::HeadSpec;
    use crate::zoo;

    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        let hash = |input: &[u8]| {
            let mut h = Fnv1a::new();
            h.bytes(input);
            h.finish()
        };
        // The FNV reference test suite's FNV-1a 64-bit values.
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_ignores_network_name() {
        let net = zoo::mobilenet_v1(0.5);
        let mut renamed = net.clone();
        renamed.rename("something/else");
        assert_eq!(
            net.structural_fingerprint(),
            renamed.structural_fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = zoo::resnet50().structural_fingerprint();
        let b = zoo::resnet50().structural_fingerprint();
        assert_eq!(a, b);
    }

    #[test]
    fn zoo_fingerprints_are_distinct() {
        let nets = zoo::paper_networks();
        let mut fps: Vec<u64> = nets.iter().map(Network::structural_fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), nets.len(), "zoo fingerprints collide");
    }

    #[test]
    fn cut_depth_changes_fingerprint() {
        let net = zoo::mobilenet_v1(0.25);
        let head = HeadSpec::default();
        let mut fps: Vec<u64> = (0..net.num_blocks())
            .map(|k| {
                net.cut_blocks(k)
                    .unwrap()
                    .with_head(&head)
                    .structural_fingerprint()
            })
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), net.num_blocks());
    }

    #[test]
    fn exit_heads_change_fingerprint_but_not_the_backbone() {
        let net = zoo::mobilenet_v1(0.25);
        let bb = net.backbone();
        let multi = net.with_exit_heads(&HeadSpec::default());
        assert_ne!(
            bb.structural_fingerprint(),
            multi.structural_fingerprint(),
            "exit table must be part of the structural identity"
        );
        // Attachment is a pure append: extracting the backbone back out
        // recovers the exact pre-attachment fingerprint.
        assert_eq!(
            bb.structural_fingerprint(),
            multi.backbone().structural_fingerprint(),
            "attaching exit heads must not perturb the backbone"
        );
    }

    #[test]
    fn exit_table_is_fingerprinted() {
        let multi = zoo::mobilenet_v1(0.25).with_exit_heads(&HeadSpec::default());
        let mut reordered = multi.clone();
        let mut exits = reordered.exits().to_vec();
        exits.swap(0, 1);
        reordered = reordered.with_exit_points(exits);
        assert_ne!(
            multi.structural_fingerprint(),
            reordered.structural_fingerprint()
        );
    }

    #[test]
    fn head_spec_changes_fingerprint() {
        let net = zoo::mobilenet_v1(0.25);
        let a = net
            .backbone()
            .with_head(&HeadSpec::default())
            .structural_fingerprint();
        let b = net
            .backbone()
            .with_head(&HeadSpec::with_classes(7))
            .structural_fingerprint();
        assert_ne!(a, b);
    }

    // The eval cache's keys, NC011 and `lint --json`'s `fingerprint` field
    // read these values; a faster hash must keep every one of them.

    #[test]
    fn paper_source_fingerprints_are_pinned() {
        let pinned = [
            ("mobilenet_v1_0.25", 0x6306_385f_b22b_5a33),
            ("mobilenet_v1_0.50", 0x237e_7f5d_7c94_334d),
            ("mobilenet_v2_1.00", 0x9daa_fa5b_b45b_7abb),
            ("mobilenet_v2_1.40", 0x4af4_016e_a305_b6df),
            ("inception_v3", 0x6ce3_7716_055e_3fd7),
            ("resnet50", 0x8fca_efba_bf1c_b3fe),
            ("densenet121", 0xaa97_67bb_87c3_d99c),
        ];
        let nets = zoo::paper_networks();
        assert_eq!(nets.len(), pinned.len());
        for (net, (name, fp)) in nets.iter().zip(pinned) {
            assert_eq!(net.name(), name);
            assert_eq!(net.structural_fingerprint(), fp, "{name}");
        }
    }

    #[test]
    fn blockwise_trn_fingerprints_are_pinned() {
        let head = HeadSpec::default();
        let mut digest = Fnv1a::new();
        let mut trns = 0;
        for net in zoo::paper_networks() {
            for k in 0..net.num_blocks() {
                let trn = net.cut_blocks(k).unwrap().with_head(&head);
                digest.u64(trn.structural_fingerprint());
                trns += 1;
            }
        }
        assert_eq!(trns, 145);
        assert_eq!(digest.finish(), 0x16a5_9359_7430_0dd3);
    }

    #[test]
    fn u64_equals_its_little_endian_bytes() {
        let mut values = vec![0, 1, 0xff, 0x100, (1 << 56) - 1, 1 << 56, u64::MAX];
        // A splitmix64 stream, shifted so every count of zero high bytes
        // (0 through 8) shows up.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..512 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            values.push(z.checked_shr(8 * (i % 9)).unwrap_or(0));
        }
        for seed in [0, 1, 0xdead_beef, u64::MAX] {
            for &v in &values {
                let (mut folded, mut bytewise) = (Fnv1a::seeded(seed), Fnv1a::seeded(seed));
                folded.u64(v);
                bytewise.bytes(&v.to_le_bytes());
                assert_eq!(
                    folded.finish(),
                    bytewise.finish(),
                    "v {v:#x}, seed {seed:#x}"
                );
            }
        }
        let (mut folded, mut bytewise) = (Fnv1a::new(), Fnv1a::new());
        for &v in &values {
            folded.u64(v);
            bytewise.bytes(&v.to_le_bytes());
        }
        assert_eq!(folded.finish(), bytewise.finish());
    }
}
