//! Cut operations: constructing TRimmed Networks (TRNs) from a source
//! network, per §IV of the paper.

use crate::error::GraphError;
use crate::layer::Activation;
use crate::network::{infer_shape, Block, Network, Node, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Specification of the transfer-learning classification head the paper
/// attaches after cutting (§III-B-3): one global average pooling, a stack of
/// FC/ReLU layers, and a final FC/Softmax over the grasp classes.
///
/// # Example
///
/// ```
/// use netcut_graph::HeadSpec;
///
/// let head = HeadSpec::default();
/// assert_eq!(head.classes, 5);
/// assert_eq!(head.hidden, vec![256, 128]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeadSpec {
    /// Sizes of the hidden FC/ReLU layers.
    pub hidden: Vec<usize>,
    /// Number of output classes (5 grasp types in the HANDS application).
    pub classes: usize,
}

impl Default for HeadSpec {
    fn default() -> Self {
        HeadSpec {
            hidden: vec![256, 128],
            classes: 5,
        }
    }
}

impl HeadSpec {
    /// Head with the given number of classes and the default hidden stack.
    pub fn with_classes(classes: usize) -> Self {
        HeadSpec {
            classes,
            ..HeadSpec::default()
        }
    }
}

impl Network {
    /// Node ids at which blockwise removal may cut: the output of each
    /// backbone block, in order. Cutting "after block `i`" keeps blocks
    /// `0..=i`.
    pub fn block_cutpoints(&self) -> Vec<NodeId> {
        self.blocks.iter().map(|b| b.output).collect()
    }

    /// All candidate cutpoints for *iterative* (per-layer, exhaustive)
    /// removal: every backbone compute node. This is the search space the
    /// paper contrasts with blockwise removal in Fig. 4.
    pub fn layer_cutpoints(&self) -> Vec<NodeId> {
        self.backbone_nodes()
            .filter(|n| n.kind().is_compute())
            .map(Node::id)
            .collect()
    }

    /// The ancestor closure of node `v` (inclusive) as a mask indexed like
    /// [`Network::nodes`]: `mask[i]` is `true` when node `i` survives
    /// [`cut_at_node`](Self::cut_at_node) at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this network.
    pub fn ancestor_mask(&self, v: NodeId) -> Vec<bool> {
        assert!(v.0 < self.nodes.len(), "cutpoint outside network");
        // Inputs always point backward, so a single reverse pass suffices.
        let mut keep = vec![false; self.nodes.len()];
        keep[v.0] = true;
        for idx in (0..=v.0).rev() {
            if keep[idx] {
                for &inp in self.nodes[idx].inputs.iter() {
                    keep[inp.0] = true;
                }
            }
        }
        keep
    }

    /// Returns the sub-network computing node `v` (its ancestor closure),
    /// renamed to `name`, with no classification head attached.
    ///
    /// Blocks that survive intact (all nodes kept) are preserved so the
    /// result can be cut again. Every kept node shares its name with this
    /// network, and so does its input list when none of its inputs changes
    /// id, as in any cut that keeps a prefix of the nodes (every blockwise
    /// cut of the zoo); only the other lists are remapped.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this network.
    pub fn cut_at_node(&self, v: NodeId, name: impl Into<String>) -> Network {
        let keep = self.ancestor_mask(v);
        let kept = keep.iter().filter(|&&k| k).count();
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(kept);
        let mut shapes = Vec::with_capacity(kept);
        for (idx, node) in self.nodes.iter().enumerate() {
            if !keep[idx] {
                continue;
            }
            let new_id = NodeId(nodes.len());
            remap[idx] = new_id.0;
            let inputs = if node.inputs.iter().all(|i| remap[i.0] == i.0) {
                Arc::clone(&node.inputs)
            } else {
                node.inputs.iter().map(|i| NodeId(remap[i.0])).collect()
            };
            nodes.push(Node {
                id: new_id,
                name: Arc::clone(&node.name),
                kind: node.kind,
                inputs,
            });
            shapes.push(self.shapes[idx]);
        }
        let blocks = self
            .blocks
            .iter()
            .filter(|b| b.nodes.iter().all(|n| keep[n.0]))
            .map(|b| Block {
                name: b.name.clone(),
                nodes: b.nodes.iter().map(|n| NodeId(remap[n.0])).collect(),
                output: NodeId(remap[b.output.0]),
            })
            .collect();
        Network {
            name: name.into(),
            input_shape: self.input_shape,
            nodes,
            shapes,
            output: NodeId(remap[v.0]),
            blocks,
            head_start: None,
            exits: Vec::new(),
        }
    }

    /// Constructs the blockwise TRN that removes the last `k` blocks
    /// (`k = 0` keeps the full backbone, head stripped). The result has no
    /// head; attach one with [`Network::with_head`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCutpoint`] if `k` exceeds the number of
    /// removable blocks minus one (at least one block is always kept so a
    /// feature extractor remains).
    pub fn cut_blocks(&self, k: usize) -> Result<Network, GraphError> {
        let nb = self.blocks.len();
        if nb == 0 || k > nb - 1 {
            return Err(GraphError::InvalidCutpoint {
                cutpoint: k,
                available: nb,
            });
        }
        let cut_block = &self.blocks[nb - 1 - k];
        let base = self.base_name();
        Ok(self.cut_at_node(cut_block.output, format!("{base}/cut{k}")))
    }

    /// The family name without any cut suffix (`/cutN`, `/layerN`, …):
    /// everything before the first `/`.
    pub fn base_name(&self) -> &str {
        match self.name.find('/') {
            Some(pos) => &self.name[..pos],
            None => &self.name,
        }
    }

    /// The cutpoint encoded in the name (`/cutN` suffix), or 0.
    pub fn cutpoint(&self) -> usize {
        self.name
            .find("/cut")
            .and_then(|pos| self.name[pos + 4..].parse().ok())
            .unwrap_or(0)
    }

    /// Returns a copy of this network's backbone (head stripped). If no head
    /// is marked, this is an unmodified copy.
    pub fn backbone(&self) -> Network {
        match self.head_start {
            None => self.clone(),
            Some(h) => {
                // The backbone output is the last non-head input feeding the
                // head. For a multi-exit network that is the *deepest*
                // exit's tap (the shallowest exit taps block 0, which would
                // discard the rest of the backbone); for all single-exit
                // zoo networks it is the input of the head's first node.
                let first_head = match self.exits.last() {
                    Some(deepest) => &self.nodes[deepest.head_start.0],
                    None => &self.nodes[h.0],
                };
                let backbone_out = first_head
                    .inputs
                    .first()
                    .copied()
                    .expect("head node with no input");
                self.cut_at_node(backbone_out, self.name.clone())
            }
        }
    }

    /// Attaches a fresh transfer-learning head (GAP → FC/ReLU… → FC/Softmax)
    /// to this network's output in place, returning the completed model.
    /// A caller that still needs the headless network clones it first.
    ///
    /// If the output is already a flat vector the global-average-pool step is
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics on a multi-exit network — strip the exit table first
    /// ([`Network::backbone`]) or use [`Network::with_exit_heads`].
    #[must_use]
    pub fn with_head(self, spec: &HeadSpec) -> Network {
        assert!(
            self.exits.is_empty(),
            "with_head on a multi-exit network; take backbone() first"
        );
        let mut net = self;
        net.head_start = Some(NodeId(net.nodes.len()));
        let mut cur = net.output;
        let gap = net.shapes[cur.0].is_map();
        let head_len = usize::from(gap) + 2 * spec.hidden.len() + 2;
        net.nodes.reserve_exact(head_len);
        net.shapes.reserve_exact(head_len);
        let push = |net: &mut Network, kind, inputs: &[NodeId], name: &str| -> NodeId {
            let id = NodeId(net.nodes.len());
            let node = Node::new(id, name, kind, inputs);
            let shape = infer_shape(&node, &net.shapes, net.input_shape)
                .expect("head shape inference cannot fail on a valid backbone");
            net.nodes.push(node);
            net.shapes.push(shape);
            id
        };
        if gap {
            cur = push(
                &mut net,
                crate::layer::LayerKind::GlobalAvgPool,
                &[cur],
                "head/gap",
            );
        }
        for (i, &units) in spec.hidden.iter().enumerate() {
            cur = push(
                &mut net,
                crate::layer::LayerKind::Dense { units },
                &[cur],
                &format!("head/fc{i}"),
            );
            cur = push(
                &mut net,
                crate::layer::LayerKind::Activation(Activation::Relu),
                &[cur],
                &format!("head/relu{i}"),
            );
        }
        cur = push(
            &mut net,
            crate::layer::LayerKind::Dense {
                units: spec.classes,
            },
            &[cur],
            "head/logits",
        );
        cur = push(
            &mut net,
            crate::layer::LayerKind::Activation(Activation::Softmax),
            &[cur],
            "head/softmax",
        );
        net.output = cur;
        net
    }

    /// Attaches one transfer-learning head (GAP → FC/ReLU… → FC/Softmax)
    /// at *every* block boundary, turning the backbone into a single
    /// multi-exit network: the anytime-TRN form where each ladder rung is
    /// an exit of one shared model instead of a separate trimmed network.
    ///
    /// Any existing head (single or multi-exit) is stripped first, so the
    /// call is idempotent on the backbone. Exit `k` taps the output of
    /// block `k`; heads are appended after the backbone in depth order, so
    /// every exit node is head territory ([`Network::is_head_node`]) and
    /// the backbone's node ids — and hence its structural fingerprint —
    /// are untouched by the attachment. The graph output is the deepest
    /// exit's softmax.
    ///
    /// # Panics
    ///
    /// Panics if the network has no blocks (there is no boundary to tap).
    pub fn with_exit_heads(&self, spec: &HeadSpec) -> Network {
        let backbone = self.backbone();
        assert!(
            !backbone.blocks.is_empty(),
            "cannot attach exit heads to a network with no blocks"
        );
        // Trim trailing stem-top nodes (e.g. DenseNet's final BN/ReLU after
        // the last block): every exit taps a block output, so anything past
        // the deepest tap would dangle from every exit.
        let deepest_tap = backbone.blocks.last().expect("checked non-empty").output;
        let mut net = backbone.cut_at_node(deepest_tap, backbone.name.clone());
        net.name = format!("{}/exits{}", self.base_name(), net.blocks.len());
        net.head_start = Some(NodeId(net.nodes.len()));
        let push = |net: &mut Network, kind, inputs: &[NodeId], name: &str| -> NodeId {
            let id = NodeId(net.nodes.len());
            let node = Node::new(id, name, kind, inputs);
            let shape = infer_shape(&node, &net.shapes, net.input_shape)
                .expect("exit-head shape inference cannot fail on a valid backbone");
            net.nodes.push(node);
            net.shapes.push(shape);
            id
        };
        let taps: Vec<NodeId> = net.blocks.iter().map(|b| b.output).collect();
        let mut exits = Vec::with_capacity(taps.len());
        let mut deepest = net.output;
        for (k, &tap) in taps.iter().enumerate() {
            let head_start = NodeId(net.nodes.len());
            let mut cur = tap;
            if net.shapes[cur.0].is_map() {
                cur = push(
                    &mut net,
                    crate::layer::LayerKind::GlobalAvgPool,
                    &[cur],
                    &format!("exit{k}/gap"),
                );
            }
            for (i, &units) in spec.hidden.iter().enumerate() {
                cur = push(
                    &mut net,
                    crate::layer::LayerKind::Dense { units },
                    &[cur],
                    &format!("exit{k}/fc{i}"),
                );
                cur = push(
                    &mut net,
                    crate::layer::LayerKind::Activation(Activation::Relu),
                    &[cur],
                    &format!("exit{k}/relu{i}"),
                );
            }
            cur = push(
                &mut net,
                crate::layer::LayerKind::Dense {
                    units: spec.classes,
                },
                &[cur],
                &format!("exit{k}/logits"),
            );
            cur = push(
                &mut net,
                crate::layer::LayerKind::Activation(Activation::Softmax),
                &[cur],
                &format!("exit{k}/softmax"),
            );
            exits.push(crate::network::ExitPoint {
                block: k,
                head_start,
                output: cur,
            });
            deepest = cur;
        }
        net.output = deepest;
        net.exits = exits;
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Padding;
    use crate::network::NetworkBuilder;
    use crate::shape::Shape;

    fn chain(n_blocks: usize) -> Network {
        let mut b = NetworkBuilder::new("chain", Shape::map(3, 64, 64));
        let mut x = b.input();
        for i in 0..n_blocks {
            b.begin_block(format!("b{i}"));
            x = b.conv_bn_relu(x, 8 * (i + 1), 3, 1, Padding::Same, &format!("c{i}"));
            b.end_block(x).unwrap();
        }
        b.mark_head_start();
        let g = b.global_avg_pool(x, "gap");
        let d = b.dense(g, 5, "fc");
        b.finish(d).unwrap()
    }

    #[test]
    fn cut_zero_strips_head_only() {
        let net = chain(4);
        let trn = net.cut_blocks(0).unwrap();
        assert_eq!(trn.num_blocks(), 4);
        assert_eq!(trn.weighted_layer_count(), 4);
        assert!(trn.head_start().is_none());
        trn.check_built().unwrap();
    }

    #[test]
    fn cut_removes_top_blocks() {
        let net = chain(4);
        let trn = net.cut_blocks(2).unwrap();
        assert_eq!(trn.num_blocks(), 2);
        assert_eq!(trn.output_shape(), Shape::map(16, 64, 64));
        assert_eq!(trn.name(), "chain/cut2");
        assert_eq!(trn.cutpoint(), 2);
        assert_eq!(trn.base_name(), "chain");
    }

    #[test]
    fn cut_all_but_one_is_max() {
        let net = chain(4);
        assert!(net.cut_blocks(3).is_ok());
        assert!(matches!(
            net.cut_blocks(4),
            Err(GraphError::InvalidCutpoint { .. })
        ));
    }

    #[test]
    fn with_head_appends_spec() {
        let net = chain(3);
        let trn = net.cut_blocks(1).unwrap().with_head(&HeadSpec::default());
        assert_eq!(trn.output_shape(), Shape::vector(5));
        assert!(trn.head_start().is_some());
        // GAP + 2×(FC+ReLU) + FC + Softmax = 7 head nodes
        let head_nodes = trn
            .nodes()
            .iter()
            .filter(|n| trn.is_head_node(n.id()))
            .count();
        assert_eq!(head_nodes, 7);
        trn.check_built().unwrap();
    }

    #[test]
    fn head_on_vector_output_skips_gap() {
        let mut b = NetworkBuilder::new("v", Shape::vector(32));
        let x = b.input();
        let d = b.dense(x, 16, "d");
        let net = b.finish(d).unwrap();
        let with = net.with_head(&HeadSpec::with_classes(3));
        assert_eq!(with.output_shape(), Shape::vector(3));
        assert!(!with
            .nodes()
            .iter()
            .any(|n| matches!(n.kind(), crate::LayerKind::GlobalAvgPool)));
    }

    #[test]
    fn backbone_round_trips() {
        let net = chain(3);
        let bb = net.backbone();
        assert!(bb.head_start().is_none());
        assert_eq!(bb.num_blocks(), 3);
        assert_eq!(bb.weighted_layer_count(), 3);
        let again = bb.with_head(&HeadSpec::default());
        assert_eq!(again.output_shape(), Shape::vector(5));
    }

    #[test]
    fn exit_heads_attach_at_every_boundary() {
        let net = chain(4);
        let spec = HeadSpec::default();
        let multi = net.with_exit_heads(&spec);
        assert_eq!(multi.num_exits(), 4);
        assert!(multi.is_multi_exit());
        assert_eq!(multi.name(), "chain/exits4");
        multi.check_built().unwrap();
        for (k, exit) in multi.exits().iter().enumerate() {
            assert_eq!(exit.block(), k);
            assert_eq!(multi.shape(exit.output()), Shape::vector(spec.classes));
            // The exit taps exactly its block's boundary.
            let first = multi.node(exit.head_start());
            assert_eq!(first.inputs(), &[multi.blocks()[k].output()]);
            assert!(multi.is_head_node(exit.head_start()));
        }
        // The graph output is the deepest exit.
        assert_eq!(multi.output(), multi.exits().last().unwrap().output());
        // Exit head node ranges tile [head_start, len) without gaps.
        let mut expected = multi.head_start().unwrap().index();
        for exit in multi.exits() {
            assert_eq!(exit.head_start().index(), expected);
            expected = exit.output().index() + 1;
        }
        assert_eq!(expected, multi.len());
    }

    #[test]
    fn exit_heads_strip_an_existing_head_first() {
        let net = chain(3);
        let a = net.with_exit_heads(&HeadSpec::default());
        let b = net.backbone().with_exit_heads(&HeadSpec::default());
        assert_eq!(
            a.structural_fingerprint(),
            b.structural_fingerprint(),
            "with_exit_heads must be head-idempotent"
        );
    }

    #[test]
    fn backbone_of_multi_exit_keeps_every_block() {
        let net = chain(4);
        let multi = net.with_exit_heads(&HeadSpec::default());
        let bb = multi.backbone();
        assert_eq!(bb.num_blocks(), 4);
        assert!(bb.exits().is_empty());
        assert!(bb.head_start().is_none());
    }

    #[test]
    #[should_panic(expected = "multi-exit")]
    fn with_head_rejects_multi_exit_networks() {
        let multi = chain(2).with_exit_heads(&HeadSpec::default());
        let _ = multi.with_head(&HeadSpec::default());
    }

    /// The loop `cut_at_node` ran before it shared nodes: every kept node
    /// gets a fresh name and a remapped input list.
    fn remapping_cut(net: &Network, v: NodeId, name: &str) -> Network {
        let keep = net.ancestor_mask(v);
        let mut remap = vec![usize::MAX; net.nodes.len()];
        let mut nodes = Vec::new();
        let mut shapes = Vec::new();
        for (idx, node) in net.nodes.iter().enumerate() {
            if !keep[idx] {
                continue;
            }
            let new_id = NodeId(nodes.len());
            remap[idx] = new_id.0;
            let inputs: Vec<NodeId> = node.inputs.iter().map(|i| NodeId(remap[i.0])).collect();
            nodes.push(Node::new(new_id, node.name().to_owned(), node.kind, inputs));
            shapes.push(net.shapes[idx]);
        }
        let blocks = net
            .blocks
            .iter()
            .filter(|b| b.nodes.iter().all(|n| keep[n.0]))
            .map(|b| Block {
                name: b.name.clone(),
                nodes: b.nodes.iter().map(|n| NodeId(remap[n.0])).collect(),
                output: NodeId(remap[b.output.0]),
            })
            .collect();
        Network {
            name: name.to_owned(),
            input_shape: net.input_shape,
            nodes,
            shapes,
            output: NodeId(remap[v.0]),
            blocks,
            head_start: None,
            exits: Vec::new(),
        }
    }

    #[test]
    fn blockwise_cuts_share_every_kept_node_with_their_source() {
        let head = HeadSpec::default();
        let mut cuts = 0;
        for source in crate::zoo::extended_networks() {
            let nb = source.num_blocks();
            for k in 0..nb {
                let cut = source.cut_blocks(k).unwrap();
                let at = cut.name().to_owned();
                let reference = remapping_cut(&source, source.blocks[nb - 1 - k].output, &at);
                assert_eq!(cut, reference, "{at}");
                for (kept, node) in cut.nodes.iter().zip(&source.nodes) {
                    assert!(Arc::ptr_eq(&kept.name, &node.name), "{at}: {}", node.name);
                    assert!(
                        Arc::ptr_eq(&kept.inputs, &node.inputs),
                        "{at}: {}",
                        node.name
                    );
                }
                assert_eq!(cut.with_head(&head), reference.with_head(&head), "{at}");
                cuts += 1;
            }
        }
        assert_eq!(cuts, 163);
    }

    #[test]
    fn layer_cuts_that_drop_a_branch_remap_their_inputs() {
        // Fig. 4's per-layer cuts of Inception-v3: a cut inside an
        // inception module keeps only some of its branches, so the nodes
        // after a dropped branch move, and so do the ids some of them read.
        let source = crate::zoo::inception_v3();
        let cutpoints = source.layer_cutpoints();
        let (mut gapped_cuts, mut remapped_cuts) = (0, 0);
        for &v in &cutpoints {
            let cut = source.cut_at_node(v, "inception_v3/layer");
            assert_eq!(cut, remapping_cut(&source, v, "inception_v3/layer"), "{v}");
            let keep = source.ancestor_mask(v);
            let sources = source
                .nodes
                .iter()
                .zip(keep)
                .filter_map(|(n, k)| k.then_some(n));
            let mut remapped = 0;
            for (kept, node) in cut.nodes.iter().zip(sources) {
                assert!(Arc::ptr_eq(&kept.name, &node.name), "{v}: {}", node.name);
                if !Arc::ptr_eq(&kept.inputs, &node.inputs) {
                    assert_ne!(kept.inputs, node.inputs, "{v}: {} kept its ids", node.name);
                    remapped += 1;
                }
            }
            gapped_cuts += usize::from(cut.len() < v.0 + 1);
            remapped_cuts += usize::from(remapped > 0);
        }
        assert_eq!(
            (remapped_cuts, gapped_cuts, cutpoints.len()),
            (215, 246, 310)
        );
    }

    #[test]
    fn cut_at_node_keeps_only_ancestors() {
        // Diamond: input -> a -> add, input -> c -> add; cutting at `a`
        // must drop `c` and `add`.
        let mut b = NetworkBuilder::new("d", Shape::map(3, 8, 8));
        let x = b.input();
        let a = b.conv(x, 8, 3, 1, Padding::Same, "a");
        let c = b.conv(x, 8, 3, 1, Padding::Same, "c");
        let s = b.add(&[a, c], "sum");
        let net = b.finish(s).unwrap();
        let cut = net.cut_at_node(a, "d/cut1");
        assert_eq!(cut.len(), 2); // input + a
        assert_eq!(cut.output_shape(), Shape::map(8, 8, 8));
        cut.check_built().unwrap();
    }
}
