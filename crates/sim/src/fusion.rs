//! Layer fusion pass, mirroring the deployment optimization the paper
//! enables (§III-B-4): convolution + batch-norm + activation chains (and
//! residual adds) collapse into single kernels, eliminating intermediate
//! memory round-trips and kernel launches.

use netcut_graph::{layer_stats, LayerKind, Network, NodeId};

/// One fused device kernel: a primary node plus the chain of elementwise
/// nodes absorbed into it.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedKernel {
    /// Node whose operation dominates the kernel (first member).
    pub primary: NodeId,
    /// All member nodes in topological order (primary first).
    pub members: Vec<NodeId>,
    /// Summed FLOPs of all members.
    pub flops: u64,
    /// Bytes read from memory: inputs crossing the kernel boundary plus
    /// member weights (FP32 accounting; the device scales by precision).
    pub bytes_read: u64,
    /// The weight portion of [`bytes_read`](Self::bytes_read) — streamed
    /// once per batch rather than once per sample.
    pub weight_bytes: u64,
    /// Bytes written: the kernel's final output.
    pub bytes_written: u64,
    /// Elements of the kernel's final output (occupancy driver).
    pub output_elements: u64,
    /// Kind of the primary node (efficiency driver).
    pub primary_kind: LayerKind,
}

impl FusedKernel {
    /// The node producing this kernel's output (last member).
    pub fn tail(&self) -> NodeId {
        *self.members.last().expect("kernel has at least one member")
    }
}

/// `true` for kinds that can be absorbed into a preceding producer kernel.
/// Besides elementwise ops, global-average-pool and dense layers fuse into
/// their producer (TensorRT-style pooling/GEMM fusion) — this is what makes
/// the classification head nearly free on the real device, a property the
/// paper's ratio estimator implicitly relies on.
fn absorbable(kind: &LayerKind) -> bool {
    matches!(
        kind,
        LayerKind::BatchNorm
            | LayerKind::Activation(_)
            | LayerKind::Dropout { .. }
            | LayerKind::Flatten
            | LayerKind::Add
            | LayerKind::GlobalAvgPool
            | LayerKind::Dense { .. }
    )
}

/// Runs the fusion pass over `net`, returning the kernel list the device
/// would actually launch, in execution order.
///
/// A node is absorbed into the kernel producing its input when (a) its kind
/// is elementwise-fusable (batch-norm, activation, dropout, flatten, add),
/// and (b) that producer output has no other consumer. For `Add`, the
/// *latest* input in topological order is the fusion candidate (the residual
/// branch computed last), matching TensorRT-style conv+add+relu fusion.
pub fn fuse_network(net: &Network) -> Vec<FusedKernel> {
    let (mut kernels, owner) = fuse_costs(net);
    for (node, kernel) in owner.iter().enumerate() {
        if let Some(k) = *kernel {
            kernels[k].members.push(NodeId::new(node));
        }
    }
    kernels
}

/// The pass behind [`fuse_network`]: every kernel with its costs but an
/// empty member list, and the kernel each node joined (`None` for the input
/// placeholder). The latency sums read the costs alone, so they build no
/// member lists.
pub(crate) fn fuse_costs(net: &Network) -> (Vec<FusedKernel>, Vec<Option<usize>>) {
    let n = net.len();
    let mut consumers = vec![0usize; n];
    for node in net.nodes() {
        for &inp in node.inputs() {
            consumers[inp.index()] += 1;
        }
    }
    let mut owner: Vec<Option<usize>> = vec![None; n];
    let mut kernels: Vec<FusedKernel> = Vec::new();
    for node in net.nodes() {
        let id = node.id();
        let kind = *node.kind();
        if matches!(kind, LayerKind::Input) {
            continue;
        }
        // Try to absorb into the kernel ending at the fusion-candidate
        // input. A candidate with one consumer (this node) still ends its
        // kernel: only a consumer of it could have been absorbed after it.
        let candidate = if absorbable(&kind) {
            node.inputs().iter().copied().max_by_key(|i| i.index())
        } else {
            None
        };
        let absorbed = candidate
            .filter(|cand| consumers[cand.index()] == 1)
            .and_then(|cand| owner[cand.index()]);
        let ls = layer_stats(net, id);
        let k_idx = match absorbed {
            Some(k_idx) => {
                let kernel = &mut kernels[k_idx];
                kernel.flops += ls.flops;
                // The absorbed node's weights still stream from memory, and
                // any *other* inputs (e.g. the residual branch of an Add)
                // cross the kernel boundary.
                kernel.bytes_read += ls.params * 4;
                kernel.weight_bytes += ls.params * 4;
                for &inp in node.inputs() {
                    if Some(inp) != candidate {
                        kernel.bytes_read += net.shape(inp).elements() as u64 * 4;
                    }
                }
                kernel.bytes_written = ls.bytes_written;
                // Occupancy is driven by the kernel's widest member: a
                // fused reduction (GAP/dense) shrinks the *output*, not the
                // parallelism of the dominant operation.
                kernel.output_elements = kernel.output_elements.max(ls.output_elements);
                k_idx
            }
            None => {
                kernels.push(FusedKernel {
                    primary: id,
                    members: Vec::new(),
                    flops: ls.flops,
                    bytes_read: ls.bytes_read,
                    weight_bytes: ls.params * 4,
                    bytes_written: ls.bytes_written,
                    output_elements: ls.output_elements,
                    primary_kind: kind,
                });
                kernels.len() - 1
            }
        };
        owner[id.index()] = Some(k_idx);
    }
    (kernels, owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::{NetworkBuilder, Padding, Shape};

    #[test]
    fn conv_bn_relu_fuses_to_one_kernel() {
        let mut b = NetworkBuilder::new("f", Shape::map(3, 16, 16));
        let x = b.input();
        let y = b.conv_bn_relu(x, 8, 3, 1, Padding::Same, "c");
        let net = b.finish(y).unwrap();
        let kernels = fuse_network(&net);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].members.len(), 3);
    }

    #[test]
    fn branch_point_blocks_fusion() {
        // conv feeds both a BN and a second conv: the BN must not absorb.
        let mut b = NetworkBuilder::new("f", Shape::map(3, 16, 16));
        let x = b.input();
        let c = b.conv(x, 8, 3, 1, Padding::Same, "c");
        let bn = b.batch_norm(c, "bn");
        let c2 = b.conv(c, 8, 3, 1, Padding::Same, "c2");
        let s = b.add(&[bn, c2], "sum");
        let net = b.finish(s).unwrap();
        let kernels = fuse_network(&net);
        // conv | bn | conv2+add — the Add fuses into conv2 (its latest
        // input with a single consumer).
        assert_eq!(kernels.len(), 3);
        let last = kernels.last().unwrap();
        assert_eq!(last.members.len(), 2);
    }

    #[test]
    fn residual_add_fuses_and_counts_shortcut_bytes() {
        let mut b = NetworkBuilder::new("f", Shape::map(8, 8, 8));
        let x = b.input();
        let c = b.conv(x, 8, 3, 1, Padding::Same, "c");
        let s = b.add(&[x, c], "sum");
        let r = b.activation(s, netcut_graph::Activation::Relu, "relu");
        let net = b.finish(r).unwrap();
        let kernels = fuse_network(&net);
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.members.len(), 3);
        // Shortcut input (8×8×8 FP32 = 2048 bytes) must be part of reads.
        let conv_only_reads = net.layer_stats()[c.index()].bytes_read;
        assert_eq!(k.bytes_read, conv_only_reads + 8 * 8 * 8 * 4);
    }

    #[test]
    fn fusion_preserves_total_flops() {
        let net = netcut_graph::zoo::mobilenet_v2(1.0);
        let kernels = fuse_network(&net);
        let fused_flops: u64 = kernels.iter().map(|k| k.flops).sum();
        assert_eq!(fused_flops, net.stats().total_flops);
        // Far fewer kernels than compute nodes.
        assert!((kernels.len() as u64) < net.stats().compute_nodes / 2);
    }

    #[test]
    fn kernels_cover_all_compute_nodes_once() {
        let net = netcut_graph::zoo::resnet50();
        let kernels = fuse_network(&net);
        // BTreeSet keeps even test-side iteration order deterministic
        // (the detlint pass bans unordered collections in this crate's
        // runtime code; tests follow the same convention).
        let mut seen = std::collections::BTreeSet::new();
        for k in &kernels {
            for m in &k.members {
                assert!(seen.insert(*m), "node in two kernels");
            }
        }
        let compute: usize = net
            .nodes()
            .iter()
            .filter(|n| !matches!(n.kind(), LayerKind::Input))
            .count();
        assert_eq!(seen.len(), compute);
    }
}
