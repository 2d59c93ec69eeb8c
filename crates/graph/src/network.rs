use crate::error::GraphError;
use crate::layer::{Activation, LayerKind, Padding};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of a node within its [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates a node id from a raw index. Only meaningful with respect to
    /// a specific [`Network`]'s node ordering.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation in the network DAG.
///
/// The name and the input list are shared, immutable slices: cloning a
/// node, or keeping it in a cut whose input ids do not move, copies two
/// pointers rather than the text and the list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: Arc<str>,
    pub(crate) kind: LayerKind,
    pub(crate) inputs: Arc<[NodeId]>,
}

impl Node {
    /// Constructs a node from raw parts. Intended for importers and
    /// verification tooling that reassemble graphs outside
    /// [`NetworkBuilder`]; nothing is checked here, so anything built this
    /// way should be run through the `netcut-verify` analyzer.
    pub fn new(
        id: NodeId,
        name: impl Into<Arc<str>>,
        kind: LayerKind,
        inputs: impl Into<Arc<[NodeId]>>,
    ) -> Self {
        Node {
            id,
            name: name.into(),
            kind,
            inputs: inputs.into(),
        }
    }

    /// Identifier of this node.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name (e.g. `block3a/conv1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation this node performs.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Ids of the nodes feeding this node, in argument order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }
}

/// One early-exit classifier head of a multi-exit network: the attachment
/// point (a block boundary) plus the contiguous node range implementing the
/// head (GAP → FC/ReLU… → FC/Softmax), ending in the exit's class-vector
/// output.
///
/// Exit heads are appended after the backbone by
/// [`Network::with_exit_heads`]; they are pure sinks (no backbone node and
/// no other exit consumes their nodes), so attaching them never perturbs
/// the backbone structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExitPoint {
    pub(crate) block: usize,
    pub(crate) head_start: NodeId,
    pub(crate) output: NodeId,
}

impl ExitPoint {
    /// Constructs an exit point from raw parts, unchecked; see
    /// [`Node::new`]. Run the `netcut-verify` analyzer (rules NC013+) over
    /// anything assembled this way.
    pub fn new(block: usize, head_start: NodeId, output: NodeId) -> Self {
        ExitPoint {
            block,
            head_start,
            output,
        }
    }

    /// Index of the backbone block whose boundary this exit taps.
    pub fn block(self) -> usize {
        self.block
    }

    /// First node of this exit's head.
    pub fn head_start(self) -> NodeId {
        self.head_start
    }

    /// The exit's class-vector output node (the softmax).
    pub fn output(self) -> NodeId {
        self.output
    }
}

/// A removable backbone unit ("block" in the paper's terminology): a
/// contiguous run of nodes ending in the block's output node.
///
/// Blockwise layer removal cuts the network after the output of block
/// `num_blocks - k - 1`, discarding blocks `num_blocks - k ..`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub(crate) name: String,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) output: NodeId,
}

impl Block {
    /// Constructs a block from raw parts, unchecked; see [`Node::new`].
    pub fn new(name: impl Into<String>, nodes: Vec<NodeId>, output: NodeId) -> Self {
        Block {
            name: name.into(),
            nodes,
            output,
        }
    }

    /// Block name (e.g. `res4b`, `inception_b2`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All node ids belonging to this block, in topological order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The node whose activation is this block's output (a valid cutpoint).
    pub fn output(&self) -> NodeId {
        self.output
    }
}

/// A static description of a convolutional network: a topologically ordered
/// DAG of [`Node`]s with inferred activation [`Shape`]s, a backbone
/// [`Block`] decomposition, and an optional classification head.
///
/// Networks are built via [`NetworkBuilder`] and trimmed via the methods in
/// the `trim` module ([`Network::cut_blocks`], [`Network::cut_at_node`]).
///
/// # Example
///
/// ```
/// use netcut_graph::{NetworkBuilder, Padding, Shape, Activation};
///
/// # fn main() -> Result<(), netcut_graph::GraphError> {
/// let mut b = NetworkBuilder::new("tiny", Shape::map(3, 32, 32));
/// let x = b.input();
/// b.begin_block("stem");
/// let x = b.conv_bn_relu(x, 8, 3, 2, Padding::Same, "stem");
/// b.end_block(x)?;
/// b.mark_head_start();
/// let x = b.global_avg_pool(x, "gap");
/// let x = b.dense(x, 10, "fc");
/// let x = b.activation(x, Activation::Softmax, "softmax");
/// let net = b.finish(x)?;
/// assert_eq!(net.num_blocks(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) input_shape: Shape,
    pub(crate) nodes: Vec<Node>,
    pub(crate) shapes: Vec<Shape>,
    pub(crate) output: NodeId,
    pub(crate) blocks: Vec<Block>,
    /// First node id of the classification head, if one is attached. Nodes
    /// from this id onward are excluded from layer-removal accounting, per
    /// the paper ("N is the total number of layers excluding classification
    /// layers").
    pub(crate) head_start: Option<NodeId>,
    /// Early-exit heads of a multi-exit network, in depth order (exit `k`
    /// taps the boundary of block `k`). Empty for single-output networks.
    pub(crate) exits: Vec<ExitPoint>,
}

impl Network {
    /// The architecture name, e.g. `mobilenet_v1_0.50` or
    /// `resnet50/cut3` for a trimmed variant.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network (e.g. after structural transformations that
    /// should keep the family identity).
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Shape of the input placeholder.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the network has no nodes (never the case for built
    /// networks).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Inferred output shape of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id.0]
    }

    /// All inferred node output shapes, indexed like [`Network::nodes`].
    /// On well-formed networks this always has one entry per node; the
    /// `netcut-verify` analyzer checks that before trusting lookups.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// The graph output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Shape of the network output.
    pub fn output_shape(&self) -> Shape {
        self.shapes[self.output.0]
    }

    /// Backbone blocks in order from input to output.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of removable backbone blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// First node of the classification head, if present. For a multi-exit
    /// network this is the first node of the shallowest exit's head — every
    /// exit head counts as head territory.
    pub fn head_start(&self) -> Option<NodeId> {
        self.head_start
    }

    /// The early-exit heads in depth order (empty for single-output
    /// networks).
    pub fn exits(&self) -> &[ExitPoint] {
        &self.exits
    }

    /// Number of early-exit heads.
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// `true` when the network carries more than one exit head.
    pub fn is_multi_exit(&self) -> bool {
        self.exits.len() > 1
    }

    /// Replaces the exit-point table, unchecked. The escape hatch for
    /// importers and verification tooling that assemble multi-exit graphs
    /// outside [`Network::with_exit_heads`]; run the `netcut-verify`
    /// analyzer over the result.
    #[must_use]
    pub fn with_exit_points(mut self, exits: Vec<ExitPoint>) -> Network {
        self.exits = exits;
        self
    }

    /// `true` if `id` belongs to the classification head.
    pub fn is_head_node(&self, id: NodeId) -> bool {
        match self.head_start {
            Some(h) => id.0 >= h.0,
            None => false,
        }
    }

    /// Iterator over backbone (non-head) nodes.
    pub fn backbone_nodes(&self) -> impl Iterator<Item = &Node> {
        let head = self.head_start.map_or(self.nodes.len(), |h| h.0);
        self.nodes[..head].iter()
    }

    /// Number of layers in the framework sense (every node except the
    /// input placeholder — batch-norms, activations and pools included, as
    /// Keras counts them). The paper's `ResNet/94`-style labels and the
    /// Fig. 5 x-axis use this count.
    pub fn layer_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// [`layer_count`](Self::layer_count) restricted to the backbone
    /// (classification head excluded).
    pub fn backbone_layer_count(&self) -> usize {
        self.backbone_nodes()
            .filter(|n| !matches!(n.kind, LayerKind::Input))
            .count()
    }

    /// Number of *weighted* layers (convolutions and dense layers) in the
    /// backbone — the paper's notion of network depth.
    pub fn weighted_layer_count(&self) -> usize {
        self.backbone_nodes()
            .filter(|n| n.kind.is_weighted())
            .count()
    }

    /// Number of weighted layers including the classification head.
    pub fn total_weighted_layer_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_weighted()).count()
    }

    /// Assembles a network from raw parts without any validation.
    ///
    /// This is the escape hatch for importers (deserialized JSON, external
    /// graph formats) and for verification tooling that needs to construct
    /// deliberately broken graphs. Nothing is checked: run the
    /// `netcut-verify` analyzer over the result before trusting it. Graphs
    /// built through [`NetworkBuilder`] never need this.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: impl Into<String>,
        input_shape: Shape,
        nodes: Vec<Node>,
        shapes: Vec<Shape>,
        output: NodeId,
        blocks: Vec<Block>,
        head_start: Option<NodeId>,
    ) -> Network {
        Network {
            name: name.into(),
            input_shape,
            nodes,
            shapes,
            output,
            blocks,
            head_start,
            exits: Vec::new(),
        }
    }

    /// Minimal well-formedness check run by [`NetworkBuilder::finish`]:
    /// non-empty, topological input ordering, and inferable shapes. The
    /// full invariant surface (block boundaries, head structure, stats
    /// coherence, …) lives in the `netcut-verify` analyzer, which callers
    /// that assemble or deserialize networks should prefer.
    pub(crate) fn check_built(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyNetwork);
        }
        for node in &self.nodes {
            for &inp in node.inputs.iter() {
                if inp.0 >= node.id.0 {
                    return Err(GraphError::InvalidInput {
                        node: node.name().to_owned(),
                    });
                }
            }
        }
        // Re-infer shapes and compare.
        let mut shapes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let inferred = infer_shape(node, &shapes, self.input_shape)?;
            shapes.push(inferred);
        }
        debug_assert_eq!(shapes, self.shapes);
        Ok(())
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {} blocks, {} weighted layers)",
            self.name,
            self.nodes.len(),
            self.blocks.len(),
            self.total_weighted_layer_count()
        )
    }
}

/// Infers the output shape of `node` given the shapes of all earlier nodes
/// (`shapes[i]` is the output shape of node `i`; only the node's input
/// indices are read).
///
/// This is the single source of truth for shape propagation: the builder
/// uses it node-by-node, and the `netcut-verify` analyzer re-runs it along
/// every edge to detect corrupted graphs.
///
/// # Errors
///
/// Returns a [`GraphError`] when the input shapes are incompatible with the
/// node's kind (mismatched `Add` operands, wrong rank, …).
pub fn infer_shape(node: &Node, shapes: &[Shape], input_shape: Shape) -> Result<Shape, GraphError> {
    let in_shape = |i: usize| -> Shape { shapes[node.inputs[i].0] };
    let require_map = |s: Shape| -> Result<(usize, usize, usize), GraphError> {
        match s {
            Shape::Map { c, h, w } => Ok((c, h, w)),
            Shape::Vector { .. } => Err(GraphError::WrongRank {
                node: node.name().to_owned(),
            }),
        }
    };
    Ok(match node.kind {
        LayerKind::Input => input_shape,
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let (_, h, w) = require_map(in_shape(0))?;
            Shape::map(
                out_channels,
                padding.output_dim(h, kernel, stride),
                padding.output_dim(w, kernel, stride),
            )
        }
        LayerKind::Conv2dRect {
            out_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
        } => {
            let (_, h, w) = require_map(in_shape(0))?;
            Shape::map(
                out_channels,
                padding.output_dim(h, kernel_h, stride),
                padding.output_dim(w, kernel_w, stride),
            )
        }
        LayerKind::DepthwiseConv2d {
            kernel,
            stride,
            padding,
        } => {
            let (c, h, w) = require_map(in_shape(0))?;
            Shape::map(
                c,
                padding.output_dim(h, kernel, stride),
                padding.output_dim(w, kernel, stride),
            )
        }
        LayerKind::Dense { units } => match in_shape(0) {
            Shape::Vector { .. } => Shape::vector(units),
            Shape::Map { .. } => {
                return Err(GraphError::WrongRank {
                    node: node.name().to_owned(),
                })
            }
        },
        LayerKind::BatchNorm | LayerKind::Activation(_) | LayerKind::Dropout { .. } => in_shape(0),
        LayerKind::MaxPool2d {
            kernel,
            stride,
            padding,
        }
        | LayerKind::AvgPool2d {
            kernel,
            stride,
            padding,
        } => {
            let (c, h, w) = require_map(in_shape(0))?;
            Shape::map(
                c,
                padding.output_dim(h, kernel, stride),
                padding.output_dim(w, kernel, stride),
            )
        }
        LayerKind::GlobalAvgPool => {
            let (c, _, _) = require_map(in_shape(0))?;
            Shape::vector(c)
        }
        LayerKind::Add => {
            let a = in_shape(0);
            for i in 1..node.inputs.len() {
                if in_shape(i) != a {
                    return Err(GraphError::ShapeMismatch {
                        node: node.name().to_owned(),
                        detail: format!("{a} vs {}", in_shape(i)),
                    });
                }
            }
            a
        }
        LayerKind::Concat => {
            let (c0, h0, w0) = require_map(in_shape(0))?;
            let mut c = c0;
            for i in 1..node.inputs.len() {
                let (ci, hi, wi) = require_map(in_shape(i))?;
                if (hi, wi) != (h0, w0) {
                    return Err(GraphError::ShapeMismatch {
                        node: node.name().to_owned(),
                        detail: format!("{h0}x{w0} vs {hi}x{wi}"),
                    });
                }
                c += ci;
            }
            Shape::map(c, h0, w0)
        }
        LayerKind::Flatten => Shape::vector(in_shape(0).elements()),
    })
}

/// Incremental builder for [`Network`]s.
///
/// Nodes are appended in topological order; blocks are delimited with
/// [`begin_block`](Self::begin_block) / [`end_block`](Self::end_block); the
/// classification head is marked with
/// [`mark_head_start`](Self::mark_head_start). See [`Network`] for a full
/// example.
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    input_shape: Shape,
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    blocks: Vec<Block>,
    open_block: Option<(String, usize)>,
    head_start: Option<NodeId>,
    input_id: Option<NodeId>,
}

impl NetworkBuilder {
    /// Starts building a network named `name` with the given input shape.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        NetworkBuilder {
            name: name.into(),
            input_shape,
            nodes: Vec::new(),
            shapes: Vec::new(),
            blocks: Vec::new(),
            open_block: None,
            head_start: None,
            input_id: None,
        }
    }

    /// Adds (or returns the existing) input placeholder node.
    pub fn input(&mut self) -> NodeId {
        if let Some(id) = self.input_id {
            return id;
        }
        let id = self.push(LayerKind::Input, &[], "input");
        self.input_id = Some(id);
        id
    }

    fn push(&mut self, kind: LayerKind, inputs: &[NodeId], name: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        let node = Node::new(id, name, kind, inputs);
        let shape = infer_shape(&node, &self.shapes, self.input_shape)
            .unwrap_or_else(|e| panic!("shape inference failed while building `{name}`: {e}"));
        self.nodes.push(node);
        self.shapes.push(shape);
        id
    }

    /// Appends a raw node of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if shape inference fails for the new node (mismatched `Add`
    /// inputs, rank errors) — builder misuse is a programming error.
    pub fn add_node(&mut self, kind: LayerKind, inputs: &[NodeId], name: &str) -> NodeId {
        self.push(kind, inputs, name)
    }

    /// Appends a square convolution.
    pub fn conv(
        &mut self,
        input: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        self.push(
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            },
            &[input],
            name,
        )
    }

    /// Appends a rectangular convolution (e.g. Inception's 1×7).
    #[allow(clippy::too_many_arguments)]
    pub fn conv_rect(
        &mut self,
        input: NodeId,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        self.push(
            LayerKind::Conv2dRect {
                out_channels,
                kernel_h,
                kernel_w,
                stride,
                padding,
            },
            &[input],
            name,
        )
    }

    /// Appends a depthwise convolution.
    pub fn depthwise_conv(
        &mut self,
        input: NodeId,
        kernel: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        self.push(
            LayerKind::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            },
            &[input],
            name,
        )
    }

    /// Appends a batch-normalization node.
    pub fn batch_norm(&mut self, input: NodeId, name: &str) -> NodeId {
        self.push(LayerKind::BatchNorm, &[input], name)
    }

    /// Appends an activation node.
    pub fn activation(&mut self, input: NodeId, act: Activation, name: &str) -> NodeId {
        self.push(LayerKind::Activation(act), &[input], name)
    }

    /// Appends conv → batch-norm → ReLU, the ubiquitous composite; returns
    /// the id of the ReLU output. Names are derived as `{name}/conv` etc.
    pub fn conv_bn_relu(
        &mut self,
        input: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        let c = self.conv(
            input,
            out_channels,
            kernel,
            stride,
            padding,
            &format!("{name}/conv"),
        );
        let b = self.batch_norm(c, &format!("{name}/bn"));
        self.activation(b, Activation::Relu, &format!("{name}/relu"))
    }

    /// Appends rect-conv → batch-norm → ReLU.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_rect_bn_relu(
        &mut self,
        input: NodeId,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        let c = self.conv_rect(
            input,
            out_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
            &format!("{name}/conv"),
        );
        let b = self.batch_norm(c, &format!("{name}/bn"));
        self.activation(b, Activation::Relu, &format!("{name}/relu"))
    }

    /// Appends a fully-connected layer.
    pub fn dense(&mut self, input: NodeId, units: usize, name: &str) -> NodeId {
        self.push(LayerKind::Dense { units }, &[input], name)
    }

    /// Appends a max-pool node.
    pub fn max_pool(
        &mut self,
        input: NodeId,
        kernel: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        self.push(
            LayerKind::MaxPool2d {
                kernel,
                stride,
                padding,
            },
            &[input],
            name,
        )
    }

    /// Appends an average-pool node.
    pub fn avg_pool(
        &mut self,
        input: NodeId,
        kernel: usize,
        stride: usize,
        padding: Padding,
        name: &str,
    ) -> NodeId {
        self.push(
            LayerKind::AvgPool2d {
                kernel,
                stride,
                padding,
            },
            &[input],
            name,
        )
    }

    /// Appends a global-average-pool node.
    pub fn global_avg_pool(&mut self, input: NodeId, name: &str) -> NodeId {
        self.push(LayerKind::GlobalAvgPool, &[input], name)
    }

    /// Appends an elementwise-add node.
    pub fn add(&mut self, inputs: &[NodeId], name: &str) -> NodeId {
        self.push(LayerKind::Add, inputs, name)
    }

    /// Appends a channel-concat node.
    pub fn concat(&mut self, inputs: &[NodeId], name: &str) -> NodeId {
        self.push(LayerKind::Concat, inputs, name)
    }

    /// Appends a flatten node.
    pub fn flatten(&mut self, input: NodeId, name: &str) -> NodeId {
        self.push(LayerKind::Flatten, &[input], name)
    }

    /// Appends a dropout node (identity at inference).
    pub fn dropout(&mut self, input: NodeId, rate_percent: u8, name: &str) -> NodeId {
        self.push(LayerKind::Dropout { rate_percent }, &[input], name)
    }

    /// Opens a new removable block; all nodes added until
    /// [`end_block`](Self::end_block) belong to it.
    ///
    /// # Panics
    ///
    /// Panics if a block is already open (blocks cannot nest).
    pub fn begin_block(&mut self, name: impl Into<String>) {
        assert!(
            self.open_block.is_none(),
            "begin_block called while a block is open"
        );
        self.open_block = Some((name.into(), self.nodes.len()));
    }

    /// Closes the currently open block, recording `output` as its cutpoint.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyBlock`] if no node was added since
    /// [`begin_block`](Self::begin_block).
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn end_block(&mut self, output: NodeId) -> Result<(), GraphError> {
        let (name, start) = self
            .open_block
            .take()
            .expect("end_block called with no open block");
        if start == self.nodes.len() {
            return Err(GraphError::EmptyBlock { block: name });
        }
        let nodes = (start..self.nodes.len()).map(NodeId).collect();
        self.blocks.push(Block {
            name,
            nodes,
            output,
        });
        Ok(())
    }

    /// Marks the next node to be added as the start of the classification
    /// head. Head nodes are excluded from removal accounting.
    pub fn mark_head_start(&mut self) {
        self.head_start = Some(NodeId(self.nodes.len()));
    }

    /// Finalizes the network with `output` as the graph output.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyNetwork`] if no node was added.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open.
    pub fn finish(self, output: NodeId) -> Result<Network, GraphError> {
        assert!(
            self.open_block.is_none(),
            "finish called with an open block"
        );
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyNetwork);
        }
        let net = Network {
            name: self.name,
            input_shape: self.input_shape,
            nodes: self.nodes,
            shapes: self.shapes,
            output,
            blocks: self.blocks,
            head_start: self.head_start,
            exits: Vec::new(),
        };
        net.check_built()?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny", Shape::map(3, 32, 32));
        let x = b.input();
        b.begin_block("b1");
        let x = b.conv_bn_relu(x, 8, 3, 2, Padding::Same, "c1");
        b.end_block(x).unwrap();
        b.begin_block("b2");
        let x = b.conv_bn_relu(x, 16, 3, 2, Padding::Same, "c2");
        b.end_block(x).unwrap();
        b.mark_head_start();
        let g = b.global_avg_pool(x, "gap");
        let d = b.dense(g, 5, "fc");
        let s = b.activation(d, Activation::Softmax, "softmax");
        b.finish(s).unwrap()
    }

    #[test]
    fn builder_produces_valid_network() {
        let net = tiny();
        assert_eq!(net.num_blocks(), 2);
        assert_eq!(net.output_shape(), Shape::vector(5));
        assert_eq!(net.weighted_layer_count(), 2);
        assert_eq!(net.total_weighted_layer_count(), 3);
        net.check_built().unwrap();
    }

    #[test]
    fn shapes_follow_strides() {
        let net = tiny();
        let b1_out = net.blocks()[0].output();
        assert_eq!(net.shape(b1_out), Shape::map(8, 16, 16));
        let b2_out = net.blocks()[1].output();
        assert_eq!(net.shape(b2_out), Shape::map(16, 8, 8));
    }

    #[test]
    fn head_nodes_are_flagged() {
        let net = tiny();
        let head = net.head_start().unwrap();
        assert!(net.is_head_node(head));
        assert!(net.is_head_node(net.output()));
        assert!(!net.is_head_node(net.blocks()[1].output()));
    }

    #[test]
    fn add_requires_matching_shapes() {
        let mut b = NetworkBuilder::new("bad", Shape::map(3, 8, 8));
        let x = b.input();
        let a = b.conv(x, 4, 3, 1, Padding::Same, "a");
        let c = b.conv(x, 8, 3, 1, Padding::Same, "c");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.add(&[a, c], "sum");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let mut b = NetworkBuilder::new("cat", Shape::map(3, 8, 8));
        let x = b.input();
        let a = b.conv(x, 4, 1, 1, Padding::Same, "a");
        let c = b.conv(x, 6, 1, 1, Padding::Same, "c");
        let cat = b.concat(&[a, c], "cat");
        let net = b.finish(cat).unwrap();
        assert_eq!(net.output_shape(), Shape::map(10, 8, 8));
    }

    #[test]
    fn empty_block_is_rejected() {
        let mut b = NetworkBuilder::new("e", Shape::map(3, 8, 8));
        let x = b.input();
        b.begin_block("empty");
        assert!(matches!(b.end_block(x), Err(GraphError::EmptyBlock { .. })));
    }

    #[test]
    fn display_mentions_structure() {
        let s = tiny().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2 blocks"));
    }
}
