//! The individual rules (NC001–NC016), the table of the structural ones,
//! and the [`Analyzer`] that runs them.
//!
//! Rules are deliberately defensive: each one guards every index before
//! dereferencing, so the analyzer never panics on arbitrarily broken graphs
//! (that is the whole point — broken graphs are its input domain). Rules do
//! not repeat each other's findings: e.g. the stats rule silently skips
//! networks whose shapes are already inconsistent, because NC003 owns that
//! report.

use crate::diagnostic::{Code, Diagnostic, GraphSpan, Report, Severity};
use netcut_graph::{infer_shape, HeadSpec, LayerKind, Network, Node, Shape};
use netcut_obs as obs;

// ---------------------------------------------------------------------------
// Shared guards
// ---------------------------------------------------------------------------

/// `true` when ids are topologically ordered, one shape is stored per node,
/// and re-inference reproduces every stored shape. Rules that *consume*
/// shapes (stats, estimator features) use this to defer to NC002/NC003
/// instead of double-reporting or panicking.
fn shapes_fully_consistent(net: &Network) -> bool {
    let n = net.len();
    if n == 0 || net.shapes().len() != n || net.output().index() >= n {
        return false;
    }
    for (i, node) in net.nodes().iter().enumerate() {
        if node.id().index() != i || node.inputs().iter().any(|inp| inp.index() >= i) {
            return false;
        }
        match infer_shape(node, net.shapes(), net.input_shape()) {
            Ok(s) if s == net.shape(node.id()) => {}
            _ => return false,
        }
    }
    true
}

fn node_span(node: &Node) -> GraphSpan {
    GraphSpan::Node {
        id: node.id(),
        name: node.name().to_owned(),
    }
}

fn block_span(index: usize, net: &Network) -> GraphSpan {
    GraphSpan::Block {
        index,
        name: net.blocks()[index].name().to_owned(),
    }
}

// ---------------------------------------------------------------------------
// NC001 empty-network
// ---------------------------------------------------------------------------

fn empty_network(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.is_empty() {
        out.push(Diagnostic::new(
            Code::NC001,
            GraphSpan::Network,
            "network has no nodes",
        ));
    }
}

// ---------------------------------------------------------------------------
// NC002 topological-order
// ---------------------------------------------------------------------------

fn topological_order(net: &Network, out: &mut Vec<Diagnostic>) {
    for (i, node) in net.nodes().iter().enumerate() {
        if node.id().index() != i {
            out.push(Diagnostic::new(
                Code::NC002,
                node_span(node),
                format!("stored id {} disagrees with position {i}", node.id()),
            ));
        }
        for &inp in node.inputs() {
            if inp.index() >= i {
                out.push(Diagnostic::new(
                    Code::NC002,
                    GraphSpan::Edge {
                        from: inp,
                        to: node.id(),
                        to_name: node.name().to_owned(),
                    },
                    format!("input {inp} does not strictly precede its consumer at position {i}"),
                ));
            }
        }
    }
    if net.output().index() >= net.len() && !net.is_empty() {
        out.push(Diagnostic::new(
            Code::NC002,
            GraphSpan::Network,
            format!(
                "graph output {} is outside the {}-node graph",
                net.output(),
                net.len()
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// NC003 shape-consistency
// ---------------------------------------------------------------------------

fn shape_consistency(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.shapes().len() != net.len() {
        out.push(Diagnostic::new(
            Code::NC003,
            GraphSpan::Network,
            format!(
                "{} stored shapes for {} nodes",
                net.shapes().len(),
                net.len()
            ),
        ));
        return;
    }
    for (i, node) in net.nodes().iter().enumerate() {
        // Out-of-order inputs are NC002's finding; re-inference would
        // read shapes the topology does not justify.
        if node.inputs().iter().any(|inp| inp.index() >= i) {
            continue;
        }
        match infer_shape(node, net.shapes(), net.input_shape()) {
            Err(e) => out.push(Diagnostic::new(
                Code::NC003,
                node_span(node),
                format!("shape inference fails: {e}"),
            )),
            Ok(inferred) => {
                let stored = net.shapes()[i];
                if inferred != stored {
                    out.push(Diagnostic::new(
                        Code::NC003,
                        node_span(node),
                        format!("stored shape {stored} but re-inference gives {inferred}"),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NC004 reachability
// ---------------------------------------------------------------------------

fn reachability(net: &Network, out: &mut Vec<Diagnostic>) {
    let n = net.len();
    if n == 0 || net.output().index() >= n {
        return; // NC001 / NC002 territory.
    }
    let mut reachable = vec![false; n];
    reachable[net.output().index()] = true;
    // Every exit of a multi-exit network is a live output: a shallow
    // exit head is not dangling just because the graph output is the
    // deepest one.
    for exit in net.exits() {
        if exit.output().index() < n {
            reachable[exit.output().index()] = true;
        }
    }
    // Inputs point backward on well-ordered graphs, so one reverse pass
    // marks every ancestor; forward references are skipped (NC002).
    for i in (0..n).rev() {
        if !reachable[i] {
            continue;
        }
        for &inp in net.nodes()[i].inputs() {
            if inp.index() < i {
                reachable[inp.index()] = true;
            }
        }
    }
    for (node, seen) in net.nodes().iter().zip(&reachable) {
        if !seen {
            out.push(Diagnostic::new(
                Code::NC004,
                node_span(node),
                "unreachable from the graph output (dangling node)",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// NC005 block-structure
// ---------------------------------------------------------------------------

fn block_structure(net: &Network, out: &mut Vec<Diagnostic>) {
    let n = net.len();
    for (bi, block) in net.blocks().iter().enumerate() {
        if block.nodes().is_empty() {
            out.push(Diagnostic::new(
                Code::NC005,
                block_span(bi, net),
                "block owns no nodes",
            ));
        }
        for &id in block.nodes() {
            if id.index() >= n {
                out.push(Diagnostic::new(
                    Code::NC005,
                    block_span(bi, net),
                    format!("block references {id}, outside the {n}-node graph"),
                ));
            }
        }
        if block.output().index() >= n {
            out.push(Diagnostic::new(
                Code::NC005,
                block_span(bi, net),
                format!(
                    "block output {} is outside the {n}-node graph",
                    block.output()
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// NC006 block-boundary
// ---------------------------------------------------------------------------

/// Maps each node index to the index of the block owning it. `None` when
/// block membership is itself broken in a way NC005/NC007 reports.
fn block_owner(net: &Network) -> Vec<Option<usize>> {
    let mut owner = vec![None; net.len()];
    for (bi, block) in net.blocks().iter().enumerate() {
        for &id in block.nodes() {
            if let Some(slot) = owner.get_mut(id.index()) {
                // First claim wins; duplicate ownership is NC007's finding.
                slot.get_or_insert(bi);
            }
        }
    }
    owner
}

fn block_boundary(net: &Network, out: &mut Vec<Diagnostic>) {
    let n = net.len();
    for (bi, block) in net.blocks().iter().enumerate() {
        if block.nodes().iter().any(|id| id.index() >= n) {
            continue; // NC005 territory.
        }
        for pair in block.nodes().windows(2) {
            if pair[1].index() != pair[0].index() + 1 {
                out.push(Diagnostic::new(
                    Code::NC006,
                    block_span(bi, net),
                    format!(
                        "block nodes are not contiguous: {} is followed by {}",
                        pair[0], pair[1]
                    ),
                ));
            }
        }
        if !block.nodes().is_empty() && !block.nodes().contains(&block.output()) {
            out.push(Diagnostic::new(
                Code::NC006,
                block_span(bi, net),
                format!(
                    "block output {} is not a member of the block",
                    block.output()
                ),
            ));
        }
    }
    // Interior taps: an edge from outside a block consuming anything but
    // the block's output means cutting after that block would sever a
    // live data dependency.
    let owner = block_owner(net);
    for node in net.nodes() {
        let consumer_block = owner.get(node.id().index()).copied().flatten();
        for &inp in node.inputs() {
            let Some(Some(bi)) = owner.get(inp.index()).copied() else {
                continue;
            };
            if inp != net.blocks()[bi].output() && consumer_block != Some(bi) {
                out.push(Diagnostic::new(
                    Code::NC006,
                    GraphSpan::Edge {
                        from: inp,
                        to: node.id(),
                        to_name: node.name().to_owned(),
                    },
                    format!(
                        "edge taps the interior of block #{bi} `{}`; a cut after that \
                         block would sever it",
                        net.blocks()[bi].name()
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NC007 cutpoint-monotonicity
// ---------------------------------------------------------------------------

fn cutpoint_monotonicity(net: &Network, out: &mut Vec<Diagnostic>) {
    for (bi, pair) in net.blocks().windows(2).enumerate() {
        if pair[1].output().index() <= pair[0].output().index() {
            out.push(Diagnostic::new(
                Code::NC007,
                block_span(bi + 1, net),
                format!(
                    "cutpoint {} does not come after the previous block's cutpoint {}",
                    pair[1].output(),
                    pair[0].output()
                ),
            ));
        }
    }
    let mut owner: Vec<Option<usize>> = vec![None; net.len()];
    for (bi, block) in net.blocks().iter().enumerate() {
        for &id in block.nodes() {
            match owner.get_mut(id.index()) {
                Some(slot @ None) => *slot = Some(bi),
                Some(Some(first)) => {
                    let first = *first;
                    out.push(Diagnostic::new(
                        Code::NC007,
                        block_span(bi, net),
                        format!(
                            "{id} is owned by both block #{first} `{}` and this block",
                            net.blocks()[first].name()
                        ),
                    ));
                }
                None => {} // Out of range: NC005 territory.
            }
        }
    }
    if let Some(head) = net.head_start() {
        for (bi, block) in net.blocks().iter().enumerate() {
            if block.nodes().iter().any(|id| id.index() >= head.index()) {
                out.push(Diagnostic::new(
                    Code::NC007,
                    block_span(bi, net),
                    format!("removable block extends into the head (from {head})"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NC008 head-structure
// ---------------------------------------------------------------------------

fn head_structure(net: &Network, out: &mut Vec<Diagnostic>) {
    let Some(head) = net.head_start() else {
        return; // Headless backbones (raw TRNs) are legitimate.
    };
    let n = net.len();
    if head.index() >= n {
        out.push(Diagnostic::new(
            Code::NC008,
            GraphSpan::Head { start: head },
            format!("head starts at {head}, outside the {n}-node graph"),
        ));
        return;
    }
    if net.output().index() < head.index() {
        out.push(Diagnostic::new(
            Code::NC008,
            GraphSpan::Head { start: head },
            format!(
                "graph output {} precedes the head; classification must come last",
                net.output()
            ),
        ));
    }
    // SqueezeNet classifies through a 1×1 convolution rather than a
    // Dense layer, so the requirement is "some weighted layer", not
    // "a Dense layer".
    if !net.nodes()[head.index()..]
        .iter()
        .any(|node| node.kind().is_weighted())
    {
        out.push(Diagnostic::new(
            Code::NC008,
            GraphSpan::Head { start: head },
            "head contains no weighted layer (no conv or dense)",
        ));
    }
    if net.output().index() < net.shapes().len() {
        let shape = net.shape(net.output());
        if !matches!(shape, Shape::Vector { .. }) {
            out.push(Diagnostic::new(
                Code::NC008,
                GraphSpan::Head { start: head },
                format!("network output is {shape}, not a class-probability vector"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// NC009 head-spec
// ---------------------------------------------------------------------------

/// Checks the attached head against an expected [`HeadSpec`] — the FC stack
/// `with_head` should have produced. Opt-in via
/// [`Analyzer::with_expected_head`] because raw zoo networks legitimately
/// carry their original ImageNet heads.
fn head_spec(spec: &HeadSpec, net: &Network, out: &mut Vec<Diagnostic>) {
    if !net.exits().is_empty() {
        return; // Multi-exit heads are NC013–NC016 territory.
    }
    let Some(head) = net.head_start() else {
        out.push(Diagnostic::new(
            Code::NC009,
            GraphSpan::Network,
            "expected a classification head, but none is attached",
        ));
        return;
    };
    if head.index() >= net.len() {
        return; // NC008 territory.
    }
    let expected: Vec<usize> = spec
        .hidden
        .iter()
        .copied()
        .chain(std::iter::once(spec.classes))
        .collect();
    let actual: Vec<usize> = net.nodes()[head.index()..]
        .iter()
        .filter_map(|node| match *node.kind() {
            LayerKind::Dense { units } => Some(units),
            _ => None,
        })
        .collect();
    if actual != expected {
        out.push(Diagnostic::new(
            Code::NC009,
            GraphSpan::Head { start: head },
            format!("head FC stack {actual:?} does not match the expected {expected:?}"),
        ));
    }
    if net.output().index() < net.shapes().len() {
        match net.shape(net.output()) {
            Shape::Vector { n } if n == spec.classes => {}
            other => out.push(Diagnostic::new(
                Code::NC009,
                GraphSpan::Head { start: head },
                format!(
                    "network output is {other} but the head spec expects {} classes",
                    spec.classes
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// NC010 stats-coherence
// ---------------------------------------------------------------------------

/// Independent FLOPs/params recomputation for the weighted kinds, kept
/// deliberately separate from `stats.rs` so a regression in either copy of
/// the formulas is caught. Returns `None` for unweighted kinds.
fn expected_weighted_cost(net: &Network, node: &Node) -> Option<(u64, u64)> {
    let out_shape = net.shape(node.id());
    let in_shape = net.shape(*node.inputs().first()?);
    match *node.kind() {
        LayerKind::Conv2d {
            out_channels,
            kernel,
            ..
        } => {
            let Shape::Map { h, w, .. } = out_shape else {
                return None;
            };
            let Shape::Map { c: cin, .. } = in_shape else {
                return None;
            };
            let k = (kernel * kernel) as u64;
            let weights = k * cin as u64 * out_channels as u64;
            Some((2 * weights * (h * w) as u64, weights + out_channels as u64))
        }
        LayerKind::Conv2dRect {
            out_channels,
            kernel_h,
            kernel_w,
            ..
        } => {
            let Shape::Map { h, w, .. } = out_shape else {
                return None;
            };
            let Shape::Map { c: cin, .. } = in_shape else {
                return None;
            };
            let k = (kernel_h * kernel_w) as u64;
            let weights = k * cin as u64 * out_channels as u64;
            Some((2 * weights * (h * w) as u64, weights + out_channels as u64))
        }
        LayerKind::DepthwiseConv2d { kernel, .. } => {
            let Shape::Map { c, h, w } = out_shape else {
                return None;
            };
            let k = (kernel * kernel) as u64;
            Some((2 * k * c as u64 * (h * w) as u64, k * c as u64 + c as u64))
        }
        LayerKind::Dense { units } => {
            let input = in_shape.elements() as u64;
            Some((
                2 * input * units as u64,
                input * units as u64 + units as u64,
            ))
        }
        _ => None,
    }
}

fn stats_coherence(net: &Network, out: &mut Vec<Diagnostic>) {
    if !shapes_fully_consistent(net) {
        return; // NC002/NC003 territory; stats would read garbage shapes.
    }
    let per_layer = net.layer_stats();
    for (node, ls) in net.nodes().iter().zip(&per_layer) {
        if let Some((flops, params)) = expected_weighted_cost(net, node) {
            if (ls.flops, ls.params) != (flops, params) {
                out.push(Diagnostic::new(
                    Code::NC010,
                    node_span(node),
                    format!(
                        "stats report {} FLOPs / {} params but the {} formula gives \
                         {flops} / {params}",
                        ls.flops,
                        ls.params,
                        node.kind().mnemonic()
                    ),
                ));
            }
            if flops == 0 || params == 0 {
                out.push(Diagnostic::new(
                    Code::NC010,
                    node_span(node),
                    "weighted layer has zero FLOPs or parameters (collapsed spatial \
                     extent?)",
                ));
            }
        }
        let elements = net.shape(node.id()).elements() as u64;
        if ls.output_elements != elements {
            out.push(Diagnostic::new(
                Code::NC010,
                node_span(node),
                format!(
                    "stats report {} output elements but the shape holds {elements}",
                    ls.output_elements
                ),
            ));
        }
    }
    let totals = net.stats();
    let flops_sum: u64 = per_layer.iter().map(|l| l.flops).sum();
    let params_sum: u64 = per_layer.iter().map(|l| l.params).sum();
    if totals.total_flops != flops_sum || totals.total_params != params_sum {
        out.push(Diagnostic::new(
            Code::NC010,
            GraphSpan::Network,
            format!(
                "aggregate stats ({} FLOPs, {} params) disagree with the per-layer sum \
                 ({flops_sum}, {params_sum})",
                totals.total_flops, totals.total_params
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// NC011 fingerprint-stability
// ---------------------------------------------------------------------------

fn fingerprint_stability(net: &Network, out: &mut Vec<Diagnostic>) {
    let first = net.structural_fingerprint();
    let again = net.structural_fingerprint();
    let cloned = net.clone().structural_fingerprint();
    if first != again || first != cloned {
        out.push(Diagnostic::new(
            Code::NC011,
            GraphSpan::Network,
            format!(
                "structural fingerprint is unstable: {first:#018x} vs {again:#018x} \
                 (clone {cloned:#018x})"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// NC012 estimator-features
// ---------------------------------------------------------------------------

fn estimator_features(net: &Network, out: &mut Vec<Diagnostic>) {
    if !shapes_fully_consistent(net) {
        return; // NC002/NC003 territory.
    }
    let bs = net.backbone_stats();
    for (value, feature) in [
        (bs.total_flops, "total FLOPs"),
        (bs.total_params, "total parameters"),
        (bs.weighted_layers, "weighted-layer count"),
    ] {
        if value == 0 {
            out.push(Diagnostic::new(
                Code::NC012,
                GraphSpan::Network,
                format!(
                    "backbone {feature} is zero; the latency SVR would see a degenerate \
                     feature"
                ),
            ));
        }
    }
    if bs.total_filter_size == 0 {
        // Legitimate for pure-dense networks, so only a note.
        out.push(Diagnostic {
            code: Code::NC012,
            severity: Severity::Note,
            span: GraphSpan::Network,
            message: "backbone has no convolution kernels; the filter-size feature is \
                      zero"
                .to_owned(),
        });
    }
}

// ---------------------------------------------------------------------------
// NC013–NC016 multi-exit rules
// ---------------------------------------------------------------------------

/// `true` when every exit's `[head_start, output]` range is inside the
/// graph and not inverted. Rules that *walk* exit ranges use this to defer
/// to NC013 (which owns the report) instead of indexing blindly.
fn exit_ranges_sane(net: &Network) -> bool {
    net.exits()
        .iter()
        .all(|e| e.output().index() < net.len() && e.head_start() <= e.output())
}

fn exit_span(net: &Network, k: usize) -> GraphSpan {
    GraphSpan::Head {
        start: net.exits()[k].head_start(),
    }
}

fn exit_head_structure(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.exits().is_empty() {
        return; // Single-head and raw networks have no exit table.
    }
    let n = net.len();
    for (k, exit) in net.exits().iter().enumerate() {
        if exit.output().index() >= n || exit.head_start() > exit.output() {
            out.push(Diagnostic::new(
                Code::NC013,
                GraphSpan::Network,
                format!(
                    "exit {k} spans [{}, {}], not a forward range inside the {n}-node \
                     graph",
                    exit.head_start(),
                    exit.output()
                ),
            ));
            continue;
        }
        let range = exit.head_start().index()..=exit.output().index();
        if !net.nodes()[range].iter().any(|n| n.kind().is_weighted()) {
            out.push(Diagnostic::new(
                Code::NC013,
                exit_span(net, k),
                format!("exit {k} contains no weighted layer (no conv or dense)"),
            ));
        }
        if exit.output().index() < net.shapes().len() {
            let shape = net.shape(exit.output());
            if !matches!(shape, Shape::Vector { .. }) {
                out.push(Diagnostic::new(
                    Code::NC013,
                    exit_span(net, k),
                    format!("exit {k} produces {shape}, not a class-probability vector"),
                ));
            }
        }
    }
    // Every exit must classify into the same label set.
    let classes: Vec<Option<usize>> = net
        .exits()
        .iter()
        .map(|e| match net.shapes().get(e.output().index()) {
            Some(Shape::Vector { n }) => Some(*n),
            _ => None,
        })
        .collect();
    if let Some(first) = classes.first().copied().flatten() {
        for (k, c) in classes.iter().enumerate().skip(1) {
            if let Some(c) = c {
                if *c != first {
                    out.push(Diagnostic::new(
                        Code::NC013,
                        exit_span(net, k),
                        format!("exit {k} classifies into {c} classes but exit 0 into {first}"),
                    ));
                }
            }
        }
    }
}

fn exit_monotonicity(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.exits().is_empty() {
        return;
    }
    for (k, pair) in net.exits().windows(2).enumerate() {
        if pair[1].head_start() <= pair[0].head_start() {
            out.push(Diagnostic::new(
                Code::NC014,
                GraphSpan::Network,
                format!(
                    "exit {} starts at {}, not after exit {k} at {} — exits must be \
                     stored shallowest-first",
                    k + 1,
                    pair[1].head_start(),
                    pair[0].head_start()
                ),
            ));
        }
    }
    let deepest = net.exits().last().expect("checked non-empty");
    if deepest.output() != net.output() {
        out.push(Diagnostic::new(
            Code::NC014,
            GraphSpan::Network,
            format!(
                "deepest exit produces {} but the graph output is {} — the full-depth \
                 exit must be the network's answer",
                deepest.output(),
                net.output()
            ),
        ));
    }
}

fn exit_coverage(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.exits().is_empty() {
        return;
    }
    // Every block boundary carries exactly one head.
    let nb = net.num_blocks();
    let mut claims = vec![0usize; nb];
    for (k, exit) in net.exits().iter().enumerate() {
        match claims.get_mut(exit.block()) {
            Some(c) => *c += 1,
            None => out.push(Diagnostic::new(
                Code::NC015,
                exit_span(net, k),
                format!(
                    "exit {k} claims block #{}, but the network has {nb} blocks",
                    exit.block()
                ),
            )),
        }
    }
    for (bi, &count) in claims.iter().enumerate() {
        if count != 1 {
            out.push(Diagnostic::new(
                Code::NC015,
                block_span(bi, net),
                format!("block boundary carries {count} exit heads, not exactly one"),
            ));
        }
    }
    // Each exit's entry node must consume its claimed block's output.
    if !exit_ranges_sane(net) {
        return; // NC013 territory.
    }
    for (k, exit) in net.exits().iter().enumerate() {
        let Some(block) = net.blocks().get(exit.block()) else {
            continue; // reported above
        };
        if net.head_start().is_some_and(|h| exit.head_start() < h) {
            continue; // Intrusion into the backbone is NC016's finding.
        }
        let entry = &net.nodes()[exit.head_start().index()];
        if entry.inputs().iter().any(|&inp| inp != block.output()) {
            out.push(Diagnostic::new(
                Code::NC015,
                exit_span(net, k),
                format!(
                    "exit {k} claims block #{} `{}` but its entry node `{}` does not \
                     tap that block's output {}",
                    exit.block(),
                    block.name(),
                    entry.name(),
                    block.output()
                ),
            ));
        }
    }
}

fn exit_isolation(net: &Network, out: &mut Vec<Diagnostic>) {
    if net.exits().is_empty() {
        return;
    }
    if !exit_ranges_sane(net) {
        return; // NC013 territory.
    }
    // Exit heads live in the head region, after every backbone node.
    if let Some(head) = net.head_start() {
        for (k, exit) in net.exits().iter().enumerate() {
            if exit.head_start() < head {
                out.push(Diagnostic::new(
                    Code::NC016,
                    exit_span(net, k),
                    format!(
                        "exit {k} starts at {}, inside the backbone (head region starts \
                         at {head})",
                        exit.head_start()
                    ),
                ));
            }
        }
    }
    // Ranges are pairwise disjoint: no node computes for two exits.
    for a in 0..net.exits().len() {
        for b in a + 1..net.exits().len() {
            let (ea, eb) = (net.exits()[a], net.exits()[b]);
            if ea.head_start() <= eb.output() && eb.head_start() <= ea.output() {
                out.push(Diagnostic::new(
                    Code::NC016,
                    exit_span(net, b),
                    format!(
                        "exit {b} [{}, {}] overlaps exit {a} [{}, {}]",
                        eb.head_start(),
                        eb.output(),
                        ea.head_start(),
                        ea.output()
                    ),
                ));
            }
        }
    }
    // Exits are pure sinks: nothing outside an exit consumes its nodes,
    // so detaching heads (backbone()) can never sever the backbone.
    let mut owner = vec![None::<usize>; net.len()];
    for (k, exit) in net.exits().iter().enumerate() {
        for slot in &mut owner[exit.head_start().index()..=exit.output().index()] {
            slot.get_or_insert(k);
        }
    }
    for (pos, node) in net.nodes().iter().enumerate() {
        let consumer = owner[pos];
        for &inp in node.inputs() {
            let Some(Some(k)) = owner.get(inp.index()).copied() else {
                continue;
            };
            if consumer != Some(k) {
                out.push(Diagnostic::new(
                    Code::NC016,
                    GraphSpan::Edge {
                        from: inp,
                        to: node.id(),
                        to_name: node.name().to_owned(),
                    },
                    format!("edge consumes exit {k}'s interior from outside the exit"),
                ));
            }
        }
    }
    // Stripping the heads must be deterministic: the backbone's
    // fingerprint is the memo-cache key joint training is keyed on.
    // `backbone()` walks edges, so only a fully consistent graph can be
    // stripped without panicking (broken ones are NC002/NC003 findings).
    let deepest_entry = &net.nodes()[net.exits().last().expect("non-empty").head_start().index()];
    if !shapes_fully_consistent(net) || deepest_entry.inputs().is_empty() {
        return;
    }
    let first = net.backbone().structural_fingerprint();
    let again = net.backbone().structural_fingerprint();
    if first != again {
        out.push(Diagnostic::new(
            Code::NC016,
            GraphSpan::Network,
            format!(
                "backbone fingerprint is unstable under exit-head detachment: \
                 {first:#018x} vs {again:#018x}"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// One rule: checks a network and appends its findings. A rule must
/// tolerate arbitrarily malformed graphs without panicking, preferring a
/// diagnostic (or silently deferring to the rule that owns the broken
/// invariant) over indexing blindly.
type Check = fn(&Network, &mut Vec<Diagnostic>);

/// The structural rules, each with the code it reports under, in the
/// order [`Analyzer::analyze`] runs them.
const RULES: [(Code, Check); 15] = [
    (Code::NC001, empty_network),
    (Code::NC002, topological_order),
    (Code::NC003, shape_consistency),
    (Code::NC004, reachability),
    (Code::NC005, block_structure),
    (Code::NC006, block_boundary),
    (Code::NC007, cutpoint_monotonicity),
    (Code::NC008, head_structure),
    (Code::NC010, stats_coherence),
    (Code::NC011, fingerprint_stability),
    (Code::NC012, estimator_features),
    (Code::NC013, exit_head_structure),
    (Code::NC014, exit_monotonicity),
    (Code::NC015, exit_coverage),
    (Code::NC016, exit_isolation),
];

/// Runs the structural rules over a network, plus the head-spec check when
/// it expects a head, and assembles a [`Report`].
///
/// # Example
///
/// ```
/// use netcut_graph::zoo;
/// use netcut_verify::Analyzer;
///
/// let report = Analyzer::new().analyze(&zoo::mobilenet_v1(0.25));
/// assert!(report.is_clean());
/// ```
pub struct Analyzer {
    head: Option<HeadSpec>,
}

impl Analyzer {
    /// Every structural rule (NC001–NC008, NC010–NC016, the multi-exit
    /// rules included). The head-spec check (NC009) needs an expected
    /// [`HeadSpec`]; see [`Analyzer::with_expected_head`].
    pub fn new() -> Self {
        Analyzer { head: None }
    }

    /// Every structural rule, then the head-spec check (NC009) of the
    /// attached head against `spec`.
    pub fn with_expected_head(spec: HeadSpec) -> Self {
        Analyzer { head: Some(spec) }
    }

    /// Runs every structural rule over `net` in table order, then the
    /// head-spec check if one is expected.
    ///
    /// Emits a `verify.analyze` tracing span and bumps the
    /// `verify.diagnostic` counter by the number of findings.
    pub fn analyze(&self, net: &Network) -> Report {
        let _span = obs::span("verify.analyze");
        let mut diagnostics = Vec::new();
        for (_, rule) in RULES {
            rule(net, &mut diagnostics);
        }
        if let Some(spec) = &self.head {
            head_spec(spec, net, &mut diagnostics);
        }
        if !diagnostics.is_empty() {
            obs::counter_add("verify.diagnostic", diagnostics.len() as u64);
        }
        Report {
            network: net.name().to_owned(),
            fingerprint: net.structural_fingerprint(),
            diagnostics,
        }
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::tests::plane_codes;
    use crate::mutate::{self, Mutation};
    use netcut_graph::{zoo, Activation, NetworkBuilder, NodeId, Padding};

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny", Shape::map(3, 32, 32));
        let x = b.input();
        b.begin_block("b1");
        let x = b.conv_bn_relu(x, 8, 3, 2, Padding::Same, "c1");
        b.end_block(x).unwrap();
        b.mark_head_start();
        let g = b.global_avg_pool(x, "gap");
        let d = b.dense(g, 5, "fc");
        let s = b.activation(d, Activation::Softmax, "softmax");
        b.finish(s).unwrap()
    }

    #[test]
    fn builder_output_is_clean() {
        let report = Analyzer::new().analyze(&tiny());
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.summary().total(), 0);
    }

    #[test]
    fn head_spec_rule_accepts_matching_head() {
        let net = tiny();
        let spec = HeadSpec {
            hidden: vec![],
            classes: 5,
        };
        let report = Analyzer::with_expected_head(spec).analyze(&net);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn head_spec_rule_rejects_class_mismatch() {
        let net = tiny();
        let report = Analyzer::with_expected_head(HeadSpec::with_classes(7)).analyze(&net);
        assert!(!report.is_clean());
        assert!(report.diagnostics().iter().all(|d| d.code == Code::NC009));
    }

    #[test]
    fn empty_network_is_reported() {
        let net = Network::from_parts(
            "empty",
            Shape::map(3, 8, 8),
            vec![],
            vec![],
            NodeId::new(0),
            vec![],
            None,
        );
        let report = Analyzer::new().analyze(&net);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::NC001));
    }

    #[test]
    fn the_table_and_the_head_spec_check_name_every_nc_code_once_in_order() {
        let mut named: Vec<Code> = RULES.iter().map(|&(code, _)| code).collect();
        // The head-spec check runs after the table but holds NC009's place
        // in code order.
        let at = named.iter().position(|&c| c == Code::NC010).unwrap();
        named.insert(at, Code::NC009);
        assert_eq!(named, plane_codes("NC"));
    }

    /// Each rule run alone over the mutation corpus reports under its own
    /// code only, and the rule owning a mutation's expected code fires on
    /// it.
    #[test]
    fn each_rule_alone_reports_only_its_own_code() {
        let spec = HeadSpec::default();
        let net = zoo::resnet50();
        for (base, multi_exit) in [(net.clone(), false), (net.with_exit_heads(&spec), true)] {
            for mutation in Mutation::all() {
                let Some(broken) = mutate::apply(&base, mutation) else {
                    continue;
                };
                for (code, rule) in RULES {
                    let mut out = Vec::new();
                    rule(&broken, &mut out);
                    assert!(
                        out.iter().all(|d| d.code == code),
                        "{code} rule on {mutation:?} reported {:?}",
                        out.iter().map(|d| d.code).collect::<Vec<_>>()
                    );
                    if code == mutation.expected_code() && multi_exit == mutation.needs_exit_table()
                    {
                        assert!(!out.is_empty(), "{code} rule missed {mutation:?}");
                    }
                }
            }
        }
        let headed = net.cut_blocks(8).unwrap().with_head(&spec);
        let broken = mutate::apply(&headed, Mutation::MismatchHeadClasses).unwrap();
        let mut out = Vec::new();
        head_spec(&spec, &broken, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|d| d.code == Code::NC009), "{out:?}");
    }
}
