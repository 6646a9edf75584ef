//! Restructuring a floorplan tree `T` into a binary tree `T'` (paper §3,
//! Figure 3).
//!
//! The bottom-up optimizer wants every internal node to combine exactly two
//! blocks, each combination producing either a rectangular or an L-shaped
//! block:
//!
//! * a slice with `k` children becomes a left-deep chain of `k − 1` binary
//!   slice joins (all rectangular);
//! * a wheel `[A, B, C, D, E]` becomes the four-stage chain
//!   `(((A ⊕ E) ⊕ B) ⊕ C) ⊕ D`: the first three stages produce L-shaped
//!   blocks (the partially assembled pinwheel), the last completes the
//!   enveloping rectangle.
//!
//! Chirality does not appear in `T'`: the counterclockwise wheel is the
//! mirror image of the clockwise one and mirroring preserves every
//! measurement, so the two optimize identically (the layout realizer
//! mirrors the placement instead).

use fp_shape::combine::Compose;

use crate::soa::SoaTree;
use crate::{CutDir, FloorplanTree, ModuleId, NodeId, NodeKind, TreeError};

/// Identifier of a node within a [`BinaryTree`] arena.
pub type BinId = usize;

/// The combining operation of a binary internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// A slice join: two rectangular blocks compose into a rectangle.
    Slice(Compose),
    /// Wheel stage 1: arm `A` beside centre `E`, bottom-aligned → L-block.
    WheelS1,
    /// Wheel stage 2: the stage-1 L plus top strip `B` → L-block.
    WheelS2,
    /// Wheel stage 3: the stage-2 L plus right column `C` → L-block.
    WheelS3,
    /// Wheel stage 4: the stage-3 L plus bottom strip `D` → rectangle.
    WheelS4,
}

impl BinOp {
    /// `true` if the operation produces an L-shaped block.
    #[must_use]
    pub fn produces_lshape(self) -> bool {
        matches!(self, BinOp::WheelS1 | BinOp::WheelS2 | BinOp::WheelS3)
    }
}

/// A node of the restructured binary tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinNode {
    /// A basic rectangle: one module instance. Records the originating
    /// leaf of `T` so solutions can be mapped back.
    Leaf {
        /// The leaf node in the original tree.
        tree_leaf: NodeId,
        /// The module occupying it.
        module: ModuleId,
    },
    /// A binary join of two previously built blocks.
    Join {
        /// The combining operation.
        op: BinOp,
        /// Left operand (for wheel stages: the partial assembly).
        left: BinId,
        /// Right operand (for wheel stages: the arm being attached).
        right: BinId,
    },
}

/// The binary tree `T'`: an arena in **bottom-up (topological) order** —
/// every join's operands have smaller ids than the join itself, and the
/// root is the last node. The optimizer can therefore evaluate nodes by a
/// single forward scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTree {
    nodes: Vec<BinNode>,
}

impl BinaryTree {
    /// The nodes in bottom-up order.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[BinNode] {
        &self.nodes
    }

    /// The node with the given id, if present.
    #[inline]
    #[must_use]
    pub fn node(&self, id: BinId) -> Option<&BinNode> {
        self.nodes.get(id)
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root id (the last node).
    ///
    /// # Panics
    ///
    /// Panics on an empty tree.
    #[must_use]
    pub fn root(&self) -> BinId {
        assert!(!self.nodes.is_empty(), "empty binary tree has no root");
        self.nodes.len() - 1
    }

    /// Number of L-shaped internal blocks.
    #[must_use]
    pub fn lshape_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, BinNode::Join { op, .. } if op.produces_lshape()))
            .count()
    }

    /// Number of leaf blocks.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, BinNode::Leaf { .. }))
            .count()
    }
}

/// Restructures a validated floorplan tree into its binary form.
///
/// # Errors
///
/// Returns the [`TreeError`] from [`FloorplanTree::validate`] if the input
/// is malformed.
pub fn restructure(tree: &FloorplanTree) -> Result<BinaryTree, TreeError> {
    let mut out = BinaryTree {
        nodes: Vec::with_capacity(tree.len() * 2),
    };
    // The SoA conversion performs the full validation, and the build walk
    // below then runs over the flat CSR arrays instead of chasing one
    // child `Vec` allocation per node — the difference is noise on FP1–4
    // but dominates restructuring time on mega-scale trees.
    let soa = SoaTree::from_tree(tree)?;
    if soa.is_empty() {
        return Ok(out);
    }
    build(&soa, soa.root(), &mut out);
    Ok(out)
}

/// Emits the binary nodes for the subtree at `root`, iteratively (an
/// explicit task stack keeps arbitrarily deep floorplans from exhausting
/// the call stack).
fn build(tree: &SoaTree, root: NodeId, out: &mut BinaryTree) {
    enum Task {
        Visit(NodeId),
        Emit(BinOp),
    }
    let mut tasks = vec![Task::Visit(root)];
    let mut values: Vec<BinId> = Vec::new();
    while let Some(task) = tasks.pop() {
        match task {
            Task::Emit(op) => {
                let right = values.pop().expect("emit follows two visits");
                let left = values.pop().expect("emit follows two visits");
                out.nodes.push(BinNode::Join { op, left, right });
                values.push(out.nodes.len() - 1);
            }
            Task::Visit(id) => {
                match tree.kind(id) {
                    NodeKind::Leaf(module) => {
                        out.nodes.push(BinNode::Leaf {
                            tree_leaf: id,
                            module,
                        });
                        values.push(out.nodes.len() - 1);
                    }
                    NodeKind::Slice(dir) => {
                        let how = match dir {
                            CutDir::Vertical => Compose::Beside,
                            CutDir::Horizontal => Compose::Stack,
                        };
                        let children = tree.node_children(id);
                        // Execution order: visit c0, then for each further
                        // child visit it and emit a join. Push in reverse.
                        for &child in children[1..].iter().rev() {
                            tasks.push(Task::Emit(BinOp::Slice(how)));
                            tasks.push(Task::Visit(child as NodeId));
                        }
                        tasks.push(Task::Visit(children[0] as NodeId));
                    }
                    NodeKind::Wheel(_) => {
                        // (((A ⊕ E) ⊕ B) ⊕ C) ⊕ D, pushed in reverse.
                        let c = tree.node_children(id);
                        tasks.push(Task::Emit(BinOp::WheelS4));
                        tasks.push(Task::Visit(c[3] as NodeId));
                        tasks.push(Task::Emit(BinOp::WheelS3));
                        tasks.push(Task::Visit(c[2] as NodeId));
                        tasks.push(Task::Emit(BinOp::WheelS2));
                        tasks.push(Task::Visit(c[1] as NodeId));
                        tasks.push(Task::Emit(BinOp::WheelS1));
                        tasks.push(Task::Visit(c[4] as NodeId));
                        tasks.push(Task::Visit(c[0] as NodeId));
                    }
                }
            }
        }
    }
    debug_assert_eq!(values.len(), 1, "one value remains: the root");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Chirality;

    #[test]
    fn figure3_style_slice_chain() {
        // A 4-child vertical slice becomes 3 binary joins.
        let mut t = FloorplanTree::new();
        let leaves: Vec<NodeId> = (0..4).map(|m| t.leaf(m)).collect();
        t.slice(CutDir::Vertical, leaves);
        let b = restructure(&t).expect("valid tree");
        assert_eq!(b.leaf_count(), 4);
        assert_eq!(b.len(), 7);
        assert_eq!(b.lshape_count(), 0);
        // Left-deep: the root joins the previous accumulator with leaf 3.
        match b.node(b.root()).expect("root") {
            BinNode::Join {
                op: BinOp::Slice(Compose::Beside),
                left,
                right,
            } => {
                assert!(matches!(
                    b.node(*right),
                    Some(BinNode::Leaf { module: 3, .. })
                ));
                assert!(*left < b.root());
            }
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn wheel_expands_to_four_stages() {
        let mut t = FloorplanTree::new();
        let leaves: Vec<NodeId> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [leaves[0], leaves[1], leaves[2], leaves[3], leaves[4]],
        );
        let b = restructure(&t).expect("valid tree");
        assert_eq!(b.len(), 9); // 5 leaves + 4 joins
        assert_eq!(b.lshape_count(), 3);
        let ops: Vec<BinOp> = b
            .nodes()
            .iter()
            .filter_map(|n| match n {
                BinNode::Join { op, .. } => Some(*op),
                BinNode::Leaf { .. } => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                BinOp::WheelS1,
                BinOp::WheelS2,
                BinOp::WheelS3,
                BinOp::WheelS4
            ]
        );
        // Stage 1 joins A (module 0) with E (module 4).
        let s1 = b
            .nodes()
            .iter()
            .position(|n| {
                matches!(
                    n,
                    BinNode::Join {
                        op: BinOp::WheelS1,
                        ..
                    }
                )
            })
            .expect("stage 1 exists");
        if let BinNode::Join { left, right, .. } = &b.nodes()[s1] {
            assert!(matches!(
                b.node(*left),
                Some(BinNode::Leaf { module: 0, .. })
            ));
            assert!(matches!(
                b.node(*right),
                Some(BinNode::Leaf { module: 4, .. })
            ));
        }
    }

    #[test]
    fn chirality_does_not_change_structure() {
        let make = |ch: Chirality| {
            let mut t = FloorplanTree::new();
            let l: Vec<NodeId> = (0..5).map(|m| t.leaf(m)).collect();
            t.wheel(ch, [l[0], l[1], l[2], l[3], l[4]]);
            restructure(&t).expect("valid tree")
        };
        assert_eq!(
            make(Chirality::Clockwise),
            make(Chirality::Counterclockwise)
        );
    }

    #[test]
    fn topological_order_invariant() {
        // Nested: wheel of slices of leaves.
        let mut t = FloorplanTree::new();
        let mut blocks = Vec::new();
        for i in 0..5 {
            let a = t.leaf(2 * i);
            let b = t.leaf(2 * i + 1);
            blocks.push(t.slice(CutDir::Horizontal, vec![a, b]));
        }
        t.wheel(
            Chirality::Clockwise,
            [blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]],
        );
        let b = restructure(&t).expect("valid tree");
        for (id, node) in b.nodes().iter().enumerate() {
            if let BinNode::Join { left, right, .. } = node {
                assert!(*left < id && *right < id, "node {id} not topological");
            }
        }
        assert_eq!(b.leaf_count(), 10);
        assert_eq!(b.lshape_count(), 3);
        assert_eq!(b.len(), 10 + 5 + 4);
    }

    #[test]
    fn invalid_tree_propagates_error() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        t.slice(CutDir::Vertical, vec![a]);
        assert!(restructure(&t).is_err());
    }

    #[test]
    fn empty_tree_restructures_to_empty() {
        let b = restructure(&FloorplanTree::new()).expect("empty is valid");
        assert!(b.is_empty());
    }

    /// The pointer-chasing build [`build`] replaced, kept as an oracle:
    /// it walks the node tree's child `Vec`s instead of the SoA arrays
    /// and must emit exactly the same node sequence.
    fn build_ptr(tree: &FloorplanTree, root: NodeId, out: &mut BinaryTree) {
        enum Task {
            Visit(NodeId),
            Emit(BinOp),
        }
        let mut tasks = vec![Task::Visit(root)];
        let mut values: Vec<BinId> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Emit(op) => {
                    let right = values.pop().expect("emit follows two visits");
                    let left = values.pop().expect("emit follows two visits");
                    out.nodes.push(BinNode::Join { op, left, right });
                    values.push(out.nodes.len() - 1);
                }
                Task::Visit(id) => {
                    let node = tree.node(id).expect("validated tree");
                    match &node.kind {
                        NodeKind::Leaf(module) => {
                            out.nodes.push(BinNode::Leaf {
                                tree_leaf: id,
                                module: *module,
                            });
                            values.push(out.nodes.len() - 1);
                        }
                        NodeKind::Slice(dir) => {
                            let how = match dir {
                                CutDir::Vertical => Compose::Beside,
                                CutDir::Horizontal => Compose::Stack,
                            };
                            for &child in node.children[1..].iter().rev() {
                                tasks.push(Task::Emit(BinOp::Slice(how)));
                                tasks.push(Task::Visit(child));
                            }
                            tasks.push(Task::Visit(node.children[0]));
                        }
                        NodeKind::Wheel(_) => {
                            let c = &node.children;
                            tasks.push(Task::Emit(BinOp::WheelS4));
                            tasks.push(Task::Visit(c[3]));
                            tasks.push(Task::Emit(BinOp::WheelS3));
                            tasks.push(Task::Visit(c[2]));
                            tasks.push(Task::Emit(BinOp::WheelS2));
                            tasks.push(Task::Visit(c[1]));
                            tasks.push(Task::Emit(BinOp::WheelS1));
                            tasks.push(Task::Visit(c[4]));
                            tasks.push(Task::Visit(c[0]));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(values.len(), 1, "one value remains: the root");
    }

    /// [`restructure`] through the pointer walk: validation, then
    /// [`build_ptr`].
    fn restructure_ptr(tree: &FloorplanTree) -> Result<BinaryTree, TreeError> {
        tree.validate()?;
        let mut out = BinaryTree {
            nodes: Vec::with_capacity(tree.len() * 2),
        };
        if !tree.is_empty() {
            build_ptr(tree, tree.root(), &mut out);
        }
        Ok(out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The pointer-chasing restructure and the SoA walk emit
        /// bit-identical binary join sequences.
        #[test]
        fn legacy_restructure_matches_soa(leaves in 2usize..40, seed in 0u64..1_000) {
            let bench = crate::generators::random_floorplan(leaves, 0.4, seed);
            match (restructure_ptr(&bench.tree), restructure(&bench.tree)) {
                (Ok(a), Ok(b)) => proptest::prop_assert_eq!(a.nodes(), b.nodes()),
                (a, b) => proptest::prop_assert_eq!(a.err(), b.err()),
            }
        }
    }
}
