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
    tree.validate()?;
    let mut out = BinaryTree {
        nodes: Vec::with_capacity(tree.len() * 2),
    };
    if !tree.is_empty() {
        build(tree, &mut out);
    }
    Ok(out)
}

/// Emits the binary nodes of a valid, non-empty tree, iteratively (an
/// explicit task stack keeps arbitrarily deep floorplans from exhausting
/// the call stack).
fn build(tree: &FloorplanTree, out: &mut BinaryTree) {
    enum Task {
        Visit(NodeId),
        Emit(BinOp),
    }
    let mut tasks = vec![Task::Visit(tree.root())];
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
                match node.kind {
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
                        let children = node.children;
                        // Execution order: visit c0, then for each further
                        // child visit it and emit a join. Push in reverse.
                        for &child in children[1..].iter().rev() {
                            tasks.push(Task::Emit(BinOp::Slice(how)));
                            tasks.push(Task::Visit(child));
                        }
                        tasks.push(Task::Visit(children[0]));
                    }
                    NodeKind::Wheel(_) => {
                        // (((A ⊕ E) ⊕ B) ⊕ C) ⊕ D, pushed in reverse.
                        let c = node.children;
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

    /// Figure 3 written as a recursion, independent of [`build`]'s task
    /// stack: a slice is a left-deep chain over its children, and a wheel
    /// `[A, B, C, D, E]` is `(((A ⊕ E) ⊕ B) ⊕ C) ⊕ D`.
    fn figure3(tree: &FloorplanTree) -> Vec<BinNode> {
        fn emit(tree: &FloorplanTree, id: NodeId, out: &mut Vec<BinNode>) -> BinId {
            let node = tree.node(id).expect("valid tree");
            let (first, rest): (NodeId, Vec<(BinOp, NodeId)>) = match node.kind {
                NodeKind::Leaf(module) => {
                    out.push(BinNode::Leaf {
                        tree_leaf: id,
                        module,
                    });
                    return out.len() - 1;
                }
                NodeKind::Slice(dir) => {
                    let op = BinOp::Slice(match dir {
                        CutDir::Vertical => Compose::Beside,
                        CutDir::Horizontal => Compose::Stack,
                    });
                    let rest = node.children[1..].iter().map(|&c| (op, c)).collect();
                    (node.children[0], rest)
                }
                NodeKind::Wheel(_) => {
                    use BinOp::{WheelS1, WheelS2, WheelS3, WheelS4};
                    let &[a, b, c, d, e] = node.children else {
                        panic!("wheel {id} has {} children", node.children.len());
                    };
                    let stages = vec![(WheelS1, e), (WheelS2, b), (WheelS3, c), (WheelS4, d)];
                    (a, stages)
                }
            };
            let mut left = emit(tree, first, out);
            for (op, child) in rest {
                let right = emit(tree, child, out);
                out.push(BinNode::Join { op, left, right });
                left = out.len() - 1;
            }
            left
        }
        let mut out = Vec::new();
        if !tree.is_empty() {
            emit(tree, tree.root(), &mut out);
        }
        out
    }

    #[test]
    fn restructure_matches_figure3_on_benchmarks() {
        for bench in crate::generators::fixed_test_trees() {
            let bin = restructure(&bench.tree).expect("valid tree");
            assert_eq!(bin.nodes(), figure3(&bench.tree), "{}", bench.name);
        }
    }

    proptest::proptest! {
        /// On random floorplans (wheels included) [`restructure`] emits
        /// the Figure 3 recursion's node sequence. Runs on the default
        /// config, so `PROPTEST_CASES` sets its size.
        #[test]
        fn restructure_matches_figure3(leaves in 2usize..40, seed in 0u64..1_000) {
            let bench = crate::generators::random_floorplan(leaves, 0.4, seed);
            let bin = restructure(&bench.tree).expect("generated tree is valid");
            proptest::prop_assert_eq!(bin.nodes(), figure3(&bench.tree).as_slice());
        }
    }
}
