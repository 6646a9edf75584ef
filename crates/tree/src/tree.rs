//! The hierarchical floorplan tree (paper §2, Figure 1).

use core::fmt;

use crate::ModuleId;

/// Identifier of a node within a [`FloorplanTree`] arena.
pub type NodeId = usize;

/// Direction of a slice cut line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutDir {
    /// Horizontal cut lines: the children are stacked bottom-to-top.
    Horizontal,
    /// Vertical cut lines: the children sit left-to-right.
    Vertical,
}

impl CutDir {
    /// The perpendicular direction.
    #[must_use]
    pub const fn perpendicular(self) -> CutDir {
        match self {
            CutDir::Horizontal => CutDir::Vertical,
            CutDir::Vertical => CutDir::Horizontal,
        }
    }
}

/// Chirality of a wheel (the order-5 non-slicing pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Chirality {
    /// The clockwise pinwheel (arms spiral clockwise).
    #[default]
    Clockwise,
    /// The counterclockwise pinwheel — the mirror image of
    /// [`Chirality::Clockwise`]; its implementation sets are identical
    /// because mirroring preserves all sizes.
    Counterclockwise,
}

/// The payload of a floorplan tree node.
///
/// Wheel children are ordered `[A, B, C, D, E]` for the clockwise wheel of
/// paper Figure 8-style pinwheels:
///
/// ```text
///       +----+---------+
///       | A  |    B    |      A: left column   (x < x1, y > y1)
///       |    +----+----+      B: top strip     (x > x1, y > y2)
///       |    | E  |    |      C: right column  (x > x2, y < y2)
///       +----+----+  C |      D: bottom strip  (x < x2, y < y1)
///       |   D     |    |      E: centre
///       +---------+----+
/// ```
///
/// For a counterclockwise wheel, mirror the picture about the vertical
/// axis; the child order keeps the same meaning (`A` the column touching
/// the left or right edge after mirroring, etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A basic rectangle holding one module.
    Leaf(ModuleId),
    /// A slice with the given cut direction; any arity ≥ 2.
    Slice(CutDir),
    /// An order-5 wheel; exactly 5 children `[A, B, C, D, E]`.
    Wheel(Chirality),
}

/// One node of a [`FloorplanTree`], borrowed from the tree's flat
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node<'a> {
    /// What the node is.
    pub kind: NodeKind,
    /// Child node ids (empty for leaves).
    pub children: &'a [NodeId],
}

/// Errors reported by [`FloorplanTree`] validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// A child id does not refer to an existing node.
    DanglingChild {
        /// The parent node.
        parent: NodeId,
        /// The missing child id.
        child: NodeId,
    },
    /// A slice node has fewer than two children.
    SliceTooSmall {
        /// The offending node.
        node: NodeId,
        /// Its arity.
        arity: usize,
    },
    /// A wheel node does not have exactly five children.
    WheelArity {
        /// The offending node.
        node: NodeId,
        /// Its arity.
        arity: usize,
    },
    /// A leaf has children.
    LeafWithChildren {
        /// The offending node.
        node: NodeId,
    },
    /// A node is referenced by more than one parent, or the root is a
    /// child: the structure is not a tree.
    NotATree {
        /// The node with multiple parents (or the root).
        node: NodeId,
    },
    /// A node is unreachable from the root.
    Unreachable {
        /// The orphaned node.
        node: NodeId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DanglingChild { parent, child } => {
                write!(f, "node {parent} references missing child {child}")
            }
            TreeError::SliceTooSmall { node, arity } => {
                write!(
                    f,
                    "slice node {node} has {arity} children; needs at least 2"
                )
            }
            TreeError::WheelArity { node, arity } => {
                write!(f, "wheel node {node} has {arity} children; needs exactly 5")
            }
            TreeError::LeafWithChildren { node } => write!(f, "leaf node {node} has children"),
            TreeError::NotATree { node } => write!(f, "node {node} has multiple parents"),
            TreeError::Unreachable { node } => write!(f, "node {node} unreachable from the root"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A hierarchical floorplan: a flat arena of nodes with a designated
/// root.
///
/// Each node has a [`NodeKind`], and every child id sits in one shared
/// array, grouped by parent in id order (compressed sparse rows), so a
/// walk over the tree reads contiguous memory. [`FloorplanTree::node`]
/// lends one node as a [`Node`] view.
///
/// Build bottom-up with [`FloorplanTree::leaf`], [`FloorplanTree::slice`],
/// and [`FloorplanTree::wheel`]; the last node added is the root unless
/// [`FloorplanTree::set_root`] overrides it. [`FloorplanTree::validate`]
/// checks structural invariants.
///
/// # Example
///
/// ```
/// use fp_tree::{CutDir, FloorplanTree};
///
/// // Figure-1 style: ((m0 | m1) over m2)
/// let mut t = FloorplanTree::new();
/// let a = t.leaf(0);
/// let b = t.leaf(1);
/// let row = t.slice(CutDir::Vertical, vec![a, b]);
/// let c = t.leaf(2);
/// let root = t.slice(CutDir::Horizontal, vec![row, c]);
/// assert_eq!(t.root(), root);
/// assert_eq!(t.module_count(), 3);
/// assert_eq!(t.node(row).map(|n| n.children), Some(&[a, b][..]));
/// t.validate()?;
/// # Ok::<(), fp_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloorplanTree {
    /// One kind per node.
    kinds: Vec<NodeKind>,
    /// Node `i`'s children are `child_ids[child_start[i]..child_start[i + 1]]`.
    child_start: Vec<usize>,
    /// Every child id, grouped by parent in node order.
    child_ids: Vec<NodeId>,
    root: NodeId,
}

impl Default for FloorplanTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FloorplanTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        FloorplanTree {
            kinds: Vec::new(),
            child_start: vec![0],
            child_ids: Vec::new(),
            root: 0,
        }
    }

    fn push(&mut self, kind: NodeKind, children: &[NodeId]) -> NodeId {
        self.kinds.push(kind);
        self.child_ids.extend_from_slice(children);
        self.child_start.push(self.child_ids.len());
        self.root = self.kinds.len() - 1;
        self.root
    }

    /// Adds a leaf for `module` and returns its id.
    pub fn leaf(&mut self, module: ModuleId) -> NodeId {
        self.push(NodeKind::Leaf(module), &[])
    }

    /// Adds a slice node over `children` and returns its id.
    pub fn slice(&mut self, dir: CutDir, children: Vec<NodeId>) -> NodeId {
        self.push(NodeKind::Slice(dir), &children)
    }

    /// Adds a wheel node over `children` (`[A, B, C, D, E]`) and returns
    /// its id.
    pub fn wheel(&mut self, chirality: Chirality, children: [NodeId; 5]) -> NodeId {
        self.push(NodeKind::Wheel(chirality), &children)
    }

    /// The root node id (the last node added, unless overridden).
    #[inline]
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Overrides the root.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of this tree.
    pub fn set_root(&mut self, root: NodeId) {
        assert!(root < self.len(), "root {root} out of range");
        self.root = root;
    }

    /// The node with the given id, if present.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<Node<'_>> {
        let kind = *self.kinds.get(id)?;
        Some(Node {
            kind,
            children: self.children(id),
        })
    }

    /// The children of node `id`, which must be in range.
    #[inline]
    fn children(&self, id: NodeId) -> &[NodeId] {
        &self.child_ids[self.child_start[id]..self.child_start[id + 1]]
    }

    /// Number of nodes (internal + leaves).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the tree has no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of leaves (= number of module instances).
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| matches!(k, NodeKind::Leaf(_)))
            .count()
    }

    /// The leaf node ids in depth-first (left-to-right) order from the
    /// root. This is the canonical leaf order used by assignments.
    #[must_use]
    pub fn leaves_in_order(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        if self.is_empty() {
            return out;
        }
        // Depth-first, children left-to-right.
        while let Some(id) = stack.pop() {
            if matches!(self.kinds[id], NodeKind::Leaf(_)) {
                out.push(id);
            } else {
                stack.extend(self.children(id).iter().rev());
            }
        }
        out
    }

    /// The maximum depth (root = 1; empty tree = 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut max = 0;
        let mut stack = vec![(self.root, 1usize)];
        while let Some((id, d)) = stack.pop() {
            max = max.max(d);
            for &c in self.children(id) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// Checks all structural invariants.
    ///
    /// Faults are reported in a fixed order: the lowest node id with a
    /// dangling child or a wrong arity (a dangling child first), then a
    /// root that is some node's child, then the lowest id with several
    /// parents, then the lowest id the root does not reach.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`TreeError`].
    pub fn validate(&self) -> Result<(), TreeError> {
        let n = self.len();
        if n == 0 {
            return Ok(());
        }
        // Parent counts saturate: only 0, 1 and "more" matter.
        let mut parent_count = vec![0u8; n];
        for (id, &kind) in self.kinds.iter().enumerate() {
            let children = self.children(id);
            for &c in children {
                if c >= n {
                    return Err(TreeError::DanglingChild {
                        parent: id,
                        child: c,
                    });
                }
                parent_count[c] = parent_count[c].saturating_add(1);
            }
            let arity = children.len();
            match kind {
                NodeKind::Leaf(_) if arity != 0 => {
                    return Err(TreeError::LeafWithChildren { node: id });
                }
                NodeKind::Slice(_) if arity < 2 => {
                    return Err(TreeError::SliceTooSmall { node: id, arity });
                }
                NodeKind::Wheel(_) if arity != 5 => {
                    return Err(TreeError::WheelArity { node: id, arity });
                }
                _ => {}
            }
        }
        if parent_count[self.root] != 0 {
            return Err(TreeError::NotATree { node: self.root });
        }
        for (id, &count) in parent_count.iter().enumerate() {
            if count > 1 {
                return Err(TreeError::NotATree { node: id });
            }
        }
        // Reachability from the root.
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        while let Some(id) = stack.pop() {
            for &c in self.children(id) {
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(TreeError::Unreachable { node: orphan });
        }
        Ok(())
    }
}

impl fmt::Display for FloorplanTree {
    /// Indented textual rendering of the hierarchy, e.g.
    ///
    /// ```text
    /// hsplit
    ///   vsplit
    ///     leaf m0
    ///     leaf m1
    ///   leaf m2
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(
            tree: &FloorplanTree,
            id: NodeId,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let node = tree.node(id).expect("display walks valid ids");
            let indent = "  ".repeat(depth);
            match &node.kind {
                NodeKind::Leaf(m) => writeln!(f, "{indent}leaf m{m}")?,
                NodeKind::Slice(CutDir::Horizontal) => writeln!(f, "{indent}hsplit")?,
                NodeKind::Slice(CutDir::Vertical) => writeln!(f, "{indent}vsplit")?,
                NodeKind::Wheel(Chirality::Clockwise) => writeln!(f, "{indent}wheel cw")?,
                NodeKind::Wheel(Chirality::Counterclockwise) => writeln!(f, "{indent}wheel ccw")?,
            }
            for &c in node.children {
                go(tree, c, depth + 1, f)?;
            }
            Ok(())
        }
        if self.is_empty() {
            return writeln!(f, "(empty floorplan)");
        }
        go(self, self.root, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_tree() -> FloorplanTree {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let row = t.slice(CutDir::Vertical, vec![a, b]);
        let c = t.leaf(2);
        t.slice(CutDir::Horizontal, vec![row, c]);
        t
    }

    #[test]
    fn build_and_count() {
        let t = figure1_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.module_count(), 3);
        assert_eq!(t.depth(), 3);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn leaves_in_canonical_order() {
        let t = figure1_tree();
        let leaves = t.leaves_in_order();
        let modules: Vec<_> = leaves
            .iter()
            .map(|&id| match t.node(id).expect("exists").kind {
                NodeKind::Leaf(m) => m,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(modules, vec![0, 1, 2]);
    }

    #[test]
    fn wheel_arity_checked() {
        let mut t = FloorplanTree::new();
        let leaves: Vec<NodeId> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [leaves[0], leaves[1], leaves[2], leaves[3], leaves[4]],
        );
        assert!(t.validate().is_ok());

        // Break it manually.
        let mut bad = FloorplanTree::new();
        let a = bad.leaf(0);
        let b = bad.leaf(1);
        bad.push(NodeKind::Wheel(Chirality::Clockwise), &[a, b]);
        assert_eq!(
            bad.validate(),
            Err(TreeError::WheelArity { node: 2, arity: 2 })
        );
    }

    #[test]
    fn slice_arity_checked() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        t.slice(CutDir::Vertical, vec![a]);
        assert_eq!(
            t.validate(),
            Err(TreeError::SliceTooSmall { node: 1, arity: 1 })
        );
    }

    #[test]
    fn shared_child_rejected() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Vertical, vec![a, b]);
        let d = t.leaf(2);
        // Node `b` appears under two parents.
        t.slice(CutDir::Horizontal, vec![2, d, b]);
        assert_eq!(t.validate(), Err(TreeError::NotATree { node: b }));
    }

    #[test]
    fn dangling_child_rejected() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        t.slice(CutDir::Vertical, vec![a, 99]);
        assert_eq!(
            t.validate(),
            Err(TreeError::DanglingChild {
                parent: 1,
                child: 99
            })
        );
    }

    #[test]
    fn leaf_with_children_rejected() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        t.push(NodeKind::Leaf(1), &[a]);
        assert_eq!(t.validate(), Err(TreeError::LeafWithChildren { node: 1 }));
    }

    #[test]
    fn root_that_is_a_child_rejected() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Vertical, vec![a, b]);
        t.set_root(a);
        assert_eq!(t.validate(), Err(TreeError::NotATree { node: a }));
    }

    /// On trees with two faults, the one the documented order puts first
    /// is reported.
    #[test]
    fn validation_reports_faults_in_order() {
        // A dangling child comes before its own node's arity fault.
        let mut t = FloorplanTree::new();
        t.slice(CutDir::Vertical, vec![99]);
        assert_eq!(
            t.validate(),
            Err(TreeError::DanglingChild {
                parent: 0,
                child: 99
            })
        );

        // The lowest id's arity fault comes before a later dangling child
        // and before the node it shares (0 and 1 have two parents).
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let s = t.slice(CutDir::Vertical, vec![a, b]);
        t.push(NodeKind::Wheel(Chirality::Clockwise), &[a, b]);
        t.slice(CutDir::Horizontal, vec![s, 99]);
        assert_eq!(
            t.validate(),
            Err(TreeError::WheelArity { node: 3, arity: 2 })
        );

        // The lowest id's dangling child comes before a later arity fault
        // and before a shared node.
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Vertical, vec![a, 99]);
        t.slice(CutDir::Vertical, vec![b]);
        t.slice(CutDir::Horizontal, vec![a, b]);
        assert_eq!(
            t.validate(),
            Err(TreeError::DanglingChild {
                parent: 2,
                child: 99
            })
        );

        // The lowest shared node is reported, but a root with a parent
        // comes before it.
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let s = t.slice(CutDir::Vertical, vec![a, b]);
        t.slice(CutDir::Horizontal, vec![a, s]);
        assert_eq!(t.validate(), Err(TreeError::NotATree { node: a }));
        t.set_root(s);
        assert_eq!(t.validate(), Err(TreeError::NotATree { node: s }));

        // A shared node comes before an unreachable one.
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let s = t.slice(CutDir::Vertical, vec![a, b]);
        let _orphan = t.leaf(2);
        t.slice(CutDir::Horizontal, vec![b, s]);
        assert_eq!(t.validate(), Err(TreeError::NotATree { node: b }));
    }

    #[test]
    fn node_views_lend_kind_and_children() {
        let t = figure1_tree();
        assert_eq!(
            t.node(2),
            Some(Node {
                kind: NodeKind::Slice(CutDir::Vertical),
                children: &[0, 1],
            })
        );
        assert_eq!(
            t.node(3).map(|n| (n.kind, n.children.len())),
            Some((NodeKind::Leaf(2), 0))
        );
        assert_eq!(t.node(t.len()), None);
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let s = t.slice(CutDir::Vertical, vec![a, b]);
        let _orphan = t.leaf(2);
        t.set_root(s);
        assert_eq!(t.validate(), Err(TreeError::Unreachable { node: 3 }));
    }

    #[test]
    fn empty_tree_is_valid() {
        assert!(FloorplanTree::new().validate().is_ok());
        assert_eq!(FloorplanTree::new().depth(), 0);
        assert!(FloorplanTree::new().leaves_in_order().is_empty());
    }

    #[test]
    fn display_renders_hierarchy() {
        let t = figure1_tree();
        let text = t.to_string();
        assert_eq!(
            text,
            "hsplit\n  vsplit\n    leaf m0\n    leaf m1\n  leaf m2\n"
        );
        assert_eq!(FloorplanTree::new().to_string(), "(empty floorplan)\n");
    }

    #[test]
    fn cut_dir_perpendicular() {
        assert_eq!(CutDir::Horizontal.perpendicular(), CutDir::Vertical);
        assert_eq!(CutDir::Vertical.perpendicular(), CutDir::Horizontal);
    }
}
