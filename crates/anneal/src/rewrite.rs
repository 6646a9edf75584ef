//! Wheel rewriting: a post-search refinement that upgrades slicing
//! sub-structures to order-5 wheels.
//!
//! Slicing topologies (which the Polish-expression annealer searches)
//! cannot express the pinwheel — the canonical example being four dominoes
//! around a unit square, which tile a 3×3 die exactly but waste space in
//! every slicing arrangement. This pass hill-climbs over the tree: any
//! internal node whose subtree holds exactly five leaves can be replaced
//! by a wheel over those five modules (both chiralities tried); the best
//! strict improvement is applied and the scan repeats until fixpoint.
//!
//! Each candidate is evaluated with the full Wang–Wong optimizer, so the
//! pass is where the DAC'92 machinery (L-shaped blocks and their
//! selection) enters an otherwise slicing-only flow.

use fp_optimizer::{OptError, OptimizeConfig, Optimizer};
use fp_tree::{Chirality, FloorplanTree, ModuleLibrary, NodeId, NodeKind};

/// The outcome of a [`wheel_rewrite`] pass.
#[derive(Debug, Clone)]
pub struct RewriteResult {
    /// The refined topology.
    pub tree: FloorplanTree,
    /// Its optimal area.
    pub area: u128,
    /// The starting topology's optimal area.
    pub initial_area: u128,
    /// How many wheel replacements were applied.
    pub rewrites: usize,
}

/// Hill-climbs `tree` by replacing 5-leaf subtrees with wheels while that
/// strictly improves the optimal area.
///
/// Candidates that exhaust the optimizer's memory budget are skipped (a
/// wheel can be arbitrarily more expensive to evaluate than the slicing
/// structure it replaces — configure selection policies accordingly).
///
/// # Panics
///
/// Panics if the *initial* tree does not optimize under `config` (the
/// caller's inputs must at least evaluate once).
#[must_use]
pub fn wheel_rewrite(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> RewriteResult {
    let initial_area = Optimizer::new(tree, library)
        .config(config)
        .run_best()
        .expect("the initial tree must optimize")
        .area;
    let mut current = tree.clone();
    let mut current_area = initial_area;
    let mut rewrites = 0usize;

    loop {
        let mut best: Option<(u128, FloorplanTree)> = None;
        for node in 0..current.len() {
            let Some(kind) = current.node(node).map(|n| n.kind) else {
                continue;
            };
            if matches!(kind, NodeKind::Leaf(_) | NodeKind::Wheel(_)) {
                continue;
            }
            let leaves = subtree_leaf_modules(&current, node);
            if leaves.len() != 5 {
                continue;
            }
            for chirality in [Chirality::Clockwise, Chirality::Counterclockwise] {
                let candidate = replace_with_wheel(&current, node, &leaves, chirality);
                match Optimizer::new(&candidate, library)
                    .config(config)
                    .run_best()
                {
                    Ok(out) if out.area < current_area => {
                        if best.as_ref().is_none_or(|(a, _)| out.area < *a) {
                            best = Some((out.area, candidate));
                        }
                    }
                    Ok(_) => {}
                    // Too expensive to evaluate under the budget: skip.
                    Err(OptError::OutOfMemory { .. }) => {}
                    Err(e) => unreachable!("rewritten trees stay structurally valid: {e}"),
                }
            }
        }
        match best {
            Some((area, tree)) => {
                current = tree;
                current_area = area;
                rewrites += 1;
            }
            None => break,
        }
    }

    RewriteResult {
        tree: current,
        area: current_area,
        initial_area,
        rewrites,
    }
}

/// The module ids at the leaves of `node`'s subtree, in DFS order.
fn subtree_leaf_modules(tree: &FloorplanTree, node: NodeId) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        let n = tree.node(id).expect("in range");
        match &n.kind {
            NodeKind::Leaf(m) => out.push(*m),
            _ => stack.extend(n.children.iter().rev()),
        }
    }
    out
}

/// A copy of `tree` with the subtree at `target` replaced by a wheel over
/// `modules` (which must have exactly five entries).
fn replace_with_wheel(
    tree: &FloorplanTree,
    target: NodeId,
    modules: &[usize],
    chirality: Chirality,
) -> FloorplanTree {
    assert_eq!(modules.len(), 5, "wheels take exactly five modules");
    let mut out = FloorplanTree::new();
    let root = copy_rec(tree, tree.root(), target, modules, chirality, &mut out);
    out.set_root(root);
    debug_assert!(out.validate().is_ok());
    out
}

fn copy_rec(
    tree: &FloorplanTree,
    id: NodeId,
    target: NodeId,
    modules: &[usize],
    chirality: Chirality,
    out: &mut FloorplanTree,
) -> NodeId {
    if id == target {
        let leaves: Vec<NodeId> = modules.iter().map(|&m| out.leaf(m)).collect();
        return out.wheel(
            chirality,
            [leaves[0], leaves[1], leaves[2], leaves[3], leaves[4]],
        );
    }
    let node = tree.node(id).expect("in range");
    match &node.kind {
        NodeKind::Leaf(m) => out.leaf(*m),
        NodeKind::Slice(dir) => {
            let kids: Vec<NodeId> = node
                .children
                .iter()
                .map(|&c| copy_rec(tree, c, target, modules, chirality, out))
                .collect();
            out.slice(*dir, kids)
        }
        NodeKind::Wheel(ch) => {
            let kids: Vec<NodeId> = node
                .children
                .iter()
                .map(|&c| copy_rec(tree, c, target, modules, chirality, out))
                .collect();
            out.wheel(*ch, [kids[0], kids[1], kids[2], kids[3], kids[4]])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geom::Rect;
    use fp_tree::layout::realize;
    use fp_tree::{CutDir, Module};

    /// Four rotatable dominoes and a unit square: the pinwheel tiles 3x3
    /// exactly; no slicing arrangement does.
    fn domino_library() -> ModuleLibrary {
        (0..5)
            .map(|i| {
                if i < 4 {
                    Module::hard(format!("d{i}"), Rect::new(2, 1), true)
                } else {
                    Module::hard("centre", Rect::new(1, 1), false)
                }
            })
            .collect()
    }

    fn slicing_tree_of_five() -> FloorplanTree {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let top = t.slice(CutDir::Vertical, vec![a, b]);
        let c = t.leaf(2);
        let d = t.leaf(3);
        let e = t.leaf(4);
        let bottom = t.slice(CutDir::Vertical, vec![c, d, e]);
        t.slice(CutDir::Horizontal, vec![top, bottom]);
        t
    }

    #[test]
    fn discovers_the_pinwheel() {
        let library = domino_library();
        let tree = slicing_tree_of_five();
        let config = OptimizeConfig::default();
        let slicing_area = Optimizer::new(&tree, &library)
            .config(&config)
            .run_best()
            .expect("runs")
            .area;
        assert!(
            slicing_area > 9,
            "no slicing arrangement tiles 3x3: {slicing_area}"
        );

        let result = wheel_rewrite(&tree, &library, &config);
        assert_eq!(result.initial_area, slicing_area);
        assert_eq!(
            result.area, 9,
            "the rewrite must find the exact pinwheel tiling"
        );
        assert_eq!(result.rewrites, 1);

        let out = Optimizer::new(&result.tree, &library)
            .config(&config)
            .run_best()
            .expect("runs");
        let layout = realize(&result.tree, &library, &out.assignment).expect("valid");
        assert_eq!(layout.dead_space(), 0);
    }

    #[test]
    fn no_rewrite_when_slicing_is_already_optimal() {
        // Four unit squares: a 2x2 grid is perfect; wheels cannot beat it
        // (and no 5-leaf subtree exists anyway).
        let library: ModuleLibrary = (0..4)
            .map(|i| Module::hard(format!("u{i}"), Rect::new(1, 1), false))
            .collect();
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let r1 = t.slice(CutDir::Vertical, vec![a, b]);
        let c = t.leaf(2);
        let d = t.leaf(3);
        let r2 = t.slice(CutDir::Vertical, vec![c, d]);
        t.slice(CutDir::Horizontal, vec![r1, r2]);
        let result = wheel_rewrite(&t, &library, &OptimizeConfig::default());
        assert_eq!(result.rewrites, 0);
        assert_eq!(result.area, result.initial_area);
    }

    #[test]
    fn rewrites_inside_larger_trees() {
        // The five dominoes sit beside a 3x3 macro: pinwheeling the five
        // gives a 6x3 floorplan (area 18); any slicing arrangement of the
        // five next to the macro needs more.
        let mut library = domino_library();
        library.extend([Module::hard("x0", Rect::new(3, 3), false)]);
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        let top = t.slice(CutDir::Vertical, vec![a, b]);
        let c = t.leaf(2);
        let d = t.leaf(3);
        let e = t.leaf(4);
        let bottom = t.slice(CutDir::Vertical, vec![c, d, e]);
        let five = t.slice(CutDir::Horizontal, vec![top, bottom]);
        let x0 = t.leaf(5);
        t.slice(CutDir::Vertical, vec![five, x0]);

        let result = wheel_rewrite(&t, &library, &OptimizeConfig::default());
        assert!(result.rewrites >= 1);
        assert!(result.area < result.initial_area);
        // The wheel should appear in the refined tree.
        let wheels = (0..result.tree.len())
            .filter(|&i| matches!(result.tree.node(i).expect("node").kind, NodeKind::Wheel(_)))
            .count();
        assert_eq!(wheels, 1);
    }
}
