//! An independent slicing-floorplan optimizer (Stockmeyer 1983), used as a
//! baseline and as a cross-check of the main engine on slicing inputs.
//!
//! This implementation deliberately shares no machinery with the
//! [`crate::Optimizer`] engine: it recurses directly over the floorplan
//! tree, merging children's R-lists, and backtracks by re-deriving each
//! merge. On any wheel-free floorplan its optimum must coincide with the
//! engine's (a cross-validation test enforces this).

use core::fmt;

use fp_geom::Area;
use fp_shape::combine::{combine_with_provenance, CombinedRect, Compose};
use fp_shape::RList;
use fp_tree::layout::Assignment;
use fp_tree::{CutDir, FloorplanTree, ModuleLibrary, NodeId, NodeKind};

/// Errors reported by [`slicing_optimal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlicingError {
    /// The floorplan contains a wheel; this baseline handles slicing trees
    /// only.
    NotSlicing {
        /// The wheel node.
        node: NodeId,
    },
    /// The tree is invalid or a module is missing/empty.
    BadInput(String),
}

impl fmt::Display for SlicingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlicingError::NotSlicing { node } => {
                write!(
                    f,
                    "node {node} is a wheel; Stockmeyer handles slicing floorplans only"
                )
            }
            SlicingError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for SlicingError {}

/// Per-node solved state: the irreducible list plus, for internal nodes,
/// the provenance of every entry.
struct Solved {
    list: RList,
    /// For each entry: (left-list index, right-list index); empty at leaves.
    prov: Vec<CombinedRect>,
    left: Option<Box<Solved>>,
    right: Option<Box<Solved>>,
    /// The leaf's tree node, if a leaf.
    leaf: Option<NodeId>,
}

/// The optimal area and assignment of a pure slicing floorplan.
///
/// # Errors
///
/// [`SlicingError::NotSlicing`] if a wheel occurs; [`SlicingError::BadInput`]
/// for invalid trees/libraries.
///
/// # Example
///
/// ```
/// use fp_optimizer::stockmeyer::slicing_optimal;
/// use fp_tree::generators;
///
/// let bench = generators::fig1(); // pure slicing
/// let lib = generators::module_library(&bench.tree, 3, 2);
/// let (area, assignment) = slicing_optimal(&bench.tree, &lib)?;
/// assert!(area > 0);
/// assert_eq!(assignment.choices.len(), 5);
/// # Ok::<(), fp_optimizer::stockmeyer::SlicingError>(())
/// ```
pub fn slicing_optimal(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
) -> Result<(Area, Assignment), SlicingError> {
    tree.validate()
        .map_err(|e| SlicingError::BadInput(e.to_string()))?;
    if tree.is_empty() {
        return Err(SlicingError::BadInput("empty floorplan".into()));
    }
    let solved = solve(tree, library, tree.root())?;
    let (best_idx, best) = solved
        .list
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| (r.area(), r.w))
        .map(|(i, r)| (i, *r))
        .ok_or_else(|| SlicingError::BadInput("empty implementation list".into()))?;

    let leaves = tree.leaves_in_order();
    let mut slot_of = vec![usize::MAX; tree.len()];
    for (slot, &leaf) in leaves.iter().enumerate() {
        slot_of[leaf] = slot;
    }
    let mut choices = vec![0usize; leaves.len()];
    backtrack(&solved, best_idx, &slot_of, &mut choices);
    Ok((best.area(), Assignment::new(choices)))
}

fn solve(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    id: NodeId,
) -> Result<Solved, SlicingError> {
    let node = tree
        .node(id)
        .ok_or_else(|| SlicingError::BadInput(format!("node {id} out of range")))?;
    match &node.kind {
        NodeKind::Leaf(m) => {
            let module = library
                .get(*m)
                .ok_or_else(|| SlicingError::BadInput(format!("missing module {m}")))?;
            if module.implementations().is_empty() {
                return Err(SlicingError::BadInput(format!(
                    "module {m} has no implementations"
                )));
            }
            Ok(Solved {
                list: module.implementations().clone(),
                prov: Vec::new(),
                left: None,
                right: None,
                leaf: Some(id),
            })
        }
        NodeKind::Slice(dir) => {
            let how = match dir {
                CutDir::Vertical => Compose::Beside,
                CutDir::Horizontal => Compose::Stack,
            };
            let mut acc = solve(tree, library, node.children[0])?;
            for &child in &node.children[1..] {
                let rhs = solve(tree, library, child)?;
                let combined = combine_with_provenance(&acc.list, &rhs.list, how);
                let list = RList::from_sorted(combined.iter().map(|c| c.rect).collect()).map_err(
                    |_| SlicingError::BadInput("merge output is not a staircase".into()),
                )?;
                acc = Solved {
                    list,
                    prov: combined,
                    left: Some(Box::new(acc)),
                    right: Some(Box::new(rhs)),
                    leaf: None,
                };
            }
            Ok(acc)
        }
        NodeKind::Wheel(_) => Err(SlicingError::NotSlicing { node: id }),
    }
}

fn backtrack(solved: &Solved, idx: usize, slot_of: &[usize], choices: &mut Vec<usize>) {
    if let Some(leaf) = solved.leaf {
        if let Some(c) = slot_of.get(leaf).and_then(|&slot| choices.get_mut(slot)) {
            *c = idx;
        }
        return;
    }
    let Some(&c) = solved.prov.get(idx) else {
        debug_assert!(false, "provenance index out of range");
        return;
    };
    let (Some(left), Some(right)) = (solved.left.as_deref(), solved.right.as_deref()) else {
        debug_assert!(false, "internal node missing a child");
        return;
    };
    backtrack(left, c.left, slot_of, choices);
    backtrack(right, c.right, slot_of, choices);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptimizeConfig, Optimizer};

    /// Facade shorthand keeping this module's call sites compact.
    fn optimize(
        tree: &fp_tree::FloorplanTree,
        library: &fp_tree::ModuleLibrary,
        config: &OptimizeConfig,
    ) -> Result<crate::Outcome, crate::OptError> {
        Optimizer::new(tree, library).config(config).run_best()
    }
    use fp_geom::Rect;
    use fp_tree::layout::realize;
    use fp_tree::{generators, Module};
    use proptest::prelude::*;

    #[test]
    fn rejects_wheels() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 2, 1);
        assert!(matches!(
            slicing_optimal(&bench.tree, &lib),
            Err(SlicingError::NotSlicing { .. })
        ));
    }

    #[test]
    fn two_stack_example() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::new("a", vec![Rect::new(4, 2), Rect::new(2, 4)]),
            Module::new("b", vec![Rect::new(4, 1), Rect::new(1, 4)]),
        ]
        .into_iter()
        .collect();
        let (area, assignment) = slicing_optimal(&t, &lib).expect("solves");
        assert_eq!(area, 12);
        let layout = realize(&t, &lib, &assignment).expect("valid");
        assert_eq!(layout.area(), 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Stockmeyer and the main engine agree on every slicing floorplan.
        #[test]
        fn agrees_with_engine(tree_seed in 0u64..60, lib_seed in 0u64..20,
                              leaves in 2usize..16) {
            let bench = generators::random_floorplan(leaves, 0.0, tree_seed);
            let lib = generators::module_library(&bench.tree, 4, lib_seed);
            let (area, assignment) = slicing_optimal(&bench.tree, &lib).expect("solves");
            let engine = optimize(&bench.tree, &lib, &OptimizeConfig::default())
                .expect("engine solves");
            prop_assert_eq!(area, engine.area);
            let layout = realize(&bench.tree, &lib, &assignment).expect("valid");
            prop_assert_eq!(layout.area(), area);
            prop_assert_eq!(layout.validate(), None);
        }
    }
}
