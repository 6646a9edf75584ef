//! A direct (unstaged) optimizer used as an independent cross-check.
//!
//! The main engine assembles wheels through the four-stage L-shape join
//! pipeline; this baseline instead evaluates each wheel node by brute
//! force over the **full 5-way cross product** of its children's
//! implementation lists, using only the closed-form
//! [`fp_tree::wheel::min_envelope`]. No L-shapes, no chains, no staging —
//! a completely different code path that must produce the same optimal
//! areas. It is exponential in wheel fan-in sizes, so use it on small
//! instances (tests cap the work).

use fp_geom::Area;
use fp_shape::combine::{combine_with_provenance, Compose};
use fp_shape::prune::pareto_min_rects_by;
use fp_shape::RList;
use fp_tree::layout::Assignment;
use fp_tree::{wheel, CutDir, FloorplanTree, ModuleLibrary, NodeId, NodeKind};

use crate::stockmeyer::SlicingError;

/// Per-node solved state with enough provenance to trace any root
/// implementation back to the leaves.
struct Solved {
    list: RList,
    /// For each implementation: the child implementation indices that
    /// produced it (arity 0 for leaves, 2 for slices, 5 for wheels).
    prov: Vec<Vec<usize>>,
    children: Vec<Solved>,
    leaf: Option<NodeId>,
}

/// The optimal area and assignment by direct evaluation (slices via the
/// Stockmeyer merge, wheels via the full 5-way cross product).
///
/// # Errors
///
/// [`SlicingError::BadInput`] for invalid trees/libraries or when the
/// cross-product work would exceed `max_combos_per_wheel`.
pub fn direct_optimal(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    max_combos_per_wheel: u64,
) -> Result<(Area, Assignment), SlicingError> {
    tree.validate()
        .map_err(|e| SlicingError::BadInput(e.to_string()))?;
    if tree.is_empty() {
        return Err(SlicingError::BadInput("empty floorplan".into()));
    }
    let solved = solve(tree, library, tree.root(), max_combos_per_wheel)?;
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
    cap: u64,
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
                children: Vec::new(),
                leaf: Some(id),
            })
        }
        NodeKind::Slice(dir) => {
            let how = match dir {
                CutDir::Vertical => Compose::Beside,
                CutDir::Horizontal => Compose::Stack,
            };
            let mut kids = Vec::new();
            for &child in node.children {
                kids.push(solve(tree, library, child, cap)?);
            }
            let mut acc = kids.remove(0);
            for rhs in kids {
                let combined = combine_with_provenance(&acc.list, &rhs.list, how);
                let list = RList::from_sorted(combined.iter().map(|c| c.rect).collect()).map_err(
                    |_| SlicingError::BadInput("merge output is not a staircase".into()),
                )?;
                let prov = combined.iter().map(|c| vec![c.left, c.right]).collect();
                acc = Solved {
                    list,
                    prov,
                    children: vec![acc, rhs],
                    leaf: None,
                };
            }
            Ok(acc)
        }
        NodeKind::Wheel(_) => {
            let mut kids = Vec::new();
            for &child in node.children {
                kids.push(solve(tree, library, child, cap)?);
            }
            let combos = kids.iter().map(|k| k.list.len() as u64).product::<u64>();
            if combos > cap {
                return Err(SlicingError::BadInput(format!(
                    "wheel at node {id} needs {combos} combinations (cap {cap})"
                )));
            }
            // Full cross product through the closed-form wheel envelope.
            let mut candidates = Vec::with_capacity(combos as usize);
            let sizes: Vec<usize> = kids.iter().map(|k| k.list.len()).collect();
            let mut idx = vec![0usize; 5];
            loop {
                let env = wheel::min_envelope([
                    kids[0].list[idx[0]],
                    kids[1].list[idx[1]],
                    kids[2].list[idx[2]],
                    kids[3].list[idx[3]],
                    kids[4].list[idx[4]],
                ]);
                candidates.push((env, idx.clone()));
                // Odometer.
                let mut i = 0;
                loop {
                    if i == 5 {
                        let pruned = pareto_min_rects_by(candidates, |&(r, _)| r);
                        let list = RList::from_sorted(pruned.iter().map(|&(r, _)| r).collect())
                            .map_err(|_| {
                                SlicingError::BadInput("pruned output is not a staircase".into())
                            })?;
                        let prov = pruned.into_iter().map(|(_, p)| p).collect();
                        return Ok(Solved {
                            list,
                            prov,
                            children: kids,
                            leaf: None,
                        });
                    }
                    idx[i] += 1;
                    if idx[i] < sizes[i] {
                        break;
                    }
                    idx[i] = 0;
                    i += 1;
                }
            }
        }
    }
}

fn backtrack(solved: &Solved, idx: usize, slot_of: &[usize], choices: &mut Vec<usize>) {
    if let Some(leaf) = solved.leaf {
        if let Some(c) = slot_of.get(leaf).and_then(|&slot| choices.get_mut(slot)) {
            *c = idx;
        }
        return;
    }
    let Some(prov) = solved.prov.get(idx) else {
        debug_assert!(false, "provenance index out of range");
        return;
    };
    for (child, &child_idx) in solved.children.iter().zip(prov) {
        backtrack(child, child_idx, slot_of, choices);
    }
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
    use fp_tree::generators;
    use fp_tree::layout::realize;
    use proptest::prelude::*;

    #[test]
    fn caps_excessive_wheels() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 6, 1);
        assert!(direct_optimal(&bench.tree, &lib, 100).is_err());
    }

    #[test]
    fn single_wheel_matches_engine() {
        use fp_tree::Chirality;
        let mut t = FloorplanTree::new();
        let ids: Vec<_> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [ids[0], ids[1], ids[2], ids[3], ids[4]],
        );
        let lib = generators::module_library(&t, 5, 17);
        let (area, assignment) = direct_optimal(&t, &lib, 1 << 20).expect("solves");
        let engine = optimize(&t, &lib, &OptimizeConfig::default()).expect("runs");
        assert_eq!(area, engine.area);
        let layout = realize(&t, &lib, &assignment).expect("valid");
        assert_eq!(layout.area(), area);
        assert_eq!(layout.validate(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The staged L-join engine and the direct 5-way cross product are
        /// two independent implementations of wheel composition: they must
        /// agree on every random mixed floorplan.
        #[test]
        fn direct_matches_engine(tree_seed in 0u64..60, lib_seed in 0u64..20,
                                 leaves in 5usize..14) {
            let bench = generators::random_floorplan(leaves, 0.7, tree_seed);
            let lib = generators::module_library(&bench.tree, 3, lib_seed);
            let direct = direct_optimal(&bench.tree, &lib, 1 << 22);
            prop_assume!(direct.is_ok()); // skip over-cap instances
            let (area, assignment) = direct.expect("checked");
            let engine = optimize(&bench.tree, &lib, &OptimizeConfig::default())
                .expect("runs");
            prop_assert_eq!(area, engine.area);
            let layout = realize(&bench.tree, &lib, &assignment).expect("valid");
            prop_assert_eq!(layout.area(), area);
            prop_assert_eq!(layout.validate(), None);
        }
    }
}
