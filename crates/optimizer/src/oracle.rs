//! Exhaustive oracle: enumerates every assignment and realizes each layout.
//!
//! Exponentially slow but trivially correct — it is the ground truth the
//! engine is tested against on small floorplans (including wheels, which
//! [`crate::stockmeyer`] cannot check).

use fp_geom::Area;
use fp_tree::layout::{realize, Assignment};
use fp_tree::{FloorplanTree, ModuleLibrary, NodeKind};

/// The exact optimal area and one optimal assignment, by brute force.
///
/// Returns `None` if the tree is empty or any module is missing/empty.
///
/// # Panics
///
/// Panics if the search space exceeds `max_combinations` — pick small
/// instances.
///
/// # Example
///
/// ```
/// use fp_optimizer::oracle::exhaustive_optimal;
/// use fp_tree::generators;
///
/// let bench = generators::fig1();
/// let lib = generators::module_library(&bench.tree, 2, 3);
/// let (area, _) = exhaustive_optimal(&bench.tree, &lib, 1 << 16).expect("solvable");
/// assert!(area > 0);
/// ```
#[must_use]
pub fn exhaustive_optimal(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    max_combinations: u64,
) -> Option<(Area, Assignment)> {
    if tree.is_empty() {
        return None;
    }
    let leaves = tree.leaves_in_order();
    let mut counts = Vec::with_capacity(leaves.len());
    for &leaf in &leaves {
        let module = match tree.node(leaf)?.kind {
            NodeKind::Leaf(m) => m,
            _ => return None,
        };
        let n = library.get(module)?.implementations().len();
        if n == 0 {
            return None;
        }
        counts.push(n);
    }
    let total: u64 = counts
        .iter()
        .try_fold(1u64, |acc, &n| acc.checked_mul(n as u64))?;
    assert!(
        total <= max_combinations,
        "search space {total} exceeds the oracle cap {max_combinations}"
    );

    let mut best: Option<(Area, Assignment)> = None;
    let mut choices = vec![0usize; counts.len()];
    loop {
        let assignment = Assignment::new(choices.clone());
        // Choices are in range by construction; treat a realize failure as
        // an unsolvable instance rather than panicking.
        let layout = realize(tree, library, &assignment).ok()?;
        debug_assert_eq!(layout.validate(), None);
        let area = layout.area();
        if best.as_ref().is_none_or(|(b, _)| area < *b) {
            best = Some((area, assignment));
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == choices.len() {
                return best;
            }
            choices[i] += 1;
            if choices[i] < counts[i] {
                break;
            }
            choices[i] = 0;
            i += 1;
        }
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
    use crate::{Objective, SharedBlockCache};
    use fp_geom::Rect;
    use fp_tree::{generators, Chirality, Module};
    use proptest::prelude::*;

    #[test]
    fn domino_wheel_matches_engine() {
        let mut t = FloorplanTree::new();
        let ids: Vec<_> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [ids[0], ids[1], ids[2], ids[3], ids[4]],
        );
        let lib: ModuleLibrary = (0..5)
            .map(|i| Module::hard(format!("m{i}"), Rect::new(1 + i % 2, 2 - i % 2), true))
            .collect();
        let (oracle_area, _) = exhaustive_optimal(&t, &lib, 1 << 20).expect("solvable");
        let engine = optimize(&t, &lib, &OptimizeConfig::default()).expect("solves");
        assert_eq!(engine.area, oracle_area);
    }

    #[test]
    #[should_panic(expected = "exceeds the oracle cap")]
    fn cap_is_enforced() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 4, 1);
        let _ = exhaustive_optimal(&bench.tree, &lib, 1 << 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        /// The engine (no selection) is exactly optimal: it matches brute
        /// force on random mixed slicing/wheel floorplans.
        #[test]
        fn engine_is_optimal(tree_seed in 0u64..50, lib_seed in 0u64..20,
                             leaves in 2usize..9) {
            let bench = generators::random_floorplan(leaves, 0.7, tree_seed);
            let lib = generators::module_library(&bench.tree, 3, lib_seed);
            let (oracle_area, _) = exhaustive_optimal(&bench.tree, &lib, 1 << 22)
                .expect("solvable");
            let engine = optimize(&bench.tree, &lib, &OptimizeConfig::default())
                .expect("solves");
            prop_assert_eq!(engine.area, oracle_area);
        }
    }

    proptest! {
        /// Differential member: every random slicing/wheel floorplan runs
        /// serially, at 2 threads with per-node tasks (every join reads
        /// blocks other workers built), and against a warmed block cache
        /// (every join block is reconstituted from a hit). All three
        /// frontiers and every traced-back assignment agree, each
        /// assignment realizes to its envelope, and the best area is the
        /// brute-force optimum. Runs on the default config, so
        /// `PROPTEST_CASES` sets its size.
        #[test]
        fn serial_parallel_and_cached_runs_agree_with_the_oracle(
            tree_seed in 0u64..100_000,
            lib_seed in 0u64..100_000,
            leaves in 2usize..9,
        ) {
            let bench = generators::random_floorplan(leaves, 0.7, tree_seed);
            let lib = generators::module_library(&bench.tree, 3, lib_seed);
            let serial_cfg = OptimizeConfig::default().with_threads(1);
            let parallel_cfg = OptimizeConfig::default()
                .with_threads(2)
                .with_split_threshold(0);
            let frontier = |config: &OptimizeConfig, cache: Option<&SharedBlockCache>| {
                let run = Optimizer::new(&bench.tree, &lib).config(config);
                match cache {
                    Some(cache) => run.cache(cache).run_frontier(),
                    None => run.run_frontier(),
                }
                .expect("solves")
            };
            let serial = frontier(&serial_cfg, None);
            let parallel = frontier(&parallel_cfg, None);
            let cache = SharedBlockCache::new(1 << 24);
            let cold = frontier(&serial_cfg, Some(&cache));
            let cached = frontier(&parallel_cfg, Some(&cache));
            prop_assert_eq!(cached.stats().cache_misses, 0);
            prop_assert_eq!(cached.stats().cache_hits, cold.stats().cache_misses);

            let envelopes = serial.envelopes();
            for other in [&parallel, &cached] {
                prop_assert_eq!(other.envelopes(), envelopes);
            }
            for i in 0..envelopes.len() {
                let assignment = serial.outcome(i).assignment;
                for other in [&parallel, &cached] {
                    prop_assert_eq!(&other.outcome(i).assignment, &assignment);
                }
                let layout = realize(&bench.tree, &lib, &assignment).expect("realizes");
                prop_assert_eq!(layout.envelope, envelopes[i]);
                prop_assert_eq!(layout.validate(), None);
            }
            let (oracle_area, _) = exhaustive_optimal(&bench.tree, &lib, 1 << 22)
                .expect("solvable");
            let best = serial.best(Objective::MinArea, None).expect("feasible");
            prop_assert_eq!(best.area, oracle_area);
        }
    }
}
