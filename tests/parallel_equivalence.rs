//! Property tests pinning the `--parallel` L-reduction to the serial
//! path, bit for bit: same non-redundant frontier, same
//! `DegradationEvent` sequence — on clean runs and on runs rescued by
//! the governor's ladder. This equivalence is what lets the block cache
//! share one address space across both paths (see
//! `fp_optimizer::cache`): a block committed by a serial run may be
//! reconstituted by a parallel one and vice versa.

use fp_optimizer::{Frontier, OptError, OptimizeConfig, Optimizer, RunOutcome};
use fp_select::LReductionPolicy;
use fp_tree::generators;
use fp_tree::{FloorplanTree, ModuleLibrary};
use proptest::prelude::*;

/// Facade shorthand keeping this suite's call sites compact.
fn optimize_frontier(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<Frontier, OptError> {
    Optimizer::new(tree, library).config(config).run_frontier()
}

/// Facade shorthand for the report-carrying runs.
fn optimize_report(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<RunOutcome, OptError> {
    Optimizer::new(tree, library).config(config).run()
}

fn config(k1: usize, k2: usize, theta: f64, parallel: bool) -> OptimizeConfig {
    OptimizeConfig::default()
        .with_r_selection(k1)
        .with_l_selection(
            LReductionPolicy::new(k2)
                .with_theta(theta)
                .with_workers(if parallel { 2 } else { 1 }),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Clean runs: serial and parallel L-reduction yield byte-identical
    /// frontiers and identical degradation sequences.
    #[test]
    fn parallel_l_reduction_is_bit_equal_to_serial(
        tree_seed in 0u64..60,
        lib_seed in 0u64..8,
        leaves in 4usize..14,
        k1 in 4usize..24,
        k2 in 6usize..40,
        theta_pct in 40u32..=100,
    ) {
        let bench = generators::random_floorplan(leaves, 0.6, tree_seed);
        let lib = generators::module_library(&bench.tree, 5, lib_seed);
        let theta = f64::from(theta_pct) / 100.0;

        let serial = optimize_frontier(&bench.tree, &lib, &config(k1, k2, theta, false))
            .expect("serial run solves");
        let parallel = optimize_frontier(&bench.tree, &lib, &config(k1, k2, theta, true))
            .expect("parallel run solves");

        prop_assert_eq!(serial.envelopes(), parallel.envelopes());
        prop_assert_eq!(
            &serial.stats().degradations,
            &parallel.stats().degradations
        );
        prop_assert_eq!(serial.stats().generated, parallel.stats().generated);
        prop_assert_eq!(serial.stats().peak_impls, parallel.stats().peak_impls);
        // The traced-back optimum agrees too (same list, same order).
        prop_assert_eq!(serial.outcome(0).assignment, parallel.outcome(0).assignment);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Rescued runs: when a tight budget sends both paths down the
    /// rescue ladder, they degrade identically — same event sequence,
    /// same final frontier.
    #[test]
    fn parallel_rescue_ladder_is_bit_equal_to_serial(
        tree_seed in 0u64..40,
        lib_seed in 0u64..6,
        leaves in 5usize..12,
    ) {
        let bench = generators::random_floorplan(leaves, 0.6, tree_seed);
        let lib = generators::module_library(&bench.tree, 5, lib_seed);
        let plain = optimize_frontier(&bench.tree, &lib, &OptimizeConfig::default())
            .expect("plain run solves");
        let budget = (plain.stats().peak_impls * 2 / 3).max(1);

        let tight = |parallel: bool| {
            OptimizeConfig::default()
                .with_l_selection(
                    LReductionPolicy::new(64).with_workers(if parallel { 4 } else { 1 }),
                )
                .with_memory_limit(Some(budget))
                .with_auto_rescue(true)
        };
        let serial = optimize_report(&bench.tree, &lib, &tight(false));
        let parallel = optimize_report(&bench.tree, &lib, &tight(true));

        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.rescued, p.rescued);
                prop_assert_eq!(s.outcome.area, p.outcome.area);
                prop_assert_eq!(
                    &s.outcome.stats.degradations,
                    &p.outcome.stats.degradations
                );
                prop_assert_eq!(s.outcome.assignment, p.outcome.assignment);
            }
            // The ladder may bottom out on tiny budgets — but then it
            // must bottom out identically on both paths.
            (Err(se), Err(pe)) => prop_assert_eq!(se.to_string(), pe.to_string()),
            (s, p) => prop_assert!(false, "paths diverged: {s:?} vs {p:?}"),
        }
    }
}
