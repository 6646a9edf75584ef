//! Netlist modeling for wirelength-aware floorplan optimization.
//!
//! The area engine enumerates *shapes*; making the result a floorplan
//! people could route needs *connectivity*. This crate supplies it:
//!
//! * a netlist model ([`Netlist`]): module pins with per-implementation
//!   relative offsets, multi-terminal nets, and I/O pads fixed on the
//!   die boundary;
//! * the `.fpn` text format ([`parse_netlist`] / [`write_netlist`])
//!   with line+column parse errors, mirroring the `.fpt` instance
//!   format;
//! * an incremental HPWL evaluator ([`HpwlEvaluator`]): per-net
//!   bounding boxes cached so an annealer move re-evaluates only the
//!   nets it touched;
//! * Pareto utilities ([`pareto_front`], [`hypervolume`]) over (area,
//!   HPWL, outline fit) objective vectors;
//! * deterministic netlist generation ([`random_netlist`]) for the
//!   paper benchmarks, which ship without connectivity.
//!
//! ```
//! use fp_netlist::{parse_netlist, HpwlEvaluator};
//! use fp_tree::{generators, layout};
//!
//! let bench = generators::fp1();
//! let library = generators::module_library(&bench.tree, 3, 1);
//! let netlist = fp_netlist::random_netlist(&library, 20, 1);
//! let bound = netlist.bind(&library)?;
//! let assignment = layout::Assignment::first_fit(bench.tree.leaves_in_order().len());
//! let placed = layout::realize(&bench.tree, &library, &assignment).expect("realizes");
//! let mut eval = HpwlEvaluator::new(&bound);
//! let hpwl = eval.evaluate_full(&bench.tree, &placed, &assignment).expect("evaluates");
//! assert!(hpwl > 0);
//! # Ok::<(), fp_netlist::BindError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod format;
mod generate;
mod hpwl;
mod model;
mod pareto;

pub use format::{parse_netlist, write_netlist, ParseNetlistError};
pub use generate::random_netlist;
pub use hpwl::{EvalError, HpwlEvaluator};
pub use model::{
    netlist_fingerprint, BindError, BoundEndpoint, BoundNet, BoundNetlist, Endpoint, Net, Netlist,
    Pad, Pin, PinOffset,
};
pub use pareto::{hypervolume, pareto_front, pareto_insert, ParetoPoint};

#[cfg(test)]
mod proptests {
    use super::*;
    use fp_tree::{generators, layout};
    use proptest::prelude::*;

    proptest! {
        /// Incremental HPWL agrees exactly with a fresh full evaluation
        /// after arbitrary move sequences (implementation-choice flips
        /// across random leaves).
        #[test]
        fn incremental_matches_full(seed in 0u64..1_000, moves in proptest::collection::vec((0usize..18, 0usize..3), 1..12)) {
            let bench = generators::fp2();
            let library = generators::module_library(&bench.tree, 3, seed);
            let netlist = random_netlist(&library, 25, seed.wrapping_add(1));
            let bound = netlist.bind(&library).expect("binds");
            let leaves = bench.tree.leaves_in_order().len();

            let mut assignment = layout::Assignment::first_fit(leaves);
            let placed = layout::realize(&bench.tree, &library, &assignment).expect("realizes");
            let mut incremental = HpwlEvaluator::new(&bound);
            incremental.update(&bench.tree, &placed, &assignment).expect("first eval");

            for (slot, choice) in moves {
                let slot = slot % leaves;
                let module_impls = {
                    use fp_tree::NodeKind;
                    let leaf = bench.tree.leaves_in_order()[slot];
                    match bench.tree.node(leaf).map(|n| n.kind) {
                        Some(NodeKind::Leaf(m)) => library[m].implementations().len(),
                        _ => 1,
                    }
                };
                assignment.choices[slot] = choice % module_impls;
                let placed = layout::realize(&bench.tree, &library, &assignment).expect("realizes");
                let fast = incremental.update(&bench.tree, &placed, &assignment).expect("incremental");
                let mut fresh = HpwlEvaluator::new(&bound);
                let full = fresh.evaluate_full(&bench.tree, &placed, &assignment).expect("full");
                prop_assert_eq!(fast, full);
            }
        }

        /// The `.fpn` writer round-trips every generated netlist.
        #[test]
        fn fpn_round_trip(nets in 1usize..40, seed in 0u64..1_000) {
            let bench = generators::fp1();
            let library = generators::module_library(&bench.tree, 4, seed);
            let netlist = random_netlist(&library, nets, seed);
            let reparsed = parse_netlist(&write_netlist(&netlist)).expect("round-trips");
            prop_assert_eq!(netlist, reparsed);
        }

        /// The parser is total: arbitrary input never panics.
        #[test]
        fn parser_total_on_random_input(text in ".{0,200}") {
            let _ = parse_netlist(&text);
        }
    }
}
