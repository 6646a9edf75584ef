//! Optimal implementation selection for floorplan area optimization.
//!
//! This crate is the primary contribution of Wang–Wong, *A Graph Theoretic
//! Technique to Speed up Floorplan Area Optimization* (DAC'92): when a
//! bottom-up floorplan area optimizer accumulates more non-redundant
//! implementations for a sub-floorplan than memory allows, optimally select
//! the subset of a given size `k` that best approximates the full set.
//!
//! * [`r_selection`] — for rectangular blocks (irreducible R-lists). The
//!   cost of a subset is the area bounded between the full and the reduced
//!   staircase curves (Figures 5–6); the optimal subset is found in
//!   `O(k n²)` by reduction to a constrained shortest path (Theorem 2).
//! * [`l_selection`] — for L-shaped blocks (irreducible L-lists). The cost
//!   is the summed distance from each discarded implementation to its
//!   nearest kept neighbour under any `L_p` [`Metric`] (Lemmas 2–3); the
//!   optimal subset is found in `O(n³)` (Theorem 3).
//! * [`reduce_llist_set`] — applies `L_Selection` across a whole
//!   [`fp_shape::LListSet`] with the paper's per-list budget
//!   `⌊K·|L|/N⌋` and §5 engineering policies (θ trigger, heuristic
//!   prefilter to `S`).
//! * [`greedy`] — greedy baselines used by the ablation benchmarks.
//!
//! # Example
//!
//! ```
//! use fp_geom::Rect;
//! use fp_shape::RList;
//! use fp_select::r_selection;
//!
//! let list = RList::from_candidates(
//!     (1..=10).map(|i| Rect::new(2 * (11 - i), 3 * i)).collect());
//! let sel = r_selection(&list, 4)?;
//! assert_eq!(sel.positions.len(), 4);
//! assert_eq!(sel.positions.first(), Some(&0));      // endpoints always kept
//! assert_eq!(sel.positions.last(), Some(&9));
//! let reduced = list.subset(&sel.positions);
//! assert_eq!(reduced.len(), 4);
//! # Ok::<(), fp_select::SelectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod greedy;
mod heuristic;
mod l_error;
mod l_select;
mod metric;
mod policy;
mod r_error;
mod r_select;

pub use heuristic::heuristic_l_reduction;
pub use l_error::l_selection_error;
pub use l_error::LErrorTable;
pub use l_select::{
    l_selection, l_selection_apply, l_selection_float, l_selection_float_scratch,
    l_selection_scratch, LSelection,
};
pub use metric::Metric;
pub use policy::{
    reduce_llist_set, reduce_llist_set_scratch, reduce_rlist, reduce_rlist_scratch,
    LReductionPolicy, RReductionPolicy,
};
pub use r_error::{RErrorPrefix, RErrorTable};
pub use r_select::{r_selection, r_selection_apply, r_selection_scratch, RSelection};

use core::fmt;

/// Errors reported by the selection algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// `k` must satisfy `2 <= k` when the list has two or more entries
    /// (both staircase endpoints must be kept), and `1 <= k` otherwise.
    KTooSmall {
        /// The requested subset size.
        k: usize,
        /// The list length.
        n: usize,
    },
    /// The list is empty; there is nothing to select.
    EmptyList,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::KTooSmall { k, n } => {
                write!(
                    f,
                    "cannot keep k = {k} of {n} implementations: endpoints must be kept"
                )
            }
            SelectError::EmptyList => write!(f, "cannot select from an empty list"),
        }
    }
}

impl std::error::Error for SelectError {}
