//! Irreducible shape lists for floorplan area optimization.
//!
//! Bottom-up floorplan area optimizers characterize every sub-floorplan by
//! its set of *non-redundant* implementations (paper Definitions 1–5):
//!
//! * rectangular blocks → an irreducible [`RList`] (a Pareto staircase of
//!   `(w, h)` pairs, width decreasing / height increasing);
//! * L-shaped blocks → an [`LListSet`], a partition of the non-redundant
//!   `(w1, w2, h1, h2)` 4-tuples into irreducible [`LList`] chains sharing a
//!   common `w2` with `w1` decreasing and `h1`, `h2` increasing.
//!
//! Modules with bounded-staircase geometry join these lists through their
//! bounding boxes, so there is no third list kind.
//!
//! The crate also provides the dominance-pruning kernels ([`prune`]) used to
//! build these lists from raw candidate sets, the classic Stockmeyer merge
//! for slicing combinations ([`combine`]), and staircase-area utilities
//! ([`staircase`]) used to validate selection errors geometrically.
//!
//! # Example
//!
//! ```
//! use fp_geom::Rect;
//! use fp_shape::RList;
//!
//! let list = RList::from_candidates(vec![
//!     Rect::new(8, 2),
//!     Rect::new(4, 4),
//!     Rect::new(2, 8),
//!     Rect::new(9, 9), // dominated: redundant
//! ]);
//! assert_eq!(list.len(), 3);
//! assert_eq!(list.min_area().map(|r| r.area()), Some(16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
mod llist;
pub mod prune;
mod rlist;
pub mod scratch;
pub mod staircase;

pub use llist::{chain_indices, ChainScratch, LList, LListSet};
pub use rlist::RList;
pub use scratch::JoinScratch;
