//! Integer geometry primitives for floorplan area optimization.
//!
//! This crate provides the geometric vocabulary of the Wang–Wong floorplan
//! area optimization papers (DAC'90, DAC'92):
//!
//! * [`Rect`] — an implementation of a *rectangular block*, a `(w, h)` pair.
//! * [`LShape`] — an implementation of an *L-shaped block*, a canonical
//!   `(w1, w2, h1, h2)` 4-tuple with `w1 >= w2` and `h1 >= h2`.
//! * [`Staircase`] — a bounded monotone *staircase block*: the rectilinear
//!   generalization of rectangles (one tooth) and L-shapes (two teeth), with
//!   at most [`MAX_STAIRCASE_STEPS`] notch steps.
//! * Placed geometry ([`Point`], [`PlacedRect`]) used to realize and verify
//!   final layouts.
//! * Layout post-processing ([`polygonize`], [`whitespace`]) — scanline
//!   union of a realized placement into dead-space regions
//!   ([`WhitespaceReport`]) and merged block outline rings.
//!
//! All coordinates are non-negative integers ([`Coord`] = `u64`), i.e. a
//! fixed-point grid (e.g. nanometres or lambda units). Areas use [`Area`] =
//! `u128` so that no realistic floorplan can overflow.
//!
//! # Example
//!
//! ```
//! use fp_geom::{LShape, Rect};
//!
//! let a = Rect::new(4, 7);
//! let b = Rect::new(3, 9);
//! assert!(!a.dominates(b)); // neither dominates: Pareto-incomparable
//!
//! let l = LShape::new(10, 4, 8, 3)?;
//! assert_eq!(l.area(), 10 * 3 + 4 * (8 - 3));
//! # Ok::<(), fp_geom::InvalidShapeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lshape;
mod placed;
mod polygonize;
mod rect;
mod staircase;

pub use lshape::{InvalidShapeError, LShape};
pub use placed::{dead_space, first_overlap, total_area, BoundingBox, PlacedRect, Point};
pub use polygonize::{polygonize, whitespace, DeadRegion, Polygonized, WhitespaceReport};
pub use rect::Rect;
pub use staircase::{InvalidStaircaseError, Staircase, MAX_STAIRCASE_STEPS};

/// Grid coordinate / length type. All module and block dimensions are
/// non-negative integers on a fixed-point grid.
pub type Coord = u64;

/// Area type; wide enough that `Coord * Coord` sums never overflow.
pub type Area = u128;

/// The largest coordinate the library guarantees overflow-free arithmetic
/// for: composition sums coordinates along the floorplan hierarchy, so a
/// floorplan of up to 2²⁰ modules with every dimension at most
/// `MAX_COORD = 2⁴⁰` keeps every computed width/height below 2⁶⁰ — well
/// inside [`Coord`]. Input layers ([`crate::Rect`]-producing constructors
/// in downstream crates) validate against this bound.
pub const MAX_COORD: Coord = 1 << 40;

/// Multiplies two coordinates into an [`Area`] without overflow.
///
/// ```
/// assert_eq!(fp_geom::area(3, 4), 12);
/// ```
#[inline]
#[must_use]
pub fn area(w: Coord, h: Coord) -> Area {
    Area::from(w) * Area::from(h)
}
