//! Rectangle implementations: `(w, h)` pairs with dominance.

use core::cmp::Ordering;
use core::fmt;

use crate::{area, Area, Coord};

/// An implementation of a rectangular block: a width/height pair.
///
/// In floorplan area optimization every module and every rectangular
/// sub-floorplan is characterized by a finite set of such implementations;
/// the optimizer only ever keeps the *non-redundant* (Pareto-minimal) ones.
///
/// # Example
///
/// ```
/// use fp_geom::Rect;
///
/// let r = Rect::new(30, 20);
/// assert_eq!(r.area(), 600);
/// assert_eq!(r.rotated(), Rect::new(20, 30));
/// assert!(Rect::new(31, 20).dominates(r)); // bigger in every dimension
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Width.
    pub w: Coord,
    /// Height.
    pub h: Coord,
}

impl Rect {
    /// Creates a rectangle implementation of the given width and height.
    #[inline]
    #[must_use]
    pub const fn new(w: Coord, h: Coord) -> Self {
        Rect { w, h }
    }

    /// The area `w * h`.
    #[inline]
    #[must_use]
    pub fn area(self) -> Area {
        area(self.w, self.h)
    }

    /// The half-perimeter `w + h` (a common secondary cost measure).
    #[inline]
    #[must_use]
    pub fn half_perimeter(self) -> Area {
        Area::from(self.w) + Area::from(self.h)
    }

    /// The 90°-rotated implementation `(h, w)`.
    #[inline]
    #[must_use]
    pub const fn rotated(self) -> Self {
        Rect {
            w: self.h,
            h: self.w,
        }
    }

    /// Returns `true` if `self` dominates `other`, i.e. `self` is at least
    /// as large in **both** dimensions (paper Definition 1 for rectangles).
    ///
    /// A dominating implementation is *redundant*: anything that fits in
    /// `other` also fits in `self`, so keeping `self` can never help.
    #[inline]
    #[must_use]
    pub fn dominates(self, other: Rect) -> bool {
        self.w >= other.w && self.h >= other.h
    }

    /// Returns `true` if `self` strictly dominates `other` (dominates and
    /// differs).
    #[inline]
    #[must_use]
    pub fn strictly_dominates(self, other: Rect) -> bool {
        self != other && self.dominates(other)
    }

    /// Returns `true` if a module of this size fits in (is dominated by) a
    /// basic rectangle of size `container`.
    #[inline]
    #[must_use]
    pub fn fits_in(self, container: Rect) -> bool {
        container.dominates(self)
    }

    /// Componentwise maximum (the smallest rectangle containing both).
    #[inline]
    #[must_use]
    pub fn union_max(self, other: Rect) -> Rect {
        Rect::new(self.w.max(other.w), self.h.max(other.h))
    }

    /// The aspect ratio `max(w,h) / min(w,h)` as a float; `1.0` for squares.
    ///
    /// Returns `f64::INFINITY` if one side is zero and the other is not,
    /// and `1.0` for the degenerate `0×0` rectangle.
    #[must_use]
    pub fn aspect_ratio(self) -> f64 {
        let (lo, hi) = if self.w <= self.h {
            (self.w, self.h)
        } else {
            (self.h, self.w)
        };
        if hi == 0 {
            1.0
        } else if lo == 0 {
            f64::INFINITY
        } else {
            hi as f64 / lo as f64
        }
    }

    /// Orders by `(w, h)` lexicographically. This is **not** dominance; it
    /// is the canonical sort used to build staircases.
    #[inline]
    #[must_use]
    pub fn cmp_lex(self, other: Rect) -> Ordering {
        (self.w, self.h).cmp(&(other.w, other.h))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect({}x{})", self.w, self.h)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

impl From<(Coord, Coord)> for Rect {
    #[inline]
    fn from((w, h): (Coord, Coord)) -> Self {
        Rect::new(w, h)
    }
}

impl From<Rect> for (Coord, Coord) {
    #[inline]
    fn from(r: Rect) -> Self {
        (r.w, r.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn area_and_half_perimeter() {
        let r = Rect::new(30, 20);
        assert_eq!(r.area(), 600);
        assert_eq!(r.half_perimeter(), 50);
        assert_eq!(Rect::new(0, 7).area(), 0);
    }

    #[test]
    fn area_no_overflow_at_max() {
        let r = Rect::new(Coord::MAX, Coord::MAX);
        assert_eq!(r.area(), Area::from(Coord::MAX) * Area::from(Coord::MAX));
    }

    #[test]
    fn dominance_is_reflexive_and_componentwise() {
        let r = Rect::new(4, 7);
        assert!(r.dominates(r));
        assert!(!r.strictly_dominates(r));
        assert!(Rect::new(4, 8).dominates(r));
        assert!(Rect::new(5, 7).dominates(r));
        assert!(!Rect::new(3, 100).dominates(r));
        assert!(!r.dominates(Rect::new(3, 100)));
    }

    #[test]
    fn fits_in_is_dominance_reversed() {
        assert!(Rect::new(3, 3).fits_in(Rect::new(3, 4)));
        assert!(!Rect::new(3, 5).fits_in(Rect::new(3, 4)));
    }

    #[test]
    fn rotation_is_involutive() {
        let r = Rect::new(13, 5);
        assert_eq!(r.rotated().rotated(), r);
    }

    #[test]
    fn union_max_contains_both() {
        let a = Rect::new(4, 9);
        let b = Rect::new(6, 2);
        let u = a.union_max(b);
        assert!(u.dominates(a) && u.dominates(b));
        assert_eq!(u, Rect::new(6, 9));
    }

    #[test]
    fn aspect_ratio_cases() {
        assert_eq!(Rect::new(4, 4).aspect_ratio(), 1.0);
        assert_eq!(Rect::new(8, 2).aspect_ratio(), 4.0);
        assert_eq!(Rect::new(2, 8).aspect_ratio(), 4.0);
        assert_eq!(Rect::new(0, 0).aspect_ratio(), 1.0);
        assert!(Rect::new(0, 5).aspect_ratio().is_infinite());
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Rect::new(3, 4).to_string(), "3x4");
        assert_eq!(format!("{:?}", Rect::new(3, 4)), "Rect(3x4)");
    }

    proptest! {
        #[test]
        fn dominance_antisymmetric_up_to_equality(a in 0u64..1000, b in 0u64..1000,
                                                  c in 0u64..1000, d in 0u64..1000) {
            let r = Rect::new(a, b);
            let s = Rect::new(c, d);
            if r.dominates(s) && s.dominates(r) {
                prop_assert_eq!(r, s);
            }
        }

        #[test]
        fn dominance_transitive(dims in proptest::collection::vec(0u64..100, 6)) {
            let r = Rect::new(dims[0], dims[1]);
            let s = Rect::new(dims[2], dims[3]);
            let t = Rect::new(dims[4], dims[5]);
            if r.dominates(s) && s.dominates(t) {
                prop_assert!(r.dominates(t));
            }
        }

        #[test]
        fn rotation_preserves_area(w in 0u64..10_000, h in 0u64..10_000) {
            let r = Rect::new(w, h);
            prop_assert_eq!(r.area(), r.rotated().area());
        }
    }
}
