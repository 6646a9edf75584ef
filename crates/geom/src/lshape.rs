//! L-shape implementations: canonical `(w1, w2, h1, h2)` 4-tuples.

use core::fmt;

use crate::{area, Area, Coord, Rect};

/// Error returned when an L-shape 4-tuple violates the canonical invariant
/// `w1 >= w2 && h1 >= h2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidShapeError {
    tuple: (Coord, Coord, Coord, Coord),
}

impl fmt::Display for InvalidShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w1, w2, h1, h2) = self.tuple;
        write!(
            f,
            "invalid L-shape ({w1}, {w2}, {h1}, {h2}): requires w1 >= w2 and h1 >= h2"
        )
    }
}

impl std::error::Error for InvalidShapeError {}

/// An implementation of an L-shaped block (paper §2, Figure 2).
///
/// The canonical L occupies the union of two origin-anchored rectangles
///
/// ```text
/// [0, w1] x [0, h2]   (the wide bottom part)
/// [0, w2] x [0, h1]   (the tall left part)
/// ```
///
/// with `w1 >= w2` and `h1 >= h2`, so the *notch* (the missing corner) is at
/// the top-right. `w1`/`w2` are the widths of the bottom/top edges and
/// `h1`/`h2` the heights of the left/right edges. Implementations are
/// always stored canonically.
///
/// A tuple with `w1 == w2` or `h1 == h2` degenerates to a rectangle; this is
/// permitted (it arises naturally when joining blocks whose edges align) and
/// reported by [`LShape::is_degenerate`].
///
/// # Example
///
/// ```
/// use fp_geom::LShape;
///
/// let l = LShape::new(10, 4, 8, 3)?;
/// assert_eq!(l.area(), 10 * 3 + 4 * 5);
/// assert_eq!(l.bounding_box(), fp_geom::Rect::new(10, 8));
/// assert!(!l.is_degenerate());
/// # Ok::<(), fp_geom::InvalidShapeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LShape {
    /// Width of the bottom edge (`w1 >= w2`).
    pub w1: Coord,
    /// Width of the top edge.
    pub w2: Coord,
    /// Height of the left edge (`h1 >= h2`).
    pub h1: Coord,
    /// Height of the right edge.
    pub h2: Coord,
}

impl LShape {
    /// Creates a canonical L-shape implementation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidShapeError`] unless `w1 >= w2` and `h1 >= h2`.
    #[inline]
    pub fn new(w1: Coord, w2: Coord, h1: Coord, h2: Coord) -> Result<Self, InvalidShapeError> {
        if w1 >= w2 && h1 >= h2 {
            Ok(LShape { w1, w2, h1, h2 })
        } else {
            Err(InvalidShapeError {
                tuple: (w1, w2, h1, h2),
            })
        }
    }

    /// Creates a canonical L-shape implementation, panicking on invalid input.
    ///
    /// Use this in construction paths where canonicality holds by
    /// construction; prefer [`LShape::new`] at API boundaries.
    ///
    /// # Panics
    ///
    /// Panics unless `w1 >= w2` and `h1 >= h2`.
    #[inline]
    #[must_use]
    pub fn new_canonical(w1: Coord, w2: Coord, h1: Coord, h2: Coord) -> Self {
        assert!(
            w1 >= w2 && h1 >= h2,
            "invalid L-shape ({w1}, {w2}, {h1}, {h2}): requires w1 >= w2 and h1 >= h2",
        );
        LShape { w1, w2, h1, h2 }
    }

    /// The degenerate L-shape equal to rectangle `r` (`w1 == w2`, `h1 == h2`).
    #[inline]
    #[must_use]
    pub const fn from_rect(r: Rect) -> Self {
        LShape {
            w1: r.w,
            w2: r.w,
            h1: r.h,
            h2: r.h,
        }
    }

    /// The enclosed area: `w1 * h2 + w2 * (h1 - h2)`.
    #[inline]
    #[must_use]
    pub fn area(self) -> Area {
        area(self.w1, self.h2) + area(self.w2, self.h1 - self.h2)
    }

    /// The smallest rectangle containing the L: `w1 x h1`.
    #[inline]
    #[must_use]
    pub const fn bounding_box(self) -> Rect {
        Rect::new(self.w1, self.h1)
    }

    /// The size of the missing corner: `(w1 - w2) x (h1 - h2)`.
    ///
    /// A rectangle of exactly this size placed in the notch completes the L
    /// into its bounding box.
    #[inline]
    #[must_use]
    pub const fn notch(self) -> Rect {
        Rect::new(self.w1 - self.w2, self.h1 - self.h2)
    }

    /// `true` if the tuple is actually a rectangle (`w1 == w2 || h1 == h2`).
    #[inline]
    #[must_use]
    pub fn is_degenerate(self) -> bool {
        self.w1 == self.w2 || self.h1 == self.h2
    }

    /// If degenerate, the equivalent rectangle (`w1 x h1`), else `None`.
    #[inline]
    #[must_use]
    pub fn as_rect(self) -> Option<Rect> {
        self.is_degenerate().then(|| self.bounding_box())
    }

    /// Returns `true` if `self` dominates `other`: at least as large in all
    /// four measurements (paper Definition 1).
    ///
    /// Componentwise dominance coincides with geometric containment of the
    /// canonical regions, so a dominating implementation is redundant.
    #[inline]
    #[must_use]
    pub fn dominates(self, other: LShape) -> bool {
        self.w1 >= other.w1 && self.w2 >= other.w2 && self.h1 >= other.h1 && self.h2 >= other.h2
    }

    /// Returns `true` if `self` dominates `other` and differs from it.
    #[inline]
    #[must_use]
    pub fn strictly_dominates(self, other: LShape) -> bool {
        self != other && self.dominates(other)
    }

    /// The transposed implementation (reflection across the main diagonal):
    /// widths and heights swap roles, the tuple stays canonical.
    #[inline]
    #[must_use]
    pub const fn transposed(self) -> Self {
        LShape {
            w1: self.h1,
            w2: self.h2,
            h1: self.w1,
            h2: self.w2,
        }
    }

    /// Returns `true` if the canonical region of `self` contains the point
    /// `(x, y)` (boundary inclusive).
    #[inline]
    #[must_use]
    pub fn contains_point(self, x: Coord, y: Coord) -> bool {
        (x <= self.w1 && y <= self.h2) || (x <= self.w2 && y <= self.h1)
    }

    /// The 4-tuple `(w1, w2, h1, h2)`.
    #[inline]
    #[must_use]
    pub const fn as_tuple(self) -> (Coord, Coord, Coord, Coord) {
        (self.w1, self.w2, self.h1, self.h2)
    }

    /// The boundary polygon of the canonical region, counterclockwise
    /// from the origin: six corners for a true L, four for a degenerate
    /// rectangle.
    ///
    /// ```
    /// use fp_geom::LShape;
    ///
    /// let l = LShape::new(10, 4, 8, 3)?;
    /// assert_eq!(
    ///     l.outline(),
    ///     vec![(0, 0), (10, 0), (10, 3), (4, 3), (4, 8), (0, 8)]
    /// );
    /// # Ok::<(), fp_geom::InvalidShapeError>(())
    /// ```
    #[must_use]
    pub fn outline(self) -> Vec<(Coord, Coord)> {
        if self.is_degenerate() {
            return vec![(0, 0), (self.w1, 0), (self.w1, self.h1), (0, self.h1)];
        }
        vec![
            (0, 0),
            (self.w1, 0),
            (self.w1, self.h2),
            (self.w2, self.h2),
            (self.w2, self.h1),
            (0, self.h1),
        ]
    }

    /// The boundary perimeter of the canonical region.
    ///
    /// For any rectilinear L (or rectangle) this equals the bounding-box
    /// perimeter `2(w1 + h1)` — the notch adds no length.
    #[must_use]
    pub fn perimeter(self) -> Area {
        2 * (Area::from(self.w1) + Area::from(self.h1))
    }
}

impl fmt::Debug for LShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LShape({}, {}, {}, {})",
            self.w1, self.w2, self.h1, self.h2
        )
    }
}

impl fmt::Display for LShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.w1, self.w2, self.h1, self.h2)
    }
}

impl From<Rect> for LShape {
    #[inline]
    fn from(r: Rect) -> Self {
        LShape::from_rect(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_validates_invariant() {
        assert!(LShape::new(10, 4, 8, 3).is_ok());
        assert!(LShape::new(4, 10, 8, 3).is_err());
        assert!(LShape::new(10, 4, 3, 8).is_err());
        let err = LShape::new(1, 2, 3, 4).unwrap_err();
        assert!(err.to_string().contains("invalid L-shape"));
    }

    #[test]
    #[should_panic(expected = "invalid L-shape")]
    fn new_canonical_panics_on_bad_tuple() {
        let _ = LShape::new_canonical(1, 2, 1, 1);
    }

    #[test]
    fn area_matches_decomposition() {
        // Figure-2 style L: bottom 10x3, tall-left column 4 wide up to 8.
        let l = LShape::new_canonical(10, 4, 8, 3);
        assert_eq!(l.area(), 30 + 20);
        // Degenerate cases equal their bounding box area.
        let sq = LShape::from_rect(Rect::new(6, 5));
        assert_eq!(sq.area(), 30);
        assert_eq!(LShape::new_canonical(6, 6, 9, 2).area(), 54);
        assert_eq!(LShape::new_canonical(9, 2, 6, 6).area(), 54);
    }

    #[test]
    fn degenerate_detection_and_as_rect() {
        assert_eq!(
            LShape::new_canonical(6, 6, 9, 2).as_rect(),
            Some(Rect::new(6, 9))
        );
        assert_eq!(
            LShape::new_canonical(9, 2, 6, 6).as_rect(),
            Some(Rect::new(9, 6))
        );
        assert_eq!(LShape::new_canonical(9, 2, 6, 5).as_rect(), None);
    }

    #[test]
    fn notch_completes_bounding_box() {
        let l = LShape::new_canonical(10, 4, 8, 3);
        let n = l.notch();
        assert_eq!(n, Rect::new(6, 5));
        assert_eq!(l.area() + n.area(), l.bounding_box().area());
    }

    #[test]
    fn dominance_definition_1() {
        let i2 = LShape::new_canonical(10, 4, 8, 3);
        assert!(LShape::new_canonical(10, 4, 8, 3).dominates(i2));
        assert!(LShape::new_canonical(11, 4, 8, 3).strictly_dominates(i2));
        assert!(LShape::new_canonical(11, 5, 9, 4).dominates(i2));
        assert!(!LShape::new_canonical(11, 3, 9, 4).dominates(i2)); // w2 smaller
        assert!(!LShape::new_canonical(9, 4, 9, 4).dominates(i2)); // w1 smaller
    }

    #[test]
    fn contains_point_boundary() {
        let l = LShape::new_canonical(10, 4, 8, 3);
        assert!(l.contains_point(10, 3)); // bottom-right corner
        assert!(l.contains_point(4, 8)); // top of the column
        assert!(!l.contains_point(5, 4)); // inside the notch
        assert!(l.contains_point(0, 0));
        assert!(!l.contains_point(11, 0));
    }

    #[test]
    fn transpose_involutive_and_area_preserving() {
        let l = LShape::new_canonical(10, 4, 8, 3);
        assert_eq!(l.transposed().transposed(), l);
        assert_eq!(l.transposed().area(), l.area());
        assert_eq!(l.transposed(), LShape::new_canonical(8, 3, 10, 4));
    }

    /// Shoelace area of a counterclockwise polygon.
    fn shoelace(points: &[(u64, u64)]) -> i128 {
        let n = points.len();
        let mut twice: i128 = 0;
        for i in 0..n {
            let (x1, y1) = points[i];
            let (x2, y2) = points[(i + 1) % n];
            twice += i128::from(x1) * i128::from(y2) - i128::from(x2) * i128::from(y1);
        }
        twice / 2
    }

    #[test]
    fn outline_corners_and_perimeter() {
        let l = LShape::new_canonical(10, 4, 8, 3);
        assert_eq!(l.outline().len(), 6);
        assert_eq!(l.perimeter(), 36);
        let sq = LShape::from_rect(Rect::new(5, 7));
        assert_eq!(sq.outline().len(), 4);
        assert_eq!(sq.perimeter(), 24);
    }

    fn arb_lshape() -> impl Strategy<Value = LShape> {
        (0u64..100, 0u64..100, 0u64..100, 0u64..100)
            .prop_map(|(a, b, c, d)| LShape::new_canonical(a.max(b), a.min(b), c.max(d), c.min(d)))
    }

    proptest! {
        #[test]
        fn area_plus_notch_equals_bbox(l in arb_lshape()) {
            prop_assert_eq!(l.area() + l.notch().area(), l.bounding_box().area());
        }

        #[test]
        fn dominance_implies_containment(a in arb_lshape(), b in arb_lshape(),
                                         x in 0u64..100, y in 0u64..100) {
            if a.dominates(b) && b.contains_point(x, y) {
                prop_assert!(a.contains_point(x, y));
            }
        }

        #[test]
        fn dominance_implies_area_ge(a in arb_lshape(), b in arb_lshape()) {
            if a.dominates(b) {
                prop_assert!(a.area() >= b.area());
            }
        }

        /// Independent geometric cross-check: the shoelace formula over
        /// the outline equals the analytic area.
        #[test]
        fn outline_shoelace_matches_area(l in arb_lshape()) {
            let poly = l.outline();
            prop_assert_eq!(shoelace(&poly) as u128, l.area());
        }

        #[test]
        fn degenerate_iff_rect_area(l in arb_lshape()) {
            prop_assert_eq!(l.is_degenerate(), l.area() == l.bounding_box().area()
                || l.bounding_box().area() == 0);
        }
    }
}
