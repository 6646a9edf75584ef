//! Bounded-staircase rectilinear implementations: monotone step lists.

use core::fmt;

use crate::{area, Area, Coord, LShape, Rect};

/// The maximum number of *steps* (inner notch corners) a [`Staircase`]
/// may carry after canonicalization.
///
/// A rectangle has 0 steps, an L-shape 1; the cap bounds both the memory
/// per implementation and the profile length the selection machinery
/// measures distances over, keeping every kernel `O(1)` per shape.
pub const MAX_STAIRCASE_STEPS: usize = 8;

/// Error returned when a corner list cannot form a valid [`Staircase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidStaircaseError {
    message: String,
}

impl InvalidStaircaseError {
    fn new(message: impl Into<String>) -> Self {
        InvalidStaircaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for InvalidStaircaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid staircase: {}", self.message)
    }
}

impl std::error::Error for InvalidStaircaseError {}

/// An implementation of a bounded-staircase rectilinear block.
///
/// The canonical staircase occupies the union of origin-anchored
/// rectangles
///
/// ```text
/// [0, w_1] x [0, h_1]  ∪  [0, w_2] x [0, h_2]  ∪  …  ∪  [0, w_t] x [0, h_t]
/// ```
///
/// with widths strictly decreasing and heights strictly increasing — a
/// monotone step list descending toward the bottom-right, with every
/// notch in the top-right quadrant. `t = 1` is a rectangle; `t = 2` is
/// exactly the canonical [`LShape`] (`(w_1, h_1) = (w1, h2)`,
/// `(w_2, h_2) = (w2, h1)` in the L's 4-tuple naming). The number of
/// *steps* (inner corners) is `t - 1`, capped at
/// [`MAX_STAIRCASE_STEPS`].
///
/// Like [`LShape`], implementations are stored canonically (notches
/// top-right).
///
/// # Example
///
/// ```
/// use fp_geom::Staircase;
///
/// // A 3-tooth staircase: 10x2 ∪ 7x5 ∪ 3x9.
/// let s = Staircase::from_corners(vec![(10, 2), (7, 5), (3, 9)])?;
/// assert_eq!(s.steps(), 2);
/// assert_eq!(s.area(), 10 * 2 + 7 * 3 + 3 * 4);
/// assert_eq!(s.bounding_box(), fp_geom::Rect::new(10, 9));
/// # Ok::<(), fp_geom::InvalidStaircaseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Staircase {
    /// Outer corners `(w_i, h_i)`, widths strictly decreasing, heights
    /// strictly increasing. Never empty.
    corners: Vec<(Coord, Coord)>,
}

impl Staircase {
    /// Builds the canonical staircase covering the union of the given
    /// origin-anchored `w x h` corner rectangles.
    ///
    /// The input need not be sorted or minimal: dominated corners are
    /// dropped and duplicates merge, so the result is the unique
    /// canonical form of the union. This is the canonicalization the
    /// redesigned shape API guarantees: equal regions compare equal.
    ///
    /// # Errors
    ///
    /// [`InvalidStaircaseError`] when the list is empty, a corner has a
    /// zero dimension, or the canonical form exceeds
    /// [`MAX_STAIRCASE_STEPS`] steps.
    pub fn from_corners(corners: Vec<(Coord, Coord)>) -> Result<Self, InvalidStaircaseError> {
        if corners.is_empty() {
            return Err(InvalidStaircaseError::new("no corners"));
        }
        if let Some(&(w, h)) = corners.iter().find(|&&(w, h)| w == 0 || h == 0) {
            return Err(InvalidStaircaseError::new(format!(
                "zero dimension in corner {w}x{h}"
            )));
        }
        let mut sorted = corners;
        // Width descending, height descending on ties: a later corner can
        // then only survive by being strictly taller than the running
        // maximum, which is exactly Pareto-maximality of the union.
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut canonical: Vec<(Coord, Coord)> = Vec::with_capacity(sorted.len());
        let mut max_h = 0;
        for (w, h) in sorted {
            if h > max_h {
                // A new tallest corner at an equal width supersedes the
                // previous one (equal widths sort taller-first, so this
                // cannot happen; strictly narrower is guaranteed).
                canonical.push((w, h));
                max_h = h;
            }
        }
        if canonical.len() > MAX_STAIRCASE_STEPS + 1 {
            return Err(InvalidStaircaseError::new(format!(
                "{} steps exceed the cap of {MAX_STAIRCASE_STEPS}",
                canonical.len() - 1
            )));
        }
        Ok(Staircase { corners: canonical })
    }

    /// [`Staircase::from_corners`] for construction paths where validity
    /// holds by construction.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Staircase::from_corners`] rejects.
    #[must_use]
    pub fn new_canonical(corners: Vec<(Coord, Coord)>) -> Self {
        Staircase::from_corners(corners).expect("canonical staircase")
    }

    /// The 1-tooth staircase equal to rectangle `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` has a zero dimension (staircases describe placed
    /// module implementations, which are always non-empty).
    #[must_use]
    pub fn from_rect(r: Rect) -> Self {
        assert!(r.w > 0 && r.h > 0, "staircase from empty rectangle {r}");
        Staircase {
            corners: vec![(r.w, r.h)],
        }
    }

    /// The staircase equal to the canonical region of `l`: two teeth for
    /// a true L, one for a degenerate rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `l` has a zero bounding dimension.
    #[must_use]
    pub fn from_lshape(l: LShape) -> Self {
        if let Some(r) = l.as_rect() {
            return Staircase::from_rect(r);
        }
        Staircase {
            corners: vec![(l.w1, l.h2), (l.w2, l.h1)],
        }
    }

    /// The outer corners `(w_i, h_i)`, widths strictly decreasing.
    #[inline]
    #[must_use]
    pub fn corners(&self) -> &[(Coord, Coord)] {
        &self.corners
    }

    /// The number of teeth (corner rectangles) in the canonical form.
    #[inline]
    #[must_use]
    pub fn teeth(&self) -> usize {
        self.corners.len()
    }

    /// The number of steps (inner notch corners): `teeth() - 1`. A
    /// rectangle has 0, an L-shape 1.
    #[inline]
    #[must_use]
    pub fn steps(&self) -> usize {
        self.corners.len() - 1
    }

    /// The enclosed area: `Σ w_i · (h_i − h_{i−1})`.
    #[must_use]
    pub fn area(&self) -> Area {
        let mut prev_h = 0;
        let mut total = 0;
        for &(w, h) in &self.corners {
            total += area(w, h - prev_h);
            prev_h = h;
        }
        total
    }

    /// The smallest rectangle containing the staircase:
    /// `w_1 x h_t` (widest tooth by tallest tooth).
    #[inline]
    #[must_use]
    pub fn bounding_box(&self) -> Rect {
        Rect::new(self.corners[0].0, self.corners[self.corners.len() - 1].1)
    }

    /// `true` if the canonical form is a plain rectangle (one tooth).
    #[inline]
    #[must_use]
    pub fn is_rect(&self) -> bool {
        self.corners.len() == 1
    }

    /// If the staircase has one tooth, the equivalent rectangle.
    #[inline]
    #[must_use]
    pub fn as_rect(&self) -> Option<Rect> {
        self.is_rect().then(|| self.bounding_box())
    }

    /// If the staircase has at most two teeth, the equivalent canonical
    /// [`LShape`] (degenerate for one tooth).
    #[must_use]
    pub fn as_lshape(&self) -> Option<LShape> {
        match self.corners.as_slice() {
            [(w, h)] => Some(LShape::from_rect(Rect::new(*w, *h))),
            [(w1, h2), (w2, h1)] => Some(LShape::new_canonical(*w1, *w2, *h1, *h2)),
            _ => None,
        }
    }

    /// The covered width at height `y` (the length of the horizontal
    /// cross-section `[0, width] x {y}`, measuring the half-open row
    /// `[y, y+1)`): the widest tooth reaching above `y`, or 0 past the top.
    #[must_use]
    pub fn width_at(&self, y: Coord) -> Coord {
        self.corners
            .iter()
            .find(|&&(_, h)| h > y)
            .map_or(0, |&(w, _)| w)
    }

    /// The covered height at horizontal position `x` (measuring the
    /// half-open column `[x, x+1)`): the tallest tooth reaching right of
    /// `x`, or 0 past the right edge.
    #[must_use]
    pub fn height_at(&self, x: Coord) -> Coord {
        self.corners
            .iter()
            .rev()
            .find(|&&(w, _)| w > x)
            .map_or(0, |&(_, h)| h)
    }

    /// Returns `true` if `self` dominates `other`: its canonical region
    /// contains the other's (the staircase generalization of paper
    /// Definition 1 — for rectangles and L-shapes this coincides with
    /// componentwise tuple dominance).
    #[must_use]
    pub fn dominates(&self, other: &Staircase) -> bool {
        other
            .corners
            .iter()
            .all(|&(w, h)| self.width_at(h - 1) >= w)
    }

    /// Returns `true` if `self` dominates `other` and differs from it.
    #[inline]
    #[must_use]
    pub fn strictly_dominates(&self, other: &Staircase) -> bool {
        self != other && self.dominates(other)
    }

    /// The transposed staircase (reflection across the main diagonal):
    /// widths and heights swap roles; the result is canonical.
    #[must_use]
    pub fn transposed(&self) -> Staircase {
        Staircase {
            corners: self.corners.iter().rev().map(|&(w, h)| (h, w)).collect(),
        }
    }

    /// Returns `true` if the canonical region contains the point
    /// `(x, y)` (boundary inclusive).
    #[must_use]
    pub fn contains_point(&self, x: Coord, y: Coord) -> bool {
        self.corners.iter().any(|&(w, h)| x <= w && y <= h)
    }

    /// The boundary polygon of the canonical region, counterclockwise
    /// from the origin: `2t + 2` corners for `t` teeth.
    ///
    /// ```
    /// use fp_geom::Staircase;
    ///
    /// let s = Staircase::from_corners(vec![(10, 3), (4, 8)])?;
    /// assert_eq!(
    ///     s.outline(),
    ///     vec![(0, 0), (10, 0), (10, 3), (4, 3), (4, 8), (0, 8)]
    /// );
    /// # Ok::<(), fp_geom::InvalidStaircaseError>(())
    /// ```
    #[must_use]
    pub fn outline(&self) -> Vec<(Coord, Coord)> {
        let mut out = Vec::with_capacity(2 * self.corners.len() + 2);
        out.push((0, 0));
        out.push((self.corners[0].0, 0));
        for i in 0..self.corners.len() {
            let (w, h) = self.corners[i];
            out.push((w, h));
            match self.corners.get(i + 1) {
                Some(&(next_w, _)) => out.push((next_w, h)),
                None => out.push((0, h)),
            }
        }
        out
    }

    /// The boundary perimeter of the canonical region. As for any
    /// monotone staircase region it equals the bounding-box perimeter:
    /// the notches add no length.
    #[must_use]
    pub fn perimeter(&self) -> Area {
        let bb = self.bounding_box();
        2 * (Area::from(bb.w) + Area::from(bb.h))
    }

    /// The exact `L₁` distance between the profile vectors of two
    /// staircases with the same tooth count: `Σ|Δw_i| + Σ|Δh_i|`.
    ///
    /// This is the distance the DAC'92 `L_Selection` machinery measures
    /// between L-shape 4-tuples, generalized to `2t`-dimensional
    /// staircase profiles; for `t = 2` it is exactly
    /// `Metric::L1.dist` of the corresponding L-shapes.
    ///
    /// # Panics
    ///
    /// Panics if the tooth counts differ — profile distances are only
    /// defined along the aligned chains the selection path builds.
    #[must_use]
    pub fn profile_dist_l1(&self, other: &Staircase) -> Area {
        assert_eq!(
            self.teeth(),
            other.teeth(),
            "profile distance requires aligned staircases"
        );
        self.corners
            .iter()
            .zip(&other.corners)
            .map(|(&(aw, ah), &(bw, bh))| Area::from(aw.abs_diff(bw)) + Area::from(ah.abs_diff(bh)))
            .sum()
    }
}

impl fmt::Debug for Staircase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Staircase{:?}", self.corners)
    }
}

impl fmt::Display for Staircase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .corners
            .iter()
            .map(|&(w, h)| format!("{w}x{h}"))
            .collect();
        f.write_str(&parts.join("/"))
    }
}

impl From<Rect> for Staircase {
    #[inline]
    fn from(r: Rect) -> Self {
        Staircase::from_rect(r)
    }
}

impl From<LShape> for Staircase {
    #[inline]
    fn from(l: LShape) -> Self {
        Staircase::from_lshape(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stair(corners: &[(Coord, Coord)]) -> Staircase {
        Staircase::from_corners(corners.to_vec()).expect("valid staircase")
    }

    #[test]
    fn canonicalization_drops_dominated_corners() {
        let s =
            Staircase::from_corners(vec![(4, 4), (10, 2), (10, 2), (7, 5), (3, 3)]).expect("valid");
        assert_eq!(s.corners(), &[(10, 2), (7, 5)]);
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn equal_regions_compare_equal() {
        let a = stair(&[(10, 2), (7, 5)]);
        let b = Staircase::from_corners(vec![(7, 5), (10, 2), (7, 3)]).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Staircase::from_corners(vec![]).is_err());
        assert!(Staircase::from_corners(vec![(0, 5)]).is_err());
        assert!(Staircase::from_corners(vec![(5, 0)]).is_err());
        // MAX_STAIRCASE_STEPS + 2 incomparable corners exceed the cap.
        let too_many: Vec<(Coord, Coord)> = (0..MAX_STAIRCASE_STEPS as Coord + 2)
            .map(|i| (100 - i, 1 + i))
            .collect();
        let err = Staircase::from_corners(too_many).expect_err("over cap");
        assert!(err.to_string().contains("exceed the cap"));
        // Exactly at the cap is fine.
        let at_cap: Vec<(Coord, Coord)> = (0..MAX_STAIRCASE_STEPS as Coord + 1)
            .map(|i| (100 - i, 1 + i))
            .collect();
        assert_eq!(stair(&at_cap).steps(), MAX_STAIRCASE_STEPS);
    }

    #[test]
    fn rect_and_lshape_round_trips() {
        let r = Rect::new(9, 4);
        let s = Staircase::from_rect(r);
        assert_eq!(s.steps(), 0);
        assert_eq!(s.as_rect(), Some(r));
        assert_eq!(s.as_lshape(), Some(LShape::from_rect(r)));
        assert_eq!(s.area(), r.area());

        let l = LShape::new_canonical(10, 4, 8, 3);
        let s = Staircase::from_lshape(l);
        assert_eq!(s.steps(), 1);
        assert_eq!(s.as_lshape(), Some(l));
        assert_eq!(s.as_rect(), None);
        assert_eq!(s.area(), l.area());
        assert_eq!(s.bounding_box(), l.bounding_box());
        assert_eq!(s.outline(), l.outline());
        assert_eq!(s.perimeter(), l.perimeter());

        let degenerate = LShape::new_canonical(6, 6, 5, 2);
        assert_eq!(Staircase::from_lshape(degenerate).steps(), 0);
    }

    #[test]
    fn area_by_shoelace_cross_check() {
        let s = stair(&[(10, 2), (7, 5), (3, 9)]);
        let outline = s.outline();
        let mut twice_area = 0i128;
        for i in 0..outline.len() {
            let (x1, y1) = outline[i];
            let (x2, y2) = outline[(i + 1) % outline.len()];
            twice_area += i128::from(x1) * i128::from(y2) - i128::from(x2) * i128::from(y1);
        }
        assert_eq!(s.area() as i128 * 2, twice_area);
    }

    #[test]
    fn cross_sections() {
        let s = stair(&[(10, 2), (7, 5), (3, 9)]);
        assert_eq!(s.width_at(0), 10);
        assert_eq!(s.width_at(1), 10);
        assert_eq!(s.width_at(2), 7);
        assert_eq!(s.width_at(4), 7);
        assert_eq!(s.width_at(5), 3);
        assert_eq!(s.width_at(8), 3);
        assert_eq!(s.width_at(9), 0);
        assert_eq!(s.height_at(0), 9);
        assert_eq!(s.height_at(2), 9);
        assert_eq!(s.height_at(3), 5);
        assert_eq!(s.height_at(7), 2);
        assert_eq!(s.height_at(9), 2);
        assert_eq!(s.height_at(10), 0);
    }

    #[test]
    fn dominance_matches_lshape_dominance_on_two_teeth() {
        let pairs = [
            ((9, 3, 2, 1), (8, 3, 3, 2)),
            ((9, 3, 4, 2), (8, 3, 3, 2)),
            ((10, 5, 10, 5), (9, 4, 9, 4)),
            ((7, 2, 8, 1), (7, 2, 8, 1)),
        ];
        for ((a1, a2, a3, a4), (b1, b2, b3, b4)) in pairs {
            let la = LShape::new_canonical(a1, a2, a3, a4);
            let lb = LShape::new_canonical(b1, b2, b3, b4);
            let sa = Staircase::from_lshape(la);
            let sb = Staircase::from_lshape(lb);
            assert_eq!(sa.dominates(&sb), la.dominates(lb), "{la:?} vs {lb:?}");
            assert_eq!(sb.dominates(&sa), lb.dominates(la), "{lb:?} vs {la:?}");
        }
    }

    #[test]
    fn transpose_is_involutive_and_swaps_axes() {
        let s = stair(&[(10, 2), (7, 5), (3, 9)]);
        let t = s.transposed();
        assert_eq!(t.corners(), &[(9, 3), (5, 7), (2, 10)]);
        assert_eq!(t.transposed(), s);
        assert_eq!(t.area(), s.area());
        assert_eq!(t.bounding_box(), s.bounding_box().rotated());
    }

    #[test]
    fn profile_distance_matches_lshape_l1_on_two_teeth() {
        let la = LShape::new_canonical(9, 3, 2, 1);
        let lb = LShape::new_canonical(8, 3, 3, 2);
        let expected = Area::from(
            la.w1.abs_diff(lb.w1)
                + la.w2.abs_diff(lb.w2)
                + la.h1.abs_diff(lb.h1)
                + la.h2.abs_diff(lb.h2),
        );
        assert_eq!(
            Staircase::from_lshape(la).profile_dist_l1(&Staircase::from_lshape(lb)),
            expected
        );
    }

    #[test]
    fn display_round_readable() {
        assert_eq!(stair(&[(10, 2), (7, 5)]).to_string(), "10x2/7x5");
        assert_eq!(stair(&[(4, 4)]).to_string(), "4x4");
    }

    fn arb_staircase() -> impl Strategy<Value = Staircase> {
        // Canonicalization never increases the corner count, so up to
        // MAX_STAIRCASE_STEPS + 1 raw corners always validate.
        proptest::collection::vec((1u64..30, 1u64..30), 1..=MAX_STAIRCASE_STEPS + 1)
            .prop_map(|corners| Staircase::from_corners(corners).expect("within cap"))
    }

    proptest! {
        /// Canonicalization is idempotent and order-independent.
        #[test]
        fn canonical_form_is_stable(s in arb_staircase()) {
            let again = Staircase::from_corners(s.corners().to_vec()).expect("valid");
            prop_assert_eq!(&again, &s);
            let mut reversed = s.corners().to_vec();
            reversed.reverse();
            prop_assert_eq!(Staircase::from_corners(reversed).expect("valid"), s);
        }

        /// Area equals the column sum of height_at (unit-width columns).
        #[test]
        fn area_matches_column_sum(s in arb_staircase()) {
            let bb = s.bounding_box();
            let columns: Area = (0..bb.w).map(|x| Area::from(s.height_at(x))).sum();
            prop_assert_eq!(s.area(), columns);
        }

        /// Dominance is geometric containment of cross-sections.
        #[test]
        fn dominance_is_containment(a in arb_staircase(), b in arb_staircase()) {
            let contains = (0..b.bounding_box().h)
                .all(|y| a.width_at(y) >= b.width_at(y));
            prop_assert_eq!(a.dominates(&b), contains);
        }

        /// Transpose preserves area and inverts dominance symmetrically.
        #[test]
        fn transpose_round_trip(s in arb_staircase()) {
            prop_assert_eq!(s.transposed().transposed(), s.clone());
            prop_assert_eq!(s.transposed().area(), s.area());
        }
    }
}
