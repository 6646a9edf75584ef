//! Bounded-staircase rectilinear implementations: monotone step lists.

use core::fmt;

use crate::{Coord, Rect};

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
/// exactly the canonical [`LShape`](crate::LShape) (`(w_1, h_1) = (w1, h2)`,
/// `(w_2, h_2) = (w2, h1)` in the L's 4-tuple naming). The number of
/// *steps* (inner corners) is `t - 1`, capped at
/// [`MAX_STAIRCASE_STEPS`].
///
/// Like [`LShape`](crate::LShape), implementations are stored canonically (notches
/// top-right).
///
/// # Example
///
/// ```
/// use fp_geom::Staircase;
///
/// // A 3-tooth staircase: 10x2 ∪ 7x5 ∪ 3x9.
/// let s = Staircase::from_corners(vec![(10, 2), (7, 5), (3, 9)])?;
/// assert_eq!(s.teeth(), 3);
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

    /// The smallest rectangle containing the staircase:
    /// `w_1 x h_t` (widest tooth by tallest tooth).
    #[inline]
    #[must_use]
    pub fn bounding_box(&self) -> Rect {
        Rect::new(self.corners[0].0, self.corners[self.corners.len() - 1].1)
    }

    /// The transposed staircase (reflection across the main diagonal):
    /// widths and heights swap roles; the result is canonical.
    #[must_use]
    pub fn transposed(&self) -> Staircase {
        Staircase {
            corners: self.corners.iter().rev().map(|&(w, h)| (h, w)).collect(),
        }
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
        assert_eq!(s.teeth(), 2);
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
        assert_eq!(stair(&at_cap).teeth(), MAX_STAIRCASE_STEPS + 1);
    }

    #[test]
    fn transpose_is_involutive_and_swaps_axes() {
        let s = stair(&[(10, 2), (7, 5), (3, 9)]);
        let t = s.transposed();
        assert_eq!(t.corners(), &[(9, 3), (5, 7), (2, 10)]);
        assert_eq!(t.transposed(), s);
        assert_eq!(t.bounding_box(), s.bounding_box().rotated());
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

        /// Transposing twice is the identity.
        #[test]
        fn transpose_round_trip(s in arb_staircase()) {
            prop_assert_eq!(s.transposed().transposed(), s.clone());
        }
    }
}
