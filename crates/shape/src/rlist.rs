//! Irreducible R-lists (paper Definitions 4 and 5).

use core::fmt;
use core::ops::Index;

use fp_geom::{Area, Coord, Rect};

use crate::prune::pareto_min_rects;

/// An irreducible R-list: the non-redundant implementations of a
/// rectangular block, stored as a staircase with widths strictly decreasing
/// and heights strictly increasing (paper Definitions 4–5).
///
/// `RList` is the central currency of bottom-up floorplan area optimization:
/// leaves start with the module's implementations, slicing combinations
/// merge two R-lists into one, and the DAC'92 `R_Selection` algorithm
/// reduces an R-list to its best `k`-element approximation.
///
/// # Example
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::RList;
///
/// let list = RList::from_candidates(vec![
///     Rect::new(2, 8), Rect::new(8, 2), Rect::new(4, 4), Rect::new(5, 5),
/// ]);
/// assert_eq!(list.as_slice(), &[Rect::new(8, 2), Rect::new(4, 4), Rect::new(2, 8)]);
/// assert_eq!(list.min_area_value(), Some(16));
/// assert_eq!(list.min_height_fitting_width(5), Some(Rect::new(4, 4)));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct RList {
    items: Vec<Rect>,
}

impl RList {
    /// An empty R-list (a block with no feasible implementation).
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        RList { items: Vec::new() }
    }

    /// Builds an irreducible R-list from arbitrary candidates: redundant
    /// implementations and duplicates are pruned, the rest sorted into
    /// staircase order.
    #[must_use]
    pub fn from_candidates(candidates: Vec<Rect>) -> Self {
        RList {
            items: pareto_min_rects(candidates),
        }
    }

    /// Wraps a vector that is already an irreducible R-list.
    ///
    /// # Errors
    ///
    /// Returns the vector back if it is not sorted with strictly decreasing
    /// widths and strictly increasing heights.
    pub fn from_sorted(items: Vec<Rect>) -> Result<Self, Vec<Rect>> {
        if RList::is_staircase(&items) {
            Ok(RList { items })
        } else {
            Err(items)
        }
    }

    /// Whether `items` is an irreducible R-list as it stands: strictly
    /// decreasing widths and strictly increasing heights.
    #[must_use]
    pub fn is_staircase(items: &[Rect]) -> bool {
        items.windows(2).all(|w| w[0].w > w[1].w && w[0].h < w[1].h)
    }

    /// Number of implementations.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the block has no implementation.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The implementations in staircase order (width descending).
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[Rect] {
        &self.items
    }

    /// Borrowing iterator over the implementations in staircase order.
    #[inline]
    pub fn iter(&self) -> core::slice::Iter<'_, Rect> {
        self.items.iter()
    }

    /// Consumes the list, returning the underlying vector.
    #[inline]
    #[must_use]
    pub fn into_vec(self) -> Vec<Rect> {
        self.items
    }

    /// The implementation at `index`, if in range.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Rect> {
        self.items.get(index).copied()
    }

    /// The widest (first) implementation.
    #[inline]
    #[must_use]
    pub fn widest(&self) -> Option<Rect> {
        self.items.first().copied()
    }

    /// The tallest (last) implementation.
    #[inline]
    #[must_use]
    pub fn tallest(&self) -> Option<Rect> {
        self.items.last().copied()
    }

    /// The minimum-area implementation (ties broken towards smaller width).
    #[must_use]
    pub fn min_area(&self) -> Option<Rect> {
        self.items.iter().copied().min_by_key(|r| (r.area(), r.w))
    }

    /// The minimum-area implementation's area, if any.
    #[must_use]
    pub fn min_area_value(&self) -> Option<Area> {
        self.min_area().map(|r| r.area())
    }

    /// The lowest implementation whose width is at most `w`, i.e. the best
    /// height achievable under a width constraint. `None` when even the
    /// narrowest implementation is wider than `w`.
    ///
    /// Because the list is a staircase this is a binary search.
    #[must_use]
    pub fn min_height_fitting_width(&self, w: Coord) -> Option<Rect> {
        // items sorted by w desc: find first index with items[i].w <= w.
        let idx = self.items.partition_point(|r| r.w > w);
        self.items.get(idx).copied()
    }

    /// The narrowest implementation whose height is at most `h`. `None`
    /// when even the flattest implementation is taller than `h`.
    #[must_use]
    pub fn min_width_fitting_height(&self, h: Coord) -> Option<Rect> {
        // items sorted by h asc: find last index with items[i].h <= h.
        let idx = self.items.partition_point(|r| r.h <= h);
        idx.checked_sub(1).and_then(|i| self.items.get(i).copied())
    }

    /// The list with width/height roles swapped (the block rotated 90°),
    /// still an irreducible R-list.
    #[must_use]
    pub fn transposed(&self) -> RList {
        let mut items: Vec<Rect> = self.items.iter().map(|r| r.rotated()).collect();
        items.reverse();
        RList { items }
    }

    /// Merges another irreducible R-list into this block's implementation
    /// set (e.g. free-orientation modules merge a list with its transpose),
    /// re-pruning redundant entries.
    #[must_use]
    pub fn union(&self, other: &RList) -> RList {
        let mut all = self.items.clone();
        all.extend_from_slice(&other.items);
        RList::from_candidates(all)
    }

    /// Keeps only the implementations at the given **sorted** positions.
    ///
    /// This is the primitive `R_Selection` uses to apply its optimal subset.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not strictly increasing or contains an
    /// out-of-range index.
    #[must_use]
    pub fn subset(&self, positions: &[usize]) -> RList {
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be strictly increasing"
        );
        let items = positions.iter().map(|&i| self.items[i]).collect();
        RList { items }
    }
}

impl fmt::Debug for RList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.items).finish()
    }
}

impl fmt::Display for RList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RList[")?;
        for (i, r) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for RList {
    type Output = Rect;

    fn index(&self, index: usize) -> &Rect {
        &self.items[index]
    }
}

impl<'a> IntoIterator for &'a RList {
    type Item = &'a Rect;
    type IntoIter = core::slice::Iter<'a, Rect>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl IntoIterator for RList {
    type Item = Rect;
    type IntoIter = std::vec::IntoIter<Rect>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl FromIterator<Rect> for RList {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        RList::from_candidates(iter.into_iter().collect())
    }
}

impl Extend<Rect> for RList {
    fn extend<T: IntoIterator<Item = Rect>>(&mut self, iter: T) {
        let mut all = std::mem::take(&mut self.items);
        all.extend(iter);
        self.items = pareto_min_rects(all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RList {
        RList::from_candidates(vec![
            Rect::new(10, 1),
            Rect::new(7, 2),
            Rect::new(5, 4),
            Rect::new(3, 7),
            Rect::new(2, 11),
        ])
    }

    #[test]
    fn from_sorted_validates() {
        assert!(RList::from_sorted(vec![Rect::new(5, 1), Rect::new(3, 2)]).is_ok());
        assert!(RList::from_sorted(vec![Rect::new(3, 2), Rect::new(5, 1)]).is_err());
        assert!(RList::from_sorted(vec![Rect::new(5, 1), Rect::new(5, 2)]).is_err());
        assert!(RList::from_sorted(vec![]).is_ok());
    }

    #[test]
    fn endpoints_and_min_area() {
        let list = sample();
        assert_eq!(list.widest(), Some(Rect::new(10, 1)));
        assert_eq!(list.tallest(), Some(Rect::new(2, 11)));
        assert_eq!(list.min_area(), Some(Rect::new(10, 1)));
        assert_eq!(list.min_area_value(), Some(10));
        assert_eq!(RList::new().min_area(), None);
    }

    #[test]
    fn width_constrained_lookup() {
        let list = sample();
        assert_eq!(list.min_height_fitting_width(10), Some(Rect::new(10, 1)));
        assert_eq!(list.min_height_fitting_width(9), Some(Rect::new(7, 2)));
        assert_eq!(list.min_height_fitting_width(5), Some(Rect::new(5, 4)));
        assert_eq!(list.min_height_fitting_width(4), Some(Rect::new(3, 7)));
        assert_eq!(list.min_height_fitting_width(1), None);
    }

    #[test]
    fn height_constrained_lookup() {
        let list = sample();
        assert_eq!(list.min_width_fitting_height(1), Some(Rect::new(10, 1)));
        assert_eq!(list.min_width_fitting_height(4), Some(Rect::new(5, 4)));
        assert_eq!(list.min_width_fitting_height(6), Some(Rect::new(5, 4)));
        assert_eq!(list.min_width_fitting_height(11), Some(Rect::new(2, 11)));
        assert_eq!(list.min_width_fitting_height(0), None);
    }

    #[test]
    fn transpose_is_involutive() {
        let list = sample();
        assert_eq!(list.transposed().transposed(), list);
        assert!(RList::from_sorted(list.transposed().into_vec()).is_ok());
    }

    #[test]
    fn union_merges_and_prunes() {
        let a = RList::from_candidates(vec![Rect::new(4, 4)]);
        let b = RList::from_candidates(vec![Rect::new(5, 5), Rect::new(2, 6)]);
        let u = a.union(&b);
        assert_eq!(u.as_slice(), &[Rect::new(4, 4), Rect::new(2, 6)]);
    }

    #[test]
    fn subset_selects_positions() {
        let list = sample();
        let sub = list.subset(&[0, 2, 4]);
        assert_eq!(
            sub.as_slice(),
            &[Rect::new(10, 1), Rect::new(5, 4), Rect::new(2, 11)]
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn subset_rejects_unsorted_positions() {
        let _ = sample().subset(&[2, 0]);
    }

    #[test]
    fn collection_traits() {
        let list: RList = vec![Rect::new(3, 3), Rect::new(4, 4)].into_iter().collect();
        assert_eq!(list.len(), 1);
        let mut list = list;
        list.extend([Rect::new(1, 5), Rect::new(6, 1)]);
        assert_eq!(
            list.as_slice(),
            &[Rect::new(6, 1), Rect::new(3, 3), Rect::new(1, 5)]
        );
        let total: u128 = (&list).into_iter().map(|r| r.area()).sum();
        assert_eq!(total, 6 + 9 + 5);
        assert_eq!(list[0], Rect::new(6, 1));
        assert_eq!(list.to_string(), "RList[6x1, 3x3, 1x5]");
    }

    proptest! {
        #[test]
        fn constrained_lookups_match_linear_scan(
            raw in proptest::collection::vec((1u64..40, 1u64..40), 1..30),
            w_cap in 1u64..40,
            h_cap in 1u64..40,
        ) {
            let list = RList::from_candidates(raw.into_iter()
                .map(|(w, h)| Rect::new(w, h)).collect());
            let by_scan_w = list.iter().copied().filter(|r| r.w <= w_cap)
                .min_by_key(|r| r.h);
            prop_assert_eq!(list.min_height_fitting_width(w_cap), by_scan_w);
            let by_scan_h = list.iter().copied().filter(|r| r.h <= h_cap)
                .min_by_key(|r| r.w);
            prop_assert_eq!(list.min_width_fitting_height(h_cap), by_scan_h);
        }
    }
}
