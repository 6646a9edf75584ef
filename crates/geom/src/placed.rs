//! Placed geometry: positioned rectangles used to realize and verify final
//! layouts.

use core::fmt;

use crate::{area, Area, Coord, Rect};

/// A point on the chip grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Coord,
    /// Vertical coordinate.
    pub y: Coord,
}

impl Point {
    /// Creates a point.
    #[inline]
    #[must_use]
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Coord, Coord)> for Point {
    #[inline]
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle placed at an absolute position (lower-left
/// corner at `origin`).
///
/// Used when a floorplan solution is *realized*: every basic rectangle
/// becomes a `PlacedRect`, and the layout validator checks pairwise
/// non-overlap plus containment in the enveloping rectangle.
///
/// ```
/// use fp_geom::{PlacedRect, Point, Rect};
///
/// let a = PlacedRect::new(Point::new(0, 0), Rect::new(4, 4));
/// let b = PlacedRect::new(Point::new(4, 0), Rect::new(4, 4));
/// assert!(!a.overlaps(&b)); // edge-adjacent rectangles do not overlap
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PlacedRect {
    /// Lower-left corner.
    pub origin: Point,
    /// Size.
    pub size: Rect,
}

impl PlacedRect {
    /// Places `size` with its lower-left corner at `origin`.
    #[inline]
    #[must_use]
    pub const fn new(origin: Point, size: Rect) -> Self {
        PlacedRect { origin, size }
    }

    /// Left edge x-coordinate.
    #[inline]
    #[must_use]
    pub const fn x_min(&self) -> Coord {
        self.origin.x
    }

    /// Right edge x-coordinate.
    #[inline]
    #[must_use]
    pub const fn x_max(&self) -> Coord {
        self.origin.x + self.size.w
    }

    /// Bottom edge y-coordinate.
    #[inline]
    #[must_use]
    pub const fn y_min(&self) -> Coord {
        self.origin.y
    }

    /// Top edge y-coordinate.
    #[inline]
    #[must_use]
    pub const fn y_max(&self) -> Coord {
        self.origin.y + self.size.h
    }

    /// The enclosed area.
    #[inline]
    #[must_use]
    pub fn area(&self) -> Area {
        self.size.area()
    }

    /// `true` if the *open interiors* of the rectangles intersect.
    ///
    /// Rectangles that merely share an edge or a corner do not overlap.
    /// Zero-area rectangles never overlap anything.
    #[inline]
    #[must_use]
    pub fn overlaps(&self, other: &PlacedRect) -> bool {
        if self.area() == 0 || other.area() == 0 {
            return false;
        }
        self.x_min() < other.x_max()
            && other.x_min() < self.x_max()
            && self.y_min() < other.y_max()
            && other.y_min() < self.y_max()
    }

    /// `true` if `self` lies entirely inside `other` (boundary inclusive).
    #[inline]
    #[must_use]
    pub fn contained_in(&self, other: &PlacedRect) -> bool {
        self.x_min() >= other.x_min()
            && self.x_max() <= other.x_max()
            && self.y_min() >= other.y_min()
            && self.y_max() <= other.y_max()
    }

    /// `true` if the point lies inside `self` (boundary inclusive).
    #[inline]
    #[must_use]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.x_min() && p.x <= self.x_max() && p.y >= self.y_min() && p.y <= self.y_max()
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[inline]
    #[must_use]
    pub const fn translated(self, dx: Coord, dy: Coord) -> Self {
        PlacedRect {
            origin: Point::new(self.origin.x + dx, self.origin.y + dy),
            size: self.size,
        }
    }
}

impl fmt::Display for PlacedRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.size, self.origin)
    }
}

/// An accumulating axis-aligned bounding box.
///
/// ```
/// use fp_geom::{BoundingBox, PlacedRect, Point, Rect};
///
/// let mut bb = BoundingBox::new();
/// bb.include(&PlacedRect::new(Point::new(1, 2), Rect::new(3, 3)));
/// bb.include(&PlacedRect::new(Point::new(0, 4), Rect::new(2, 2)));
/// assert_eq!(bb.extent(), Some(Rect::new(4, 4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundingBox {
    bounds: Option<(Point, Point)>,
}

impl BoundingBox {
    /// An empty bounding box.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        BoundingBox { bounds: None }
    }

    /// Extends the box to include `r`.
    pub fn include(&mut self, r: &PlacedRect) {
        let lo = Point::new(r.x_min(), r.y_min());
        let hi = Point::new(r.x_max(), r.y_max());
        self.bounds = Some(match self.bounds {
            None => (lo, hi),
            Some((a, b)) => (
                Point::new(a.x.min(lo.x), a.y.min(lo.y)),
                Point::new(b.x.max(hi.x), b.y.max(hi.y)),
            ),
        });
    }

    /// The lower-left corner, if any rectangle was included.
    #[inline]
    #[must_use]
    pub fn min(&self) -> Option<Point> {
        self.bounds.map(|(a, _)| a)
    }

    /// The upper-right corner, if any rectangle was included.
    #[inline]
    #[must_use]
    pub fn max(&self) -> Option<Point> {
        self.bounds.map(|(_, b)| b)
    }

    /// The width × height of the box, if non-empty.
    #[inline]
    #[must_use]
    pub fn extent(&self) -> Option<Rect> {
        self.bounds.map(|(a, b)| Rect::new(b.x - a.x, b.y - a.y))
    }

    /// The area of the box (`0` when empty).
    #[inline]
    #[must_use]
    pub fn area(&self) -> Area {
        self.extent().map_or(0, |r| r.area())
    }
}

impl Extend<PlacedRect> for BoundingBox {
    fn extend<T: IntoIterator<Item = PlacedRect>>(&mut self, iter: T) {
        for r in iter {
            self.include(&r);
        }
    }
}

impl FromIterator<PlacedRect> for BoundingBox {
    fn from_iter<T: IntoIterator<Item = PlacedRect>>(iter: T) -> Self {
        let mut bb = BoundingBox::new();
        bb.extend(iter);
        bb
    }
}

/// Checks that no two rectangles in `rects` overlap; returns the indices of
/// the first offending pair, or `None` when the set is overlap-free.
///
/// This is the O(n log n) sweep used by the layout validator; it is exact
/// for the modest rectangle counts of floorplan verification.
#[must_use]
pub fn first_overlap(rects: &[PlacedRect]) -> Option<(usize, usize)> {
    // Sweep over x: sort by x_min, keep an active window of rectangles whose
    // x-interval may still intersect subsequent ones.
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by_key(|&i| rects[i].x_min());
    let mut active: Vec<usize> = Vec::new();
    for &i in &order {
        let r = &rects[i];
        active.retain(|&j| rects[j].x_max() > r.x_min());
        for &j in &active {
            if rects[j].overlaps(r) {
                return Some((j.min(i), j.max(i)));
            }
        }
        active.push(i);
    }
    None
}

/// The sum of the rectangle areas.
#[must_use]
pub fn total_area(rects: &[PlacedRect]) -> Area {
    rects.iter().map(PlacedRect::area).sum()
}

/// Dead space of a set of rectangles inside an envelope: envelope area minus
/// the sum of rectangle areas.
///
/// # Panics
///
/// Panics if the rectangles' total area exceeds the envelope area (which
/// implies an overlap or escape, i.e. an invalid layout).
#[must_use]
pub fn dead_space(envelope: Rect, rects: &[PlacedRect]) -> Area {
    let used = total_area(rects);
    let total = area(envelope.w, envelope.h);
    assert!(
        used <= total,
        "rectangles exceed the envelope: {used} > {total}"
    );
    total - used
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pr(x: Coord, y: Coord, w: Coord, h: Coord) -> PlacedRect {
        PlacedRect::new(Point::new(x, y), Rect::new(w, h))
    }

    #[test]
    fn edges_and_area() {
        let r = pr(2, 3, 4, 5);
        assert_eq!((r.x_min(), r.x_max(), r.y_min(), r.y_max()), (2, 6, 3, 8));
        assert_eq!(r.area(), 20);
    }

    #[test]
    fn overlap_semantics_open_interior() {
        let a = pr(0, 0, 4, 4);
        assert!(a.overlaps(&pr(3, 3, 4, 4))); // corner area shared
        assert!(!a.overlaps(&pr(4, 0, 4, 4))); // edge adjacency
        assert!(!a.overlaps(&pr(4, 4, 4, 4))); // corner adjacency
        assert!(!a.overlaps(&pr(2, 2, 0, 5))); // zero-width never overlaps
        assert!(a.overlaps(&pr(1, 1, 2, 2))); // containment overlaps
    }

    #[test]
    fn containment_boundary_inclusive() {
        let outer = pr(0, 0, 10, 10);
        assert!(pr(0, 0, 10, 10).contained_in(&outer));
        assert!(pr(2, 2, 8, 8).contained_in(&outer));
        assert!(!pr(2, 2, 9, 8).contained_in(&outer));
    }

    #[test]
    fn bounding_box_accumulates() {
        let bb: BoundingBox = [pr(1, 2, 3, 3), pr(0, 4, 2, 2)].into_iter().collect();
        assert_eq!(bb.min(), Some(Point::new(0, 2)));
        assert_eq!(bb.max(), Some(Point::new(4, 6)));
        assert_eq!(bb.extent(), Some(Rect::new(4, 4)));
        assert_eq!(bb.area(), 16);
        assert_eq!(BoundingBox::new().extent(), None);
        assert_eq!(BoundingBox::new().area(), 0);
    }

    #[test]
    fn first_overlap_finds_pairs() {
        let tiling = [pr(0, 0, 4, 4), pr(4, 0, 4, 4), pr(0, 4, 8, 4)];
        assert_eq!(first_overlap(&tiling), None);
        let clash = [pr(0, 0, 4, 4), pr(4, 0, 4, 4), pr(3, 3, 2, 2)];
        assert_eq!(first_overlap(&clash), Some((0, 2)));
        assert_eq!(first_overlap(&[]), None);
        assert_eq!(first_overlap(&[pr(0, 0, 1, 1)]), None);
    }

    #[test]
    fn dead_space_of_exact_tiling_is_zero() {
        let tiling = [pr(0, 0, 4, 4), pr(4, 0, 4, 4), pr(0, 4, 8, 4)];
        assert_eq!(dead_space(Rect::new(8, 8), &tiling), 0);
        assert_eq!(dead_space(Rect::new(9, 8), &tiling), 8);
    }

    #[test]
    #[should_panic(expected = "exceed the envelope")]
    fn dead_space_panics_on_overfull() {
        let _ = dead_space(Rect::new(2, 2), &[pr(0, 0, 3, 3)]);
    }

    proptest! {
        /// Brute-force cross-check of the sweep-based overlap detector.
        #[test]
        fn sweep_matches_brute_force(
            raw in proptest::collection::vec((0u64..20, 0u64..20, 1u64..6, 1u64..6), 0..12)
        ) {
            let rects: Vec<PlacedRect> =
                raw.into_iter().map(|(x, y, w, h)| pr(x, y, w, h)).collect();
            let brute = (0..rects.len()).flat_map(|i| (i + 1..rects.len()).map(move |j| (i, j)))
                .any(|(i, j)| rects[i].overlaps(&rects[j]));
            prop_assert_eq!(first_overlap(&rects).is_some(), brute);
        }

        #[test]
        fn overlap_symmetric(a in (0u64..20, 0u64..20, 0u64..6, 0u64..6),
                             b in (0u64..20, 0u64..20, 0u64..6, 0u64..6)) {
            let ra = pr(a.0, a.1, a.2, a.3);
            let rb = pr(b.0, b.1, b.2, b.3);
            prop_assert_eq!(ra.overlaps(&rb), rb.overlaps(&ra));
        }
    }
}
