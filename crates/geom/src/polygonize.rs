//! Layout post-processing: polygonize a realized placement into
//! dead-space regions and merged block outlines.
//!
//! A realized layout is a set of non-overlapping [`PlacedRect`]s inside
//! an envelope. This module runs one scanline union over them and
//! reports the layout as *geometry* rather than a single area number:
//!
//! * the dead space decomposed into connected regions (4-connected
//!   through shared positive-length edges), each as a strip-rectangle
//!   decomposition with its exact area — whitespace count / total /
//!   largest-region distribution;
//! * the merged outline of the occupied area as closed rectilinear
//!   rings (counterclockwise outer boundaries, clockwise holes), for
//!   export.
//!
//! Everything is exact integer arithmetic: for any overlap-free layout
//! the region areas and the block areas partition the envelope area
//! (`Σ blocks + Σ whitespace == w·h`), a conservation law the property
//! tests pin down.
//!
//! One call makes a few passes over flat buffers: the strips' covered
//! intervals live in one column with per-strip offsets, the sweep keeps
//! its active set sorted as blocks enter and leave, and the outline is
//! stitched from maximal edges (a horizontal boundary run that crosses
//! strip boundaries is one edge, not one edge per strip).

use crate::{Area, Coord, PlacedRect, Point, Rect};

/// One connected dead-space region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadRegion {
    /// A disjoint rectangle decomposition of the region (one rectangle
    /// per vertical strip the region crosses).
    pub rects: Vec<PlacedRect>,
    /// The exact region area (the sum of `rects` areas).
    pub area: Area,
}

/// The whitespace distribution of a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhitespaceReport {
    /// Connected dead-space regions, largest area first (ties broken by
    /// lower-left corner for determinism).
    pub regions: Vec<DeadRegion>,
    /// Total dead-space area (the sum over regions).
    pub total: Area,
}

impl WhitespaceReport {
    /// The number of connected dead-space regions.
    #[must_use]
    pub fn count(&self) -> usize {
        self.regions.len()
    }

    /// The largest region's area (`0` for a perfect tiling).
    #[must_use]
    pub fn largest(&self) -> Area {
        self.regions.first().map_or(0, |r| r.area)
    }
}

/// The polygonized view of a realized layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polygonized {
    /// Dead-space regions and their distribution.
    pub whitespace: WhitespaceReport,
    /// Closed rectilinear rings of the occupied area's boundary:
    /// counterclockwise outer boundaries, clockwise holes. Each ring
    /// lists its corners in walking order (interior on the left) with
    /// collinear points merged; the first corner is not repeated.
    pub outlines: Vec<Vec<Point>>,
}

/// Polygonizes a layout: scanline union of `blocks` inside `envelope`.
///
/// `blocks` must be overlap-free and contained in the envelope (the
/// state every validated layout is in); the scanline clamps stray
/// geometry to the envelope but the conservation law (`Σ block areas +
/// Σ whitespace == envelope area`) is only meaningful for valid input.
#[must_use]
pub fn polygonize(envelope: Rect, blocks: &[PlacedRect]) -> Polygonized {
    let strips = Strips::build(envelope, blocks);
    Polygonized {
        whitespace: strips.whitespace(),
        outlines: strips.outlines(),
    }
}

/// [`polygonize`] when only the whitespace distribution is needed
/// (skips boundary extraction).
#[must_use]
pub fn whitespace(envelope: Rect, blocks: &[PlacedRect]) -> WhitespaceReport {
    Strips::build(envelope, blocks).whitespace()
}

/// A y-interval `[y1, y2)` of one strip.
type Interval = (Coord, Coord);

/// The scanline union, flat: strip `i` spans `[xs[i], xs[i + 1])` and
/// its merged covered y-intervals are `covered[start[i]..start[i + 1]]`.
struct Strips {
    /// Envelope height: every strip runs from `y = 0` to `y = h`.
    h: Coord,
    /// Strip boundaries `x_0 < x_1 < … < x_m` (`x_0 = 0`, `x_m = w`);
    /// empty for a degenerate envelope, which has no strips.
    xs: Vec<Coord>,
    /// Offsets of each strip's intervals in `covered` (`m + 1` entries).
    start: Vec<usize>,
    /// Every strip's merged covered intervals, sorted, strip by strip.
    covered: Vec<Interval>,
}

impl Strips {
    fn build(envelope: Rect, blocks: &[PlacedRect]) -> Strips {
        let (w, h) = (envelope.w, envelope.h);
        // Degenerate envelopes have no strips at all.
        if w == 0 || h == 0 {
            return Strips {
                h,
                xs: Vec::new(),
                start: Vec::new(),
                covered: Vec::new(),
            };
        }
        // Cut at every positive-area block's clamped x extent; the
        // blocks that cover part of the envelope become spans
        // `(x entry, x exit, y1, y2)`, clamped to it.
        let mut xs: Vec<Coord> = Vec::with_capacity(2 * blocks.len() + 2);
        xs.push(0);
        xs.push(w);
        let mut spans: Vec<(Coord, Coord, Coord, Coord)> = Vec::with_capacity(blocks.len());
        for b in blocks {
            if b.area() == 0 {
                continue;
            }
            let (x1, x2) = (b.x_min().min(w), b.x_max().min(w));
            xs.push(x1);
            xs.push(x2);
            let (y1, y2) = (b.y_min().min(h), b.y_max().min(h));
            if x1 < x2 && y1 < y2 {
                spans.push((x1, x2, y1, y2));
            }
        }
        xs.sort_unstable();
        xs.dedup();
        spans.sort_unstable_by_key(|s| s.0);
        let mut exits: Vec<(Coord, Coord, Coord)> =
            spans.iter().map(|&(_, x2, y1, y2)| (x2, y1, y2)).collect();
        exits.sort_unstable_by_key(|e| e.0);

        // Sweep: the active y-intervals stay sorted as spans enter and
        // leave, so each strip's union is one merging pass over them.
        let m = xs.len() - 1;
        let mut start = Vec::with_capacity(m + 1);
        let mut covered: Vec<Interval> = Vec::with_capacity(2 * m);
        let mut active: Vec<Interval> = Vec::new();
        let (mut entered, mut left) = (0usize, 0usize);
        for &x in &xs[..m] {
            while let Some(&(x1, _, y1, y2)) = spans.get(entered) {
                if x1 > x {
                    break;
                }
                let at = active.partition_point(|&iv| iv <= (y1, y2));
                active.insert(at, (y1, y2));
                entered += 1;
            }
            while let Some(&(x2, y1, y2)) = exits.get(left) {
                if x2 > x {
                    break;
                }
                if let Ok(at) = active.binary_search(&(y1, y2)) {
                    active.remove(at);
                }
                left += 1;
            }
            let first = covered.len();
            start.push(first);
            for &(y1, y2) in &active {
                if let Some(last) = covered[first..].last_mut() {
                    if y1 <= last.1 {
                        last.1 = last.1.max(y2);
                        continue;
                    }
                }
                covered.push((y1, y2));
            }
        }
        start.push(covered.len());
        Strips {
            h,
            xs,
            start,
            covered,
        }
    }

    fn strip_count(&self) -> usize {
        self.xs.len().saturating_sub(1)
    }

    /// The merged covered intervals of strip `i`.
    fn strip(&self, i: usize) -> &[Interval] {
        &self.covered[self.start[i]..self.start[i + 1]]
    }

    /// The covered intervals on either side of strip boundary `i`
    /// (nothing beyond the envelope).
    fn sides(&self, i: usize) -> (&[Interval], &[Interval]) {
        let left = if i == 0 { &[][..] } else { self.strip(i - 1) };
        let right = if i == self.strip_count() {
            &[][..]
        } else {
            self.strip(i)
        };
        (left, right)
    }

    fn whitespace(&self) -> WhitespaceReport {
        // Free rectangles, strip by strip: the gaps between each strip's
        // covered intervals.
        let m = self.strip_count();
        let mut rects: Vec<PlacedRect> = Vec::with_capacity(self.covered.len() + m);
        let mut strip_start: Vec<usize> = Vec::with_capacity(m + 1);
        for i in 0..m {
            strip_start.push(rects.len());
            let (x1, x2) = (self.xs[i], self.xs[i + 1]);
            let mut free = |y1: Coord, y2: Coord| {
                rects.push(PlacedRect::new(
                    Point::new(x1, y1),
                    Rect::new(x2 - x1, y2 - y1),
                ));
            };
            let mut y = 0;
            for &(y1, y2) in self.strip(i) {
                if y < y1 {
                    free(y, y1);
                }
                y = y2;
            }
            if y < self.h {
                free(y, self.h);
            }
        }
        strip_start.push(rects.len());

        // Union-find across adjacent strips on positive-length y-overlap.
        let mut dsu = Dsu::new(rects.len());
        for i in 1..m {
            // Two-pointer over the sorted free intervals of strips i-1, i.
            let (mut a, mut b) = (strip_start[i - 1], strip_start[i]);
            while a < strip_start[i] && b < strip_start[i + 1] {
                let ra = &rects[a];
                let rb = &rects[b];
                if ra.y_min() < rb.y_max() && rb.y_min() < ra.y_max() {
                    dsu.union(a, b);
                }
                if ra.y_max() <= rb.y_max() {
                    a += 1;
                } else {
                    b += 1;
                }
            }
        }

        // A set's root is its smallest index, so it is met before every
        // other member: one pass numbers the regions in order of first
        // appearance and sizes them, a second fills them in rect order.
        let mut region_of: Vec<usize> = Vec::with_capacity(rects.len());
        let mut sizes: Vec<usize> = Vec::new();
        for idx in 0..rects.len() {
            let root = dsu.find(idx);
            let region = if root == idx {
                sizes.push(0);
                sizes.len() - 1
            } else {
                region_of[root]
            };
            sizes[region] += 1;
            region_of.push(region);
        }
        let mut regions: Vec<DeadRegion> = sizes
            .iter()
            .map(|&n| DeadRegion {
                rects: Vec::with_capacity(n),
                area: 0,
            })
            .collect();
        for (r, &region) in rects.iter().zip(&region_of) {
            let region = &mut regions[region];
            region.rects.push(*r);
            region.area += r.area();
        }
        // Largest first; deterministic tiebreak on the lower-left corner
        // (strip construction makes the first rect the region's leftmost
        // lowest). Regions have distinct first rects, so the order is
        // total and an unstable sort is exact.
        regions.sort_unstable_by(|a, b| {
            b.area
                .cmp(&a.area)
                .then_with(|| a.rects[0].origin.cmp(&b.rects[0].origin))
        });
        let total = regions.iter().map(|r| r.area).sum();
        WhitespaceReport { regions, total }
    }

    /// Directed boundary edges of the covered union, interior on the
    /// left, stitched into closed rings.
    fn outlines(&self) -> Vec<Vec<Point>> {
        let m = self.strip_count();
        if m == 0 {
            return Vec::new();
        }
        // Vertical edges at every strip boundary: segments covered on
        // exactly one side. Interior on the left walks up; on the right,
        // down. These come first, in boundary order: every ring is
        // entered at the first of its vertical edges in this order.
        let mut edges: Vec<(Point, Point)> = Vec::new();
        for i in 0..=m {
            let x = self.xs[i];
            let (left, right) = self.sides(i);
            interval_difference(left, right, |y1, y2| {
                edges.push((Point::new(x, y1), Point::new(x, y2))); // up
            });
            interval_difference(right, left, |y1, y2| {
                edges.push((Point::new(x, y2), Point::new(x, y1))); // down
            });
        }
        // Horizontal edges: each covered interval's bottom (interior
        // above, walk right) and top (interior below, walk left), merged
        // into maximal runs. A run crosses a strip boundary when an
        // interval on the far side starts (bottoms) or ends (tops) at the
        // same y: no vertical edge touches that point. `open` holds the
        // x where the run through each interval of the previous strip
        // began.
        let mut open = (Vec::new(), Vec::new());
        let mut carried = (Vec::new(), Vec::new());
        for i in 0..=m {
            let x = self.xs[i];
            let (left, right) = self.sides(i);
            carried.0.clear();
            carried.0.resize(right.len(), x);
            carried.1.clear();
            carried.1.resize(right.len(), x);
            carry_runs(
                left,
                right,
                |iv| iv.0,
                &open.0,
                &mut carried.0,
                |from, y| {
                    edges.push((Point::new(from, y), Point::new(x, y)));
                },
            );
            carry_runs(
                left,
                right,
                |iv| iv.1,
                &open.1,
                &mut carried.1,
                |from, y| {
                    edges.push((Point::new(x, y), Point::new(from, y)));
                },
            );
            std::mem::swap(&mut open, &mut carried);
        }
        stitch_rings(&edges)
    }
}

/// Emits the maximal segments of `a \ b` for two sorted disjoint
/// interval lists.
fn interval_difference(a: &[Interval], b: &[Interval], mut emit: impl FnMut(Coord, Coord)) {
    let mut bi = 0usize;
    for &(mut y1, y2) in a {
        while y1 < y2 {
            // Skip b-intervals entirely below y1.
            while bi < b.len() && b[bi].1 <= y1 {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(b1, b2)) if b1 < y2 => {
                    if y1 < b1 {
                        emit(y1, b1);
                    }
                    y1 = b2.min(y2);
                }
                _ => {
                    emit(y1, y2);
                    y1 = y2;
                }
            }
        }
        // A b-interval can straddle two a-intervals; step back so the
        // next a-interval re-examines it.
        bi = bi.saturating_sub(1);
    }
}

/// Carries horizontal runs across one strip boundary. `key` picks the
/// run's y from an interval (its bottom or its top); `open[j]` is where
/// the run through `left[j]` began. A run whose y has a partner in
/// `right` continues into `carried`; one without ends here and goes to
/// `end(began, y)`. Runs that start here keep the boundary x that
/// `carried` was filled with.
fn carry_runs(
    left: &[Interval],
    right: &[Interval],
    key: fn(&Interval) -> Coord,
    open: &[Coord],
    carried: &mut [Coord],
    mut end: impl FnMut(Coord, Coord),
) {
    use std::cmp::Ordering;
    let (mut a, mut b) = (0usize, 0usize);
    loop {
        let order = match (left.get(a), right.get(b)) {
            (Some(l), Some(r)) => key(l).cmp(&key(r)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        match order {
            Ordering::Equal => {
                carried[b] = open[a];
                a += 1;
                b += 1;
            }
            Ordering::Less => {
                end(open[a], key(&left[a]));
                a += 1;
            }
            Ordering::Greater => b += 1,
        }
    }
}

/// Stitches directed boundary edges (interior on the left) into closed
/// rings, resolving corner-touch vertices by always taking the
/// left-most available turn; merges collinear corners.
fn stitch_rings(edges: &[(Point, Point)]) -> Vec<Vec<Point>> {
    // Out-edges by start point, in edge order within a point.
    let mut out_edges: Vec<(Point, usize)> = edges
        .iter()
        .enumerate()
        .map(|(idx, &(from, _))| (from, idx))
        .collect();
    out_edges.sort_unstable();
    let mut used = vec![false; edges.len()];
    let mut rings = Vec::new();
    let mut ring: Vec<Point> = Vec::new();
    for start in 0..edges.len() {
        if used[start] {
            continue;
        }
        ring.clear();
        let mut current = start;
        loop {
            used[current] = true;
            let (from, to) = edges[current];
            ring.push(from);
            if to == edges[start].0 {
                break;
            }
            let incoming = direction(from, to);
            let first = out_edges.partition_point(|&(p, _)| p < to);
            // Left turn first, then straight, then right: keeps the
            // interior-on-the-left invariant through corner-touches.
            current = out_edges[first..]
                .iter()
                .take_while(|&&(p, _)| p == to)
                .map(|&(_, e)| e)
                .filter(|&e| !used[e])
                .min_by_key(|&e| turn_rank(incoming, direction(edges[e].0, edges[e].1)))
                .expect("boundary edges are closed");
        }
        rings.push(merge_collinear(&ring));
    }
    rings
}

/// Unit direction of an axis-aligned edge, encoded as (dx, dy) signs.
fn direction(from: Point, to: Point) -> (i8, i8) {
    (
        (to.x > from.x) as i8 - (to.x < from.x) as i8,
        (to.y > from.y) as i8 - (to.y < from.y) as i8,
    )
}

/// 0 = left turn, 1 = straight, 2 = right turn, 3 = U-turn.
fn turn_rank(incoming: (i8, i8), outgoing: (i8, i8)) -> u8 {
    let cross = incoming.0 * outgoing.1 - incoming.1 * outgoing.0;
    let dot = incoming.0 * outgoing.0 + incoming.1 * outgoing.1;
    match (cross, dot) {
        (1, _) => 0,
        (0, 1) => 1,
        (-1, _) => 2,
        _ => 3,
    }
}

fn merge_collinear(ring: &[Point]) -> Vec<Point> {
    let n = ring.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let prev = ring[(i + n - 1) % n];
        let next = ring[(i + 1) % n];
        if direction(prev, ring[i]) != direction(ring[i], next) {
            out.push(ring[i]);
        }
    }
    // Deterministic starting corner: rotate the cycle to its minimal point.
    if let Some(lead) = out
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| **p)
        .map(|(i, _)| i)
    {
        out.rotate_left(lead);
    }
    out
}

/// A plain union-find over `0..n`.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pr(x: Coord, y: Coord, w: Coord, h: Coord) -> PlacedRect {
        PlacedRect::new(Point::new(x, y), Rect::new(w, h))
    }

    #[test]
    fn perfect_tiling_has_no_whitespace() {
        let tiling = [pr(0, 0, 4, 4), pr(4, 0, 4, 4), pr(0, 4, 8, 4)];
        let poly = polygonize(Rect::new(8, 8), &tiling);
        assert_eq!(poly.whitespace.count(), 0);
        assert_eq!(poly.whitespace.total, 0);
        assert_eq!(poly.whitespace.largest(), 0);
        // One outer ring: the envelope itself.
        assert_eq!(poly.outlines.len(), 1);
        assert_eq!(
            poly.outlines[0],
            vec![
                Point::new(0, 0),
                Point::new(8, 0),
                Point::new(8, 8),
                Point::new(0, 8)
            ]
        );
    }

    #[test]
    fn single_block_leaves_an_l_of_whitespace() {
        // A 4x4 block in the corner of an 8x8 envelope: the dead space
        // is one connected L-shaped region of area 48.
        let ws = whitespace(Rect::new(8, 8), &[pr(0, 0, 4, 4)]);
        assert_eq!(ws.count(), 1);
        assert_eq!(ws.total, 48);
        assert_eq!(ws.largest(), 48);
    }

    #[test]
    fn corner_touch_does_not_connect_regions() {
        // Two blocks on the anti-diagonal of a 2x2: the two free cells
        // touch only at the centre corner — two regions.
        let ws = whitespace(Rect::new(2, 2), &[pr(0, 0, 1, 1), pr(1, 1, 1, 1)]);
        assert_eq!(ws.count(), 2);
        assert_eq!(ws.total, 2);
        assert_eq!(ws.largest(), 1);
    }

    #[test]
    fn enclosed_hole_is_a_region_and_a_clockwise_ring() {
        // A 3x3 donut: 8 unit blocks around an empty centre cell, in a
        // 3x3 envelope. One dead region (the hole), and the outline has
        // an outer ring plus a hole ring.
        let blocks = [
            pr(0, 0, 3, 1), // bottom row
            pr(0, 2, 3, 1), // top row
            pr(0, 1, 1, 1), // left middle
            pr(2, 1, 1, 1), // right middle
        ];
        let poly = polygonize(Rect::new(3, 3), &blocks);
        assert_eq!(poly.whitespace.count(), 1);
        assert_eq!(poly.whitespace.total, 1);
        assert_eq!(poly.outlines.len(), 2);
        let signed: Vec<i128> = poly.outlines.iter().map(|r| signed_area(r)).collect();
        // One CCW outer ring (+9 area), one CW hole (-1).
        assert!(signed.contains(&18), "outer ring twice-area: {signed:?}");
        assert!(signed.contains(&-2), "hole ring twice-area: {signed:?}");
    }

    #[test]
    fn separate_blocks_make_separate_rings() {
        let poly = polygonize(Rect::new(10, 4), &[pr(0, 0, 2, 2), pr(5, 1, 3, 2)]);
        assert_eq!(poly.outlines.len(), 2);
        assert_eq!(poly.whitespace.count(), 1);
        assert_eq!(poly.whitespace.total, 40 - 4 - 6);
    }

    #[test]
    fn empty_layout_is_all_whitespace() {
        let ws = whitespace(Rect::new(5, 3), &[]);
        assert_eq!(ws.count(), 1);
        assert_eq!(ws.total, 15);
        assert!(polygonize(Rect::new(5, 3), &[]).outlines.is_empty());
        // Degenerate envelope.
        let ws = whitespace(Rect::new(0, 3), &[]);
        assert_eq!(ws.count(), 0);
        assert_eq!(ws.total, 0);
    }

    #[test]
    fn region_decomposition_rects_are_disjoint_and_exact() {
        let blocks = [pr(2, 0, 3, 5), pr(7, 2, 2, 2)];
        let ws = whitespace(Rect::new(10, 5), &blocks);
        let all: Vec<PlacedRect> = ws.regions.iter().flat_map(|r| r.rects.clone()).collect();
        assert_eq!(crate::first_overlap(&all), None);
        let sum: Area = all.iter().map(PlacedRect::area).sum();
        assert_eq!(sum, ws.total);
        assert_eq!(ws.total + 15 + 4, 50);
    }

    fn signed_area(ring: &[Point]) -> i128 {
        let n = ring.len();
        let mut twice = 0i128;
        for i in 0..n {
            let a = ring[i];
            let b = ring[(i + 1) % n];
            twice += i128::from(a.x) * i128::from(b.y) - i128::from(b.x) * i128::from(a.y);
        }
        twice
    }

    /// Deterministic non-overlapping layout generator: slice the
    /// envelope guillotine-style, keep a pseudo-random subset of cells.
    fn arb_layout() -> impl Strategy<Value = (Rect, Vec<PlacedRect>)> {
        (
            2u64..24,
            2u64..24,
            proptest::collection::vec((0u64..24, 0u64..24, 1u64..8, 1u64..8, 0u64..2), 0..16),
        )
            .prop_map(|(w, h, raw)| {
                let envelope = Rect::new(w, h);
                let mut blocks: Vec<PlacedRect> = Vec::new();
                for (x, y, bw, bh, keep) in raw {
                    if keep == 0 || x >= w || y >= h {
                        continue;
                    }
                    let r = pr(x, y, bw.min(w - x), bh.min(h - y));
                    if blocks.iter().all(|b| !b.overlaps(&r)) {
                        blocks.push(r);
                    }
                }
                (envelope, blocks)
            })
    }

    proptest! {
        /// Conservation: blocks + whitespace == envelope, exactly.
        #[test]
        fn conservation_law((envelope, blocks) in arb_layout()) {
            let ws = whitespace(envelope, &blocks);
            let used: Area = blocks.iter().map(PlacedRect::area).sum();
            prop_assert_eq!(used + ws.total, crate::area(envelope.w, envelope.h));
            prop_assert_eq!(ws.total, crate::dead_space(envelope, &blocks));
            // Largest <= total, and the region list is sorted.
            prop_assert!(ws.largest() <= ws.total);
            for win in ws.regions.windows(2) {
                prop_assert!(win[0].area >= win[1].area);
            }
        }

        /// The outline rings' signed areas sum to the occupied area
        /// (outer rings positive, holes negative).
        #[test]
        fn outline_signed_areas_sum_to_occupied((envelope, blocks) in arb_layout()) {
            let poly = polygonize(envelope, &blocks);
            let used: i128 = blocks.iter().map(|b| b.area() as i128).sum();
            let twice: i128 = poly.outlines.iter().map(|r| signed_area(r)).sum();
            prop_assert_eq!(twice, 2 * used);
            // Rings are simple walks: consecutive corners differ in
            // exactly one axis.
            for ring in &poly.outlines {
                prop_assert!(ring.len() >= 4);
                for i in 0..ring.len() {
                    let a = ring[i];
                    let b = ring[(i + 1) % ring.len()];
                    prop_assert!((a.x == b.x) != (a.y == b.y));
                }
            }
        }
    }

    /// The polygonizer as it was before the flat-strip rewrite: one
    /// `Vec` per strip, a `retain` over the active set per strip, and one
    /// boundary edge per strip piece stitched through a hash map. Kept
    /// verbatim as the reference for the differential tests.
    mod oracle {
        use super::super::{direction, turn_rank, Dsu};
        use super::super::{DeadRegion, Polygonized, WhitespaceReport};
        use crate::{Coord, PlacedRect, Point, Rect};

        pub(super) fn polygonize(envelope: Rect, blocks: &[PlacedRect]) -> Polygonized {
            let strips = StripDecomposition::build(envelope, blocks);
            Polygonized {
                whitespace: strips.whitespace(),
                outlines: strips.outlines(),
            }
        }

        pub(super) fn whitespace(envelope: Rect, blocks: &[PlacedRect]) -> WhitespaceReport {
            StripDecomposition::build(envelope, blocks).whitespace()
        }

        /// The scanline union: per vertical strip, the merged covered
        /// y-intervals.
        struct StripDecomposition {
            envelope: Rect,
            /// Strip boundaries `x_0 < x_1 < … < x_m` (x_0 = 0, x_m = w).
            xs: Vec<Coord>,
            /// Per strip `i` (`[xs[i], xs[i+1])`): merged covered y-intervals.
            covered: Vec<Vec<(Coord, Coord)>>,
        }

        impl StripDecomposition {
            fn build(envelope: Rect, blocks: &[PlacedRect]) -> StripDecomposition {
                // Degenerate envelopes have no strips at all.
                if envelope.w == 0 || envelope.h == 0 {
                    return StripDecomposition {
                        envelope,
                        xs: Vec::new(),
                        covered: Vec::new(),
                    };
                }
                let mut xs: Vec<Coord> = Vec::with_capacity(2 * blocks.len() + 2);
                xs.push(0);
                xs.push(envelope.w);
                for b in blocks {
                    if b.area() == 0 {
                        continue;
                    }
                    xs.push(b.x_min().min(envelope.w));
                    xs.push(b.x_max().min(envelope.w));
                }
                xs.sort_unstable();
                xs.dedup();

                // Sweep: per strip, the y-intervals of the blocks spanning it,
                // merged. Entry/exit events keep the active set incremental.
                let mut order: Vec<usize> = (0..blocks.len())
                    .filter(|&i| blocks[i].area() > 0)
                    .collect();
                order.sort_unstable_by_key(|&i| blocks[i].x_min());
                let mut active: Vec<usize> = Vec::new();
                let mut next = 0usize;
                let mut covered = Vec::with_capacity(xs.len().saturating_sub(1));
                let mut intervals: Vec<(Coord, Coord)> = Vec::new();
                for win in xs.windows(2) {
                    let (x1, x2) = (win[0], win[1]);
                    while next < order.len() && blocks[order[next]].x_min() <= x1 {
                        active.push(order[next]);
                        next += 1;
                    }
                    active.retain(|&i| blocks[i].x_max() > x1);
                    intervals.clear();
                    for &i in &active {
                        let b = &blocks[i];
                        debug_assert!(b.x_min() <= x1 && b.x_max() >= x2, "strip cut missed");
                        let y1 = b.y_min().min(envelope.h);
                        let y2 = b.y_max().min(envelope.h);
                        if y1 < y2 {
                            intervals.push((y1, y2));
                        }
                    }
                    intervals.sort_unstable();
                    let mut merged: Vec<(Coord, Coord)> = Vec::with_capacity(intervals.len());
                    for &(y1, y2) in &*intervals {
                        match merged.last_mut() {
                            Some(last) if y1 <= last.1 => last.1 = last.1.max(y2),
                            _ => merged.push((y1, y2)),
                        }
                    }
                    covered.push(merged);
                }
                StripDecomposition {
                    envelope,
                    xs,
                    covered,
                }
            }

            /// Free (uncovered) y-intervals of strip `i`.
            fn free_intervals(&self, i: usize) -> Vec<(Coord, Coord)> {
                let mut free = Vec::new();
                let mut y = 0;
                for &(y1, y2) in &self.covered[i] {
                    if y < y1 {
                        free.push((y, y1));
                    }
                    y = y2;
                }
                if y < self.envelope.h {
                    free.push((y, self.envelope.h));
                }
                free
            }

            fn whitespace(&self) -> WhitespaceReport {
                // Free rectangles per strip, then union-find across adjacent
                // strips on positive-length y-overlap.
                let mut rects: Vec<PlacedRect> = Vec::new();
                let mut strip_of: Vec<usize> = Vec::new();
                let mut strip_start: Vec<usize> = Vec::with_capacity(self.covered.len() + 1);
                for i in 0..self.covered.len() {
                    strip_start.push(rects.len());
                    let (x1, x2) = (self.xs[i], self.xs[i + 1]);
                    for (y1, y2) in self.free_intervals(i) {
                        rects.push(PlacedRect::new(
                            Point::new(x1, y1),
                            Rect::new(x2 - x1, y2 - y1),
                        ));
                        strip_of.push(i);
                    }
                }
                strip_start.push(rects.len());

                let mut dsu = Dsu::new(rects.len());
                for i in 1..self.covered.len() {
                    // Two-pointer over the sorted free intervals of strips i-1, i.
                    let (mut a, mut b) = (strip_start[i - 1], strip_start[i]);
                    while a < strip_start[i] && b < strip_start[i + 1] {
                        let ra = &rects[a];
                        let rb = &rects[b];
                        if ra.y_min() < rb.y_max() && rb.y_min() < ra.y_max() {
                            dsu.union(a, b);
                        }
                        if ra.y_max() <= rb.y_max() {
                            a += 1;
                        } else {
                            b += 1;
                        }
                    }
                }

                let mut by_root: std::collections::HashMap<usize, Vec<PlacedRect>> =
                    std::collections::HashMap::new();
                for (idx, r) in rects.iter().enumerate() {
                    by_root.entry(dsu.find(idx)).or_default().push(*r);
                }
                let mut regions: Vec<DeadRegion> = by_root
                    .into_values()
                    .map(|rects| {
                        let area = rects.iter().map(PlacedRect::area).sum();
                        DeadRegion { rects, area }
                    })
                    .collect();
                // Largest first; deterministic tiebreak on the lower-left corner
                // (strip construction makes the first rect the region's leftmost
                // lowest).
                regions.sort_by(|a, b| {
                    b.area
                        .cmp(&a.area)
                        .then_with(|| a.rects[0].origin.cmp(&b.rects[0].origin))
                });
                let total = regions.iter().map(|r| r.area).sum();
                WhitespaceReport { regions, total }
            }

            /// Directed boundary edges of the covered union, interior on the
            /// left, stitched into closed rings.
            fn outlines(&self) -> Vec<Vec<Point>> {
                let mut edges: Vec<(Point, Point)> = Vec::new();
                let m = self.covered.len();
                let empty: Vec<(Coord, Coord)> = Vec::new();
                // Vertical edges at every strip boundary: segments covered on
                // exactly one side. Interior on the left walks up; on the right,
                // down.
                for i in 0..=m {
                    let x = if i < m { self.xs[i] } else { self.envelope.w };
                    let left = if i == 0 { &empty } else { &self.covered[i - 1] };
                    let right = if i == m { &empty } else { &self.covered[i] };
                    for (y1, y2) in interval_difference(left, right) {
                        edges.push((Point::new(x, y1), Point::new(x, y2))); // up
                    }
                    for (y1, y2) in interval_difference(right, left) {
                        edges.push((Point::new(x, y2), Point::new(x, y1))); // down
                    }
                }
                // Horizontal edges: each covered interval's bottom (interior
                // above, walk right) and top (interior below, walk left).
                for i in 0..m {
                    let (x1, x2) = (self.xs[i], self.xs[i + 1]);
                    for &(y1, y2) in &self.covered[i] {
                        edges.push((Point::new(x1, y1), Point::new(x2, y1)));
                        edges.push((Point::new(x2, y2), Point::new(x1, y2)));
                    }
                }
                stitch_rings(edges)
            }
        }

        /// Maximal segments of `a \ b` for two sorted disjoint interval lists.
        fn interval_difference(a: &[(Coord, Coord)], b: &[(Coord, Coord)]) -> Vec<(Coord, Coord)> {
            let mut out = Vec::new();
            let mut bi = 0usize;
            for &(mut y1, y2) in a {
                while y1 < y2 {
                    // Skip b-intervals entirely below y1.
                    while bi < b.len() && b[bi].1 <= y1 {
                        bi += 1;
                    }
                    match b.get(bi) {
                        Some(&(b1, b2)) if b1 < y2 => {
                            if y1 < b1 {
                                out.push((y1, b1));
                            }
                            y1 = b2.min(y2);
                        }
                        _ => {
                            out.push((y1, y2));
                            y1 = y2;
                        }
                    }
                }
                // A b-interval can straddle two a-intervals; step back so the
                // next a-interval re-examines it.
                bi = bi.saturating_sub(1);
            }
            out
        }

        /// Stitches directed boundary edges (interior on the left) into closed
        /// rings, resolving corner-touch vertices by always taking the
        /// left-most available turn; merges collinear corners.
        fn stitch_rings(edges: Vec<(Point, Point)>) -> Vec<Vec<Point>> {
            use std::collections::HashMap;
            let mut out_edges: HashMap<Point, Vec<usize>> = HashMap::new();
            for (idx, (from, _)) in edges.iter().enumerate() {
                out_edges.entry(*from).or_default().push(idx);
            }
            let mut used = vec![false; edges.len()];
            let mut rings = Vec::new();
            for start in 0..edges.len() {
                if used[start] {
                    continue;
                }
                let mut ring: Vec<Point> = Vec::new();
                let mut current = start;
                loop {
                    used[current] = true;
                    let (from, to) = edges[current];
                    ring.push(from);
                    if to == edges[start].0 {
                        break;
                    }
                    let incoming = direction(from, to);
                    let candidates = out_edges.get(&to).expect("boundary edges are closed");
                    // Left turn first, then straight, then right: keeps the
                    // interior-on-the-left invariant through corner-touches.
                    current = *candidates
                        .iter()
                        .filter(|&&e| !used[e])
                        .min_by_key(|&&e| turn_rank(incoming, direction(edges[e].0, edges[e].1)))
                        .expect("boundary edges are closed");
                }
                rings.push(merge_collinear(ring));
            }
            rings
        }

        fn merge_collinear(ring: Vec<Point>) -> Vec<Point> {
            let n = ring.len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let prev = ring[(i + n - 1) % n];
                let next = ring[(i + 1) % n];
                if direction(prev, ring[i]) != direction(ring[i], next) {
                    out.push(ring[i]);
                }
            }
            // Deterministic starting corner: rotate the cycle to its minimal point.
            if let Some(lead) = out
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| **p)
                .map(|(i, _)| i)
            {
                out.rotate_left(lead);
            }
            out
        }
    }

    /// Stray geometry: blocks that overlap, have zero width or height, or
    /// reach past the envelope; envelopes of zero width or height; and a
    /// pattern of squares on a 4×4 grid, which makes corner touches and
    /// enclosed holes.
    fn arb_stray_layout() -> impl Strategy<Value = (Rect, Vec<PlacedRect>)> {
        (
            0u64..20,
            0u64..20,
            proptest::collection::vec((0u64..24, 0u64..24, 0u64..9, 0u64..9), 0..12),
            (1u64..5, 0u64..(1 << 16)),
        )
            .prop_map(|(w, h, raw, (cell, mask))| {
                let mut blocks: Vec<PlacedRect> = raw
                    .into_iter()
                    .map(|(x, y, bw, bh)| pr(x, y, bw, bh))
                    .collect();
                for bit in 0..16 {
                    if mask >> bit & 1 == 1 {
                        blocks.push(pr((bit % 4) * cell, (bit / 4) * cell, cell, cell));
                    }
                }
                (Rect::new(w, h), blocks)
            })
    }

    fn assert_matches_oracle(envelope: Rect, blocks: &[PlacedRect]) {
        assert_eq!(
            polygonize(envelope, blocks),
            oracle::polygonize(envelope, blocks)
        );
        assert_eq!(
            whitespace(envelope, blocks),
            oracle::whitespace(envelope, blocks)
        );
    }

    proptest! {
        /// The flat-strip polygonizer returns exactly what the per-strip
        /// one did: the same regions, rects and order, the same rings,
        /// corners and order.
        #[test]
        fn differential_on_random_layouts((envelope, blocks) in arb_layout()) {
            assert_matches_oracle(envelope, &blocks);
        }

        /// The same on geometry no validated layout has.
        #[test]
        fn differential_on_stray_geometry((envelope, blocks) in arb_stray_layout()) {
            assert_matches_oracle(envelope, &blocks);
        }
    }

    /// A realized layout in this crate's types: fp-tree links its own
    /// build of fp-geom, so the rectangles are rebuilt field by field.
    fn blocks_of(layout: &fp_tree::layout::Layout) -> (Rect, Vec<PlacedRect>) {
        let envelope = Rect::new(layout.envelope.w, layout.envelope.h);
        let blocks = layout
            .placed
            .iter()
            .map(|(_, r)| pr(r.origin.x, r.origin.y, r.size.w, r.size.h))
            .collect();
        (envelope, blocks)
    }

    #[test]
    fn differential_on_paper_layouts() {
        use fp_optimizer::{OptimizeConfig, Optimizer};
        use fp_tree::generators;
        use fp_tree::layout::{realize, Assignment};

        for bench in generators::paper_benchmarks() {
            let library = generators::module_library(&bench.tree, 8, 7);
            let optimal = Optimizer::new(&bench.tree, &library)
                .config(&OptimizeConfig::default())
                .run_best()
                .expect("paper benchmark solves")
                .assignment;
            let first_fit = Assignment::first_fit(bench.tree.module_count());
            for assignment in [optimal, first_fit] {
                let layout = realize(&bench.tree, &library, &assignment).expect("realizes");
                let (envelope, blocks) = blocks_of(&layout);
                assert_matches_oracle(envelope, &blocks);
            }
        }
    }

    #[test]
    fn differential_on_fp5_10k_first_fit() {
        use fp_tree::layout::{realize, Assignment};
        use fp_tree::mega;

        let bench = mega::fp5();
        let library = mega::mega_library(&bench.tree, &mega::fp5_config());
        let first_fit = Assignment::first_fit(bench.tree.module_count());
        let layout = realize(&bench.tree, &library, &first_fit).expect("FP5-10k realizes");
        let (envelope, blocks) = blocks_of(&layout);
        assert_matches_oracle(envelope, &blocks);
    }
}
