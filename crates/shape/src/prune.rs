//! Dominance-pruning kernels: extract the non-redundant (Pareto-minimal)
//! subset of a candidate set.
//!
//! An implementation is *redundant* when it dominates another one (paper
//! Definition 2): it is at least as large in every measurement, so it can
//! never appear in an optimal floorplan that the smaller one could not also
//! produce. All kernels here are payload-preserving: they operate on
//! arbitrary items via a shape-key accessor so callers can carry provenance
//! (which child implementations produced each candidate) through the prune.

use fp_geom::{LShape, Rect};

use crate::ChainScratch;

/// Keeps the Pareto-minimal rectangles of `items`, i.e. removes every item
/// whose rectangle dominates another item's rectangle; exact duplicates are
/// collapsed to one.
///
/// The survivors are returned sorted by width descending / height ascending
/// — exactly the irreducible R-list order of paper Definition 4/5.
///
/// Runs in `O(n log n)`.
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::prune::pareto_min_rects_by;
///
/// let pruned = pareto_min_rects_by(
///     vec![(Rect::new(3, 3), 'a'), (Rect::new(4, 4), 'b'), (Rect::new(5, 2), 'c')],
///     |&(r, _)| r,
/// );
/// let names: Vec<char> = pruned.iter().map(|&(_, n)| n).collect();
/// assert_eq!(names, vec!['c', 'a']); // 'b' dominated 'a'; width-descending order
/// ```
pub fn pareto_min_rects_by<T>(mut items: Vec<T>, key: impl Fn(&T) -> Rect) -> Vec<T> {
    pareto_min_rects_in_place(&mut items, key);
    items
}

/// [`pareto_min_rects_by`] operating in place: `items` is reduced to its
/// Pareto-minimal subset (canonical width-descending order) without any
/// intermediate allocation — the sweep compacts survivors with `retain`.
/// This is the allocation-free kernel the join hot path uses on buffers
/// it owns or borrows from a [`crate::JoinScratch`].
pub fn pareto_min_rects_in_place<T>(items: &mut Vec<T>, key: impl Fn(&T) -> Rect) {
    // Sort by (w asc, h asc); sweep keeping a strictly decreasing minimum h.
    items.sort_by_key(|t| {
        let r = key(t);
        (r.w, r.h)
    });
    // Branch-light min tracking: one comparison per item instead of an
    // `Option` unwrap (the `first` flag keeps an initial `h == u64::MAX`
    // item alive, where a bare sentinel would drop it).
    let mut min_h = u64::MAX;
    let mut first = true;
    items.retain(|item| {
        let h = key(item).h;
        let keep = first | (h < min_h);
        first = false;
        min_h = if keep { h } else { min_h };
        keep
    });
    // (w asc, h desc) reversed gives the canonical R-list order.
    items.reverse();
}

/// [`pareto_min_rects_by`] for plain rectangles.
pub fn pareto_min_rects(items: Vec<Rect>) -> Vec<Rect> {
    pareto_min_rects_by(items, |&r| r)
}

/// Keeps the Pareto-minimal L-shapes of `items` under 4-dimensional
/// dominance (paper Definition 1); exact duplicates collapse to one.
///
/// The survivors are returned sorted by `(w2, w1 desc, h1, h2)`, which is the
/// grouping order [`crate::LListSet`] uses to carve irreducible L-lists.
///
/// Complexity: `O(n log n)` for the sort plus `O(n·f)` dominance checks
/// where `f` is the Pareto-front size. This is the plain reference kernel;
/// the join hot path prunes chain-structured blocks with
/// [`prune_l_block`] instead.
pub fn pareto_min_lshapes_by<T>(mut items: Vec<T>, key: impl Fn(&T) -> LShape) -> Vec<T> {
    // Sort by total size ascending so that any dominator of an item appears
    // after it; then each item only needs checking against already-kept
    // items (which can only dominate it if equal — handled by dedup) and
    // each kept item cannot be dominated by later ones except via >=.
    //
    // Concretely: sort by (w1+w2+h1+h2) ascending with a lexicographic
    // tiebreak; if a dominates b (componentwise >=) then sum(a) >= sum(b),
    // so dominators never precede their victims except as exact duplicates.
    items.sort_by_key(|t| {
        let l = key(t);
        (
            u128::from(l.w1) + u128::from(l.w2) + u128::from(l.h1) + u128::from(l.h2),
            l.as_tuple(),
        )
    });
    let mut kept: Vec<T> = Vec::new();
    'outer: for item in items {
        let l = key(&item);
        for k in &kept {
            if l.dominates(key(k)) {
                continue 'outer; // redundant (covers exact duplicates too)
            }
        }
        kept.push(item);
    }
    kept.sort_by_key(|t| {
        let l = key(t);
        (l.w2, core::cmp::Reverse(l.w1), l.h1, l.h2)
    });
    kept
}

/// [`pareto_min_lshapes_by`] for plain L-shapes.
pub fn pareto_min_lshapes(items: Vec<LShape>) -> Vec<LShape> {
    pareto_min_lshapes_by(items, |&l| l)
}

/// Removes every L-shape dominated by another **with the same `w2`**, in
/// `O(n log n)` — the reference for the first pass of [`prune_l_block`].
///
/// Within a fixed `w2`, dominance is 3-dimensional (`w1`, `h1`, `h2`); the
/// kernel sorts each group by `w1` and sweeps a 2-D staircase of minimal
/// `(h1, h2)` pairs. Cross-`w2` redundancy is *not* removed (use
/// [`pareto_min_lshapes_by`] for the full 4-D prune when affordable).
///
/// Survivors are returned in the canonical `(w2, w1 desc, h1, h2)` order
/// that [`crate::chain_indices`] expects.
pub fn pareto_min_lshapes_within_w2_by<T>(mut items: Vec<T>, key: impl Fn(&T) -> LShape) -> Vec<T> {
    // Sort groups together; within a group ascending w1 so that potential
    // dominators (smaller or equal w1) precede their victims.
    items.sort_by_key(|t| {
        let l = key(t);
        (l.w2, l.w1, l.h1, l.h2)
    });
    // Staircase of minimal (h1, h2) pairs for the current w2 group, sorted
    // by h1 ascending (h2 then strictly descending).
    let mut front: Vec<(u64, u64)> = Vec::new();
    let mut current_w2: Option<u64> = None;
    let mut write = 0usize;
    for read in 0..items.len() {
        let l = key(&items[read]);
        if current_w2 != Some(l.w2) {
            current_w2 = Some(l.w2);
            front.clear();
        }
        // Query: does the front contain (h1', h2') <= (h1, h2)?
        // The best candidate is the staircase point with the largest
        // h1' <= h1 (it has the smallest h2 among those).
        let idx = front.partition_point(|&(h1, _)| h1 <= l.h1);
        let dominated = idx > 0 && front[idx - 1].1 <= l.h2;
        if dominated {
            continue;
        }
        // Insert (h1, h2) into the staircase: drop the points it dominates
        // (h1' >= h1 and h2' >= h2), which form a contiguous run starting
        // at the first entry with h1' >= h1.
        let start = front.partition_point(|&(h1, _)| h1 < l.h1);
        let mut end = start;
        while end < front.len() && front[end].1 >= l.h2 {
            end += 1;
        }
        front.splice(start..end, [(l.h1, l.h2)]);
        items.swap(write, read);
        write += 1;
    }
    items.truncate(write);
    // Canonical output order.
    items.sort_by_key(|t| {
        let l = key(t);
        (l.w2, core::cmp::Reverse(l.w1), l.h1, l.h2)
    });
    items
}

/// Pass-1 survivor count above which [`prune_l_block`] answers its
/// cross-`w2` pass with the `w1`-ranked Fenwick index instead of the flat
/// front scan. Below it the scan's sequential compares beat the index's
/// rank sort and per-node binary searches; see DESIGN.md §14 for the
/// measurement behind the value.
pub const L_PRUNE_INDEX_CROSSOVER: usize = 256;

/// Reusable buffers for [`prune_l_block`]. A [`crate::JoinScratch`]
/// carries one, so a warmed prune allocates nothing.
#[derive(Debug, Default)]
pub struct LPruneScratch {
    /// `(w2, chain)` keys: the block's chains bucketed by `w2`.
    buckets: Vec<(u64, u32)>,
    /// Item indices of one multi-chain bucket, merged by `(w1, h1, h2)`.
    merged: Vec<u32>,
    /// Ping-pong partner of `merged`.
    merge_tmp: Vec<u32>,
    /// Run ends within `merged`, and their ping-pong partner.
    runs: Vec<u32>,
    runs_tmp: Vec<u32>,
    /// Pass-1 staircase of minimal `(h1, h2)` pairs.
    stair: Vec<(u64, u64)>,
    /// Survivors (block indices) in canonical `(w2, w1 desc, h1, h2)` order.
    kept: Vec<u32>,
    /// Flat pass-2 front: `(w1, h1, h2)` of earlier-group survivors.
    front: Front3,
    /// Sorted distinct `w1` of the pass-1 survivors (Fenwick ranks).
    ranks: Vec<u64>,
    /// Fenwick nodes over the `w1` rank, each an `(h1, h2)` staircase.
    fenwick: Vec<Vec<(u64, u64)>>,
    /// Re-chaining arena.
    chain: ChainScratch,
    /// Survivors gathered in chain order before they are written back.
    shapes: Vec<LShape>,
    prov: Vec<(u32, u32)>,
}

impl LPruneScratch {
    /// An empty arena; buffers grow to the working-set high-water mark.
    #[must_use]
    pub fn new() -> LPruneScratch {
        LPruneScratch::default()
    }
}

/// Full 4-D prune of an L-block as the wheel joins generate it, in place:
/// removes every implementation that dominates another (paper
/// Definition 2), leaves the survivors in canonical `(w2, w1 desc, h1,
/// h2)` order re-partitioned into irreducible chains, and returns how
/// many were removed. When nothing is removed the block — chains
/// included — is left untouched.
///
/// `chains` must be half-open spans covering `shapes` in order, each a
/// paper Definition 3 chain: one `w2`, `w1` strictly falling, `h1` and
/// `h2` never falling, consecutive members differing in a height. Every
/// wheel generator guarantees this (it is the monotonicity behind Lemmas
/// 2–3), and the kernel relies on it.
///
/// * **Pass 1** (same-`w2` dominance) buckets the chains by `w2`. A chain
///   alone in its bucket is already irreducible and is copied; the chains
///   of a larger bucket are merged by `(w1, h1, h2)` and swept against a
///   staircase of minimal `(h1, h2)` pairs.
/// * **Pass 2** (cross-`w2` dominance) runs only when at most
///   `cross_limit` items survive pass 1. It sweeps the survivors in
///   canonical order asking "does this item dominate a survivor with a
///   smaller `w2`?", a 3-D query on `(w1, h1, h2)`. Dominance
///   is transitive, so the index may hold every earlier survivor; and
///   after pass 1 no two items with equal `w2` are comparable, so an item
///   enters the index right after its own query. Blocks above
///   [`L_PRUNE_INDEX_CROSSOVER`] survivors use a `w1`-ranked Fenwick tree
///   of `(h1, h2)` staircases (a practical `O(n log² n)` form of
///   Kung–Luccio–Preparata's maxima algorithm); smaller ones scan a flat
///   front.
///
/// Exact duplicates (equal shapes, different provenance) keep the copy
/// that comes first in generation order, i.e. the lowest block index.
///
/// The survivor shapes, their order, the chain spans and the removed
/// count equal those of [`pareto_min_lshapes_within_w2_by`] followed (when
/// within `cross_limit`) by [`pareto_min_lshapes_by`] and
/// [`crate::chain_indices`].
pub fn prune_l_block(
    shapes: &mut Vec<LShape>,
    prov: &mut Vec<(u32, u32)>,
    chains: &mut Vec<(u32, u32)>,
    cross_limit: usize,
    scratch: &mut LPruneScratch,
) -> usize {
    debug_assert_eq!(shapes.len(), prov.len());
    debug_assert!(
        is_chain_block(shapes, chains),
        "prune_l_block needs Definition 3 chains covering the block in order"
    );
    let before = shapes.len();
    scratch.within_w2(shapes, chains);
    if scratch.kept.len() <= cross_limit {
        scratch.cross_w2(shapes);
    }
    let after = scratch.kept.len();
    if after == before {
        return 0;
    }
    scratch.rechain(shapes, prov, chains);
    before - after
}

/// `true` if `chains` are half-open spans that cover `shapes` in order,
/// each a paper Definition 3 chain: one `w2`, `w1` strictly falling, `h1`
/// and `h2` never falling, consecutive members differing in a height.
///
/// This is the structure [`prune_l_block`] and the wheel generators rely
/// on; callers that accept L-blocks from outside (a persisted cache, say)
/// check it before trusting them.
///
/// ```
/// use fp_geom::LShape;
/// use fp_shape::prune::is_chain_block;
///
/// let shapes = [
///     LShape::new(9, 3, 2, 1)?,
///     LShape::new(7, 3, 4, 2)?,
///     LShape::new(8, 5, 4, 4)?,
/// ];
/// assert!(is_chain_block(&shapes, &[(0, 2), (2, 3)]));
/// assert!(!is_chain_block(&shapes, &[(0, 3)])); // w2 changes mid-chain
/// assert!(!is_chain_block(&shapes, &[(0, 2)])); // the last one is uncovered
/// # Ok::<(), fp_geom::InvalidShapeError>(())
/// ```
#[must_use]
pub fn is_chain_block(shapes: &[LShape], chains: &[(u32, u32)]) -> bool {
    let mut next = 0u32;
    let covered = chains.iter().all(|&(s, e)| {
        let ok = s == next
            && s < e
            && e as usize <= shapes.len()
            && shapes[s as usize..e as usize].windows(2).all(|w| {
                w[0].w2 == w[1].w2
                    && w[0].w1 > w[1].w1
                    && w[0].h1 <= w[1].h1
                    && w[0].h2 <= w[1].h2
                    && (w[0].h1 < w[1].h1 || w[0].h2 < w[1].h2)
            });
        next = e;
        ok
    });
    covered && next as usize == shapes.len()
}

impl LPruneScratch {
    /// Pass 1: leaves the same-`w2` survivors in `kept`, canonical order.
    fn within_w2(&mut self, shapes: &[LShape], chains: &[(u32, u32)]) {
        self.kept.clear();
        self.buckets.clear();
        self.buckets.extend(
            chains
                .iter()
                .enumerate()
                .map(|(c, &(s, _))| (shapes[s as usize].w2, c as u32)),
        );
        // Keys are unique (chain index), so the unstable sort is
        // deterministic and buckets list their chains in block order.
        self.buckets.sort_unstable();
        let mut b = 0;
        while b < self.buckets.len() {
            let w2 = self.buckets[b].0;
            let mut e = b + 1;
            while e < self.buckets.len() && self.buckets[e].0 == w2 {
                e += 1;
            }
            if e == b + 1 {
                let (s, t) = chains[self.buckets[b].1 as usize];
                self.kept.extend(s..t);
            } else {
                self.merge_bucket(shapes, chains, b, e);
            }
            b = e;
        }
    }

    /// Pass 1 on one bucket of several chains (`buckets[b..e]`).
    fn merge_bucket(&mut self, shapes: &[LShape], chains: &[(u32, u32)], b: usize, e: usize) {
        // Each chain reversed is strictly ascending in (w1, h1, h2); a
        // stable merge of the runs, laid out in block order, sorts the
        // bucket with exact duplicates in generation order.
        self.merged.clear();
        self.runs.clear();
        for &(_, c) in &self.buckets[b..e] {
            let (s, t) = chains[c as usize];
            self.merged.extend((s..t).rev());
            self.runs.push(self.merged.len() as u32);
        }
        merge_runs(
            &mut self.merged,
            &mut self.merge_tmp,
            &mut self.runs,
            &mut self.runs_tmp,
            |i| {
                let l = shapes[i as usize];
                (l.w1, l.h1, l.h2)
            },
        );
        // Ascending sweep: an item is redundant iff an earlier one has
        // h1' <= h1 and h2' <= h2 (w1' <= w1 holds by the order); the
        // first of several exact duplicates is the one kept.
        self.stair.clear();
        let seg = self.kept.len();
        for &i in &self.merged {
            let l = shapes[i as usize];
            if stair_covers(&self.stair, l.h1, l.h2) {
                continue;
            }
            stair_insert(&mut self.stair, l.h1, l.h2);
            self.kept.push(i);
        }
        // Canonical order: w1 descending, then (h1, h2) ascending within
        // an equal-w1 run — reverse the bucket, then each such run.
        let seg = &mut self.kept[seg..];
        seg.reverse();
        let mut a = 0;
        while a < seg.len() {
            let w1 = shapes[seg[a] as usize].w1;
            let mut z = a + 1;
            while z < seg.len() && shapes[seg[z] as usize].w1 == w1 {
                z += 1;
            }
            seg[a..z].reverse();
            a = z;
        }
    }

    /// Pass 2: drops from `kept` every item that dominates a survivor
    /// with a smaller `w2`.
    fn cross_w2(&mut self, shapes: &[LShape]) {
        let (Some(&first), Some(&last)) = (self.kept.first(), self.kept.last()) else {
            return;
        };
        if shapes[first as usize].w2 == shapes[last as usize].w2 {
            return; // one w2 group: pass 1 already finished the job
        }
        if self.kept.len() > L_PRUNE_INDEX_CROSSOVER {
            self.cross_w2_indexed(shapes);
        } else {
            self.cross_w2_flat(shapes);
        }
    }

    /// Pass 2 for small blocks: each item is checked against a flat front
    /// of the survivors of the completed (smaller-`w2`) groups.
    fn cross_w2_flat(&mut self, shapes: &[LShape]) {
        self.front.clear();
        let mut write = 0;
        let mut group_start = 0;
        let mut group_w2 = shapes[self.kept[0] as usize].w2;
        for read in 0..self.kept.len() {
            let i = self.kept[read];
            let l = shapes[i as usize];
            if l.w2 != group_w2 {
                for &k in &self.kept[group_start..write] {
                    self.front.push(shapes[k as usize]);
                }
                group_start = write;
                group_w2 = l.w2;
            }
            if self.front.covers(l) {
                continue;
            }
            self.kept[write] = i;
            write += 1;
        }
        self.kept.truncate(write);
    }

    /// Pass 2 for large blocks: the same canonical-order sweep, with
    /// prefix queries on a Fenwick tree over the `w1` rank whose nodes
    /// hold `(h1, h2)` staircases. The prefix up to an item's rank holds
    /// exactly the earlier survivors with `w1' <= w1`.
    fn cross_w2_indexed(&mut self, shapes: &[LShape]) {
        self.ranks.clear();
        self.ranks
            .extend(self.kept.iter().map(|&i| shapes[i as usize].w1));
        self.ranks.sort_unstable();
        self.ranks.dedup();
        let m = self.ranks.len();
        if self.fenwick.len() <= m {
            self.fenwick.resize_with(m + 1, Vec::new);
        }
        for node in &mut self.fenwick[1..=m] {
            node.clear();
        }
        let mut write = 0;
        let mut group_w2 = None;
        // 1-based Fenwick position of the current w1. Within a w2 group
        // w1 only falls, so the position walks down from a binary search
        // at the group's head.
        let mut pos = 0;
        for read in 0..self.kept.len() {
            let i = self.kept[read];
            let l = shapes[i as usize];
            if group_w2 != Some(l.w2) {
                group_w2 = Some(l.w2);
                pos = self.ranks.partition_point(|&w| w <= l.w1);
            } else {
                while self.ranks[pos - 1] > l.w1 {
                    pos -= 1;
                }
            }
            let mut k = pos;
            while k > 0 && !stair_covers(&self.fenwick[k], l.h1, l.h2) {
                k &= k - 1;
            }
            if k > 0 {
                continue;
            }
            // Insert along the update path. Each node's range contains
            // the previous one's, so once a node already covers (h1, h2)
            // every later node does too.
            let mut k = pos;
            while k <= m && !stair_covers(&self.fenwick[k], l.h1, l.h2) {
                stair_insert(&mut self.fenwick[k], l.h1, l.h2);
                k += k & k.wrapping_neg();
            }
            self.kept[write] = i;
            write += 1;
        }
        self.kept.truncate(write);
    }

    /// Re-chains the survivors and writes them back into the block.
    fn rechain(
        &mut self,
        shapes: &mut Vec<LShape>,
        prov: &mut Vec<(u32, u32)>,
        chains: &mut Vec<(u32, u32)>,
    ) {
        self.chain.partition(&self.kept, |&i| shapes[i as usize]);
        self.shapes.clear();
        self.prov.clear();
        for &p in &self.chain.perm {
            let i = self.kept[p as usize] as usize;
            self.shapes.push(shapes[i]);
            self.prov.push(prov[i]);
        }
        shapes.clear();
        shapes.extend_from_slice(&self.shapes);
        prov.clear();
        prov.extend_from_slice(&self.prov);
        chains.clear();
        chains.extend_from_slice(&self.chain.spans);
    }
}

/// Stable bottom-up merge of the sorted runs of `items` (`runs` holds
/// their ends) by `key`, ping-ponging through `tmp`: equal keys keep the
/// order of their runs.
fn merge_runs<K: Ord>(
    items: &mut Vec<u32>,
    tmp: &mut Vec<u32>,
    runs: &mut Vec<u32>,
    runs_tmp: &mut Vec<u32>,
    key: impl Fn(u32) -> K,
) {
    while runs.len() > 1 {
        tmp.clear();
        runs_tmp.clear();
        let mut start = 0;
        for pair in runs.chunks(2) {
            let mid = pair[0] as usize;
            let end = pair.get(1).map_or(mid, |&e| e as usize);
            let (left, right) = (&items[start..mid], &items[mid..end]);
            let (mut i, mut j) = (0, 0);
            while i < left.len() && j < right.len() {
                if key(right[j]) < key(left[i]) {
                    tmp.push(right[j]);
                    j += 1;
                } else {
                    tmp.push(left[i]);
                    i += 1;
                }
            }
            tmp.extend_from_slice(&left[i..]);
            tmp.extend_from_slice(&right[j..]);
            runs_tmp.push(end as u32);
            start = end;
        }
        core::mem::swap(items, tmp);
        core::mem::swap(runs, runs_tmp);
    }
}

/// `true` if the `(h1 asc, h2 desc)` staircase holds a pair `<= (h1, h2)`.
/// The best candidate is the last pair with `h1' <= h1`: it has the
/// smallest `h2'` among those.
fn stair_covers(stair: &[(u64, u64)], h1: u64, h2: u64) -> bool {
    let idx = stair.partition_point(|&(a, _)| a <= h1);
    idx > 0 && stair[idx - 1].1 <= h2
}

/// Inserts `(h1, h2)` into a staircase that does not cover it, dropping
/// the pairs it covers (`h1' >= h1` and `h2' >= h2`): a contiguous run
/// starting at the first `h1' >= h1`.
fn stair_insert(stair: &mut Vec<(u64, u64)>, h1: u64, h2: u64) {
    let start = stair.partition_point(|&(a, _)| a < h1);
    let mut end = start;
    while end < stair.len() && stair[end].1 >= h2 {
        end += 1;
    }
    if end > start {
        stair[start] = (h1, h2);
        stair.drain(start + 1..end);
    } else {
        stair.insert(start, (h1, h2));
    }
}

/// A flat dominance front of `(w1, h1, h2)` triples in parallel arrays,
/// scanned with branch-light chunked compares.
#[derive(Debug, Default)]
struct Front3 {
    w1: Vec<u64>,
    h1: Vec<u64>,
    h2: Vec<u64>,
}

impl Front3 {
    fn clear(&mut self) {
        self.w1.clear();
        self.h1.clear();
        self.h2.clear();
    }

    fn push(&mut self, l: LShape) {
        self.w1.push(l.w1);
        self.h1.push(l.h1);
        self.h2.push(l.h2);
    }

    /// `true` if some member is `<= l` in `w1`, `h1` and `h2`.
    fn covers(&self, l: LShape) -> bool {
        const CHUNK: usize = 16;
        let n = self.w1.len();
        let (w1, h1, h2) = (&self.w1[..n], &self.h1[..n], &self.h2[..n]);
        let mut i = 0;
        while i < n {
            let end = (i + CHUNK).min(n);
            let mut any = false;
            for j in i..end {
                any |= (w1[j] <= l.w1) & (h1[j] <= l.h1) & (h2[j] <= l.h2);
            }
            if any {
                return true;
            }
            i = end;
        }
        false
    }
}

/// Returns `true` if no element of `items` dominates another (Definition 2
/// holds vacuously), checked by brute force. Intended for tests/debugging.
pub fn is_nonredundant_rects(items: &[Rect]) -> bool {
    for (i, a) in items.iter().enumerate() {
        for (j, b) in items.iter().enumerate() {
            if i != j && a.dominates(*b) {
                return false;
            }
        }
    }
    true
}

/// Brute-force non-redundancy check for L-shapes. Intended for tests.
pub fn is_nonredundant_lshapes(items: &[LShape]) -> bool {
    for (i, a) in items.iter().enumerate() {
        for (j, b) in items.iter().enumerate() {
            if i != j && a.dominates(*b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rect_prune_removes_dominated_and_duplicates() {
        let pruned = pareto_min_rects(vec![
            Rect::new(4, 4),
            Rect::new(4, 4),
            Rect::new(5, 5),
            Rect::new(2, 8),
            Rect::new(8, 2),
            Rect::new(8, 3),
        ]);
        assert_eq!(
            pruned,
            vec![Rect::new(8, 2), Rect::new(4, 4), Rect::new(2, 8)]
        );
    }

    #[test]
    fn rect_prune_empty_and_singleton() {
        assert!(pareto_min_rects(vec![]).is_empty());
        assert_eq!(
            pareto_min_rects(vec![Rect::new(1, 1)]),
            vec![Rect::new(1, 1)]
        );
    }

    #[test]
    fn rect_prune_keeps_payload() {
        let pruned = pareto_min_rects_by(
            vec![
                (Rect::new(3, 3), 10),
                (Rect::new(3, 4), 20),
                (Rect::new(1, 9), 30),
            ],
            |&(r, _)| r,
        );
        assert_eq!(pruned, vec![(Rect::new(3, 3), 10), (Rect::new(1, 9), 30)]);
    }

    fn l(w1: u64, w2: u64, h1: u64, h2: u64) -> LShape {
        LShape::new_canonical(w1, w2, h1, h2)
    }

    #[test]
    fn lshape_prune_keeps_incomparable_front() {
        let pruned = pareto_min_lshapes(vec![
            l(5, 2, 3, 1),
            l(4, 2, 4, 2),
            l(6, 3, 4, 2), // dominates (4,2,4,2)
            l(5, 2, 3, 1), // duplicate
        ]);
        assert_eq!(pruned.len(), 2);
        assert!(is_nonredundant_lshapes(&pruned));
        assert!(pruned.contains(&l(5, 2, 3, 1)));
        assert!(pruned.contains(&l(4, 2, 4, 2)));
    }

    #[test]
    fn lshape_prune_output_order_groups_by_w2() {
        let pruned = pareto_min_lshapes(vec![
            l(9, 3, 2, 1),
            l(8, 2, 3, 2),
            l(7, 3, 3, 2),
            l(9, 2, 2, 1),
        ]);
        // Groups: w2 == 2 first (w1 desc), then w2 == 3.
        let w2s: Vec<u64> = pruned.iter().map(|x| x.w2).collect();
        let mut sorted_w2s = w2s.clone();
        sorted_w2s.sort_unstable();
        assert_eq!(w2s, sorted_w2s);
        for win in pruned.windows(2) {
            if win[0].w2 == win[1].w2 {
                assert!(win[0].w1 >= win[1].w1);
            }
        }
    }

    fn arb_rects() -> impl Strategy<Value = Vec<Rect>> {
        proptest::collection::vec(
            (1u64..50, 1u64..50).prop_map(|(w, h)| Rect::new(w, h)),
            0..60,
        )
    }

    fn arb_lshapes() -> impl Strategy<Value = Vec<LShape>> {
        proptest::collection::vec(
            (1u64..20, 1u64..20, 1u64..20, 1u64..20)
                .prop_map(|(a, b, c, d)| l(a.max(b), a.min(b), c.max(d), c.min(d))),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn rect_prune_is_nonredundant_and_minimal(items in arb_rects()) {
            let pruned = pareto_min_rects(items.clone());
            prop_assert!(is_nonredundant_rects(&pruned));
            // Every input is dominated by (or equal to) something kept --
            // wait: minimal elements are *dominated by* inputs; every input
            // must dominate some kept element.
            for r in &items {
                prop_assert!(pruned.iter().any(|p| r.dominates(*p)), "{r:?} lost");
            }
            // Every kept element was an input.
            for p in &pruned {
                prop_assert!(items.contains(p));
            }
            // Canonical order.
            for w in pruned.windows(2) {
                prop_assert!(w[0].w > w[1].w && w[0].h < w[1].h);
            }
        }

        #[test]
        fn rect_prune_idempotent(items in arb_rects()) {
            let once = pareto_min_rects(items);
            let twice = pareto_min_rects(once.clone());
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn lshape_prune_is_nonredundant_and_minimal(items in arb_lshapes()) {
            let pruned = pareto_min_lshapes(items.clone());
            prop_assert!(is_nonredundant_lshapes(&pruned));
            for x in &items {
                prop_assert!(pruned.iter().any(|p| x.dominates(*p)), "{x:?} lost");
            }
            for p in &pruned {
                prop_assert!(items.contains(p));
            }
        }

        #[test]
        fn lshape_prune_idempotent(items in arb_lshapes()) {
            let once = pareto_min_lshapes(items);
            let twice = pareto_min_lshapes(once.clone());
            prop_assert_eq!(once, twice);
        }

        /// The within-w2 kernel removes exactly the same-w2 redundancies.
        #[test]
        fn within_w2_prune_matches_reference(items in arb_lshapes()) {
            let mut got = pareto_min_lshapes_within_w2_by(items.clone(), |&l| l);
            // Reference: an item survives iff no *same-w2* item dominates
            // it (first occurrence wins among duplicates).
            let mut reference: Vec<LShape> = Vec::new();
            for (i, a) in items.iter().enumerate() {
                let redundant = items.iter().enumerate().any(|(j, b)| {
                    j != i && a.w2 == b.w2 && a.dominates(*b) && (a != b || j < i)
                });
                if !redundant && !reference.contains(a) {
                    reference.push(*a);
                }
            }
            got.sort_by_key(|l| l.as_tuple());
            reference.sort_by_key(|l| l.as_tuple());
            prop_assert_eq!(got, reference);
        }

        /// The grouped prune output feeds chain_indices directly.
        #[test]
        fn within_w2_prune_output_is_chainable(items in arb_lshapes()) {
            let got = pareto_min_lshapes_within_w2_by(items, |&l| l);
            let chains = crate::chain_indices(&got);
            let total: usize = chains.iter().map(Vec::len).sum();
            prop_assert_eq!(total, got.len());
        }

        /// Cross-check against an O(n^2) reference implementation.
        #[test]
        fn lshape_prune_matches_reference(items in arb_lshapes()) {
            let mut reference: Vec<LShape> = Vec::new();
            for (i, a) in items.iter().enumerate() {
                let redundant = items.iter().enumerate().any(|(j, b)| {
                    j != i && a.dominates(*b) && (a != b || j < i)
                });
                if !redundant && !reference.contains(a) {
                    reference.push(*a);
                }
            }
            let mut pruned = pareto_min_lshapes(items);
            pruned.sort_by_key(|l| l.as_tuple());
            reference.sort_by_key(|l| l.as_tuple());
            prop_assert_eq!(pruned, reference);
        }
    }
}
