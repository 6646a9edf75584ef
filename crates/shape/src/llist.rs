//! Irreducible L-lists and L-list sets (paper Definitions 3 and 5).

use core::fmt;
use core::ops::Index;

use fp_geom::{Area, LShape};

use crate::prune::pareto_min_lshapes;

/// An irreducible L-list: a chain of non-redundant L-shape implementations
/// sharing a common top-edge width `w2`, with `w1` strictly decreasing and
/// `h1`, `h2` non-decreasing (paper Definition 3), containing no redundant
/// implementation (Definition 5).
///
/// The monotone structure is what makes the DAC'92 `L_Selection` algorithm
/// work: Lemma 2 (distances grow with list separation) and Lemma 3 (the
/// nearest kept implementation is a list neighbour) both rely on it.
///
/// # Example
///
/// ```
/// use fp_geom::LShape;
/// use fp_shape::LList;
///
/// let list = LList::from_sorted(vec![
///     LShape::new(9, 3, 2, 1)?,
///     LShape::new(7, 3, 4, 2)?,
///     LShape::new(5, 3, 5, 4)?,
/// ]).expect("a valid chain");
/// assert_eq!(list.w2(), Some(3));
/// # Ok::<(), fp_geom::InvalidShapeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LList {
    items: Vec<LShape>,
}

impl LList {
    /// An empty L-list.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        LList { items: Vec::new() }
    }

    /// Wraps a vector that is already an irreducible L-list.
    ///
    /// # Errors
    ///
    /// Returns the vector back unless all elements share one `w2`, `w1` is
    /// strictly decreasing, `h1` and `h2` are non-decreasing, and no element
    /// dominates another (equivalently: each step changes at least one of
    /// `h1`, `h2`).
    pub fn from_sorted(items: Vec<LShape>) -> Result<Self, Vec<LShape>> {
        let ok = items.windows(2).all(|w| {
            w[0].w2 == w[1].w2
                && w[0].w1 > w[1].w1
                && w[0].h1 <= w[1].h1
                && w[0].h2 <= w[1].h2
                && (w[0].h1 < w[1].h1 || w[0].h2 < w[1].h2)
        });
        if ok {
            Ok(LList { items })
        } else {
            Err(items)
        }
    }

    /// Number of implementations in the list.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the list is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The common top-edge width `w2`, if the list is non-empty.
    #[inline]
    #[must_use]
    pub fn w2(&self) -> Option<u64> {
        self.items.first().map(|l| l.w2)
    }

    /// The implementations in chain order (`w1` descending).
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[LShape] {
        &self.items
    }

    /// Borrowing iterator over the implementations in chain order.
    #[inline]
    pub fn iter(&self) -> core::slice::Iter<'_, LShape> {
        self.items.iter()
    }

    /// Consumes the list, returning the underlying vector.
    #[inline]
    #[must_use]
    pub fn into_vec(self) -> Vec<LShape> {
        self.items
    }

    /// The implementation at `index`, if in range.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<LShape> {
        self.items.get(index).copied()
    }

    /// The minimum-area implementation in this list.
    #[must_use]
    pub fn min_area(&self) -> Option<LShape> {
        self.items
            .iter()
            .copied()
            .min_by_key(|l| (l.area(), l.as_tuple()))
    }

    /// Keeps only the implementations at the given **sorted** positions;
    /// any subsequence of a chain is still an irreducible L-list.
    ///
    /// This is the primitive `L_Selection` uses to apply its optimal subset.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not strictly increasing or contains an
    /// out-of-range index.
    #[must_use]
    pub fn subset(&self, positions: &[usize]) -> LList {
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be strictly increasing"
        );
        let items = positions.iter().map(|&i| self.items[i]).collect();
        LList { items }
    }
}

impl fmt::Debug for LList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.items).finish()
    }
}

impl fmt::Display for LList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LList[")?;
        for (i, l) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for LList {
    type Output = LShape;

    fn index(&self, index: usize) -> &LShape {
        &self.items[index]
    }
}

impl<'a> IntoIterator for &'a LList {
    type Item = &'a LShape;
    type IntoIter = core::slice::Iter<'a, LShape>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl IntoIterator for LList {
    type Item = LShape;
    type IntoIter = std::vec::IntoIter<LShape>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// The complete non-redundant implementation set of an L-shaped block,
/// stored as a set of irreducible [`LList`] chains (paper §3).
///
/// The partition is canonical in its grouping (every chain has one `w2`)
/// but chains within a `w2` group come from a greedy best-fit chain
/// decomposition; the paper only requires *some* partition into irreducible
/// L-lists.
///
/// # Example
///
/// ```
/// use fp_geom::LShape;
/// use fp_shape::LListSet;
///
/// let set = LListSet::from_candidates(vec![
///     LShape::new(9, 3, 2, 1)?,
///     LShape::new(7, 3, 4, 2)?,
///     LShape::new(9, 2, 3, 1)?,
///     LShape::new(10, 3, 2, 1)?, // dominates (9, 3, 2, 1): pruned
/// ]);
/// assert_eq!(set.total_len(), 3);
/// assert_eq!(set.lists().len(), 2); // one chain for w2 == 2, one for w2 == 3
/// # Ok::<(), fp_geom::InvalidShapeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LListSet {
    lists: Vec<LList>,
}

impl LListSet {
    /// An empty set.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        LListSet { lists: Vec::new() }
    }

    /// Builds the set from arbitrary candidates: prunes redundant
    /// implementations, groups by `w2`, and decomposes each group into
    /// irreducible chains.
    #[must_use]
    pub fn from_candidates(candidates: Vec<LShape>) -> Self {
        let pruned = pareto_min_lshapes(candidates);
        let lists = chain_indices(&pruned)
            .into_iter()
            .map(|idxs| LList {
                items: idxs.into_iter().map(|i| pruned[i]).collect(),
            })
            .collect();
        LListSet { lists }
    }

    /// Assembles a set from lists that are already irreducible L-lists
    /// (e.g. the outputs of per-list selection). Empty lists are dropped.
    ///
    /// The lists are taken as-is: no cross-list re-pruning happens, matching
    /// the paper's treatment where selection operates per list.
    #[must_use]
    pub fn from_lists(lists: Vec<LList>) -> Self {
        LListSet {
            lists: lists.into_iter().filter(|l| !l.is_empty()).collect(),
        }
    }

    /// The chains of the partition.
    #[inline]
    #[must_use]
    pub fn lists(&self) -> &[LList] {
        &self.lists
    }

    /// Total number of implementations across all chains.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.lists.iter().map(LList::len).sum()
    }

    /// `true` if the block has no implementation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Iterator over every implementation in the set.
    pub fn iter(&self) -> impl Iterator<Item = &LShape> {
        self.lists.iter().flat_map(LList::iter)
    }

    /// The minimum-area implementation across all chains.
    #[must_use]
    pub fn min_area(&self) -> Option<LShape> {
        self.iter()
            .copied()
            .min_by_key(|l| (l.area(), l.as_tuple()))
    }

    /// The minimum area value across all chains.
    #[must_use]
    pub fn min_area_value(&self) -> Option<Area> {
        self.min_area().map(|l| l.area())
    }
}

/// Decomposes a non-redundant L-shape slice into irreducible L-list chains,
/// returning the *indices* of each chain's members so callers can carry
/// per-implementation payloads (e.g. provenance) alongside.
///
/// `pruned` must be sorted the way [`crate::prune::pareto_min_lshapes`]
/// returns it — grouped by `w2`, then `w1` descending, then `h1`, `h2`
/// ascending — and must contain no redundant implementation. The greedy
/// best-fit decomposition (open-chain tails kept as a staircase, giving
/// `O(m log m)` per group plus tail updates) yields *some* valid partition
/// into chains — not necessarily the minimum number; the paper only
/// requires a partition.
///
/// # Panics
///
/// Panics (in debug builds) if `pruned` is not in the expected order.
#[must_use]
pub fn chain_indices(pruned: &[LShape]) -> Vec<Vec<usize>> {
    debug_assert!(
        pruned
            .windows(2)
            .all(|w| (w[0].w2, core::cmp::Reverse(w[0].w1), w[0].h1, w[0].h2)
                <= (w[1].w2, core::cmp::Reverse(w[1].w1), w[1].h1, w[1].h2)),
        "chain_indices requires prune output order"
    );
    let mut chains: Vec<Vec<usize>> = Vec::new();
    let mut group_start = 0;
    // Per group, open-chain tails are kept as a staircase over (h1, h2):
    // h1 strictly ascending, h2 strictly descending, so the acceptance
    // query "is there a tail with h1 <= x.h1 and h2 <= x.h2?" is a binary
    // search (the best candidate is the largest h1 <= x.h1 — it has the
    // smallest h2 among those). Appending replaces the tail in place.
    //
    // Ties in w1 need no special handling: within a non-redundant group,
    // equal-w1 elements have anti-sorted (h1 asc, h2 desc) heights, so an
    // earlier same-w1 element's tail never accepts a later one.
    let mut tails: Vec<(u64, u64, usize)> = Vec::new(); // (h1, h2, chain index)
    while group_start < pruned.len() {
        let w2 = pruned[group_start].w2;
        let group_end = group_start
            + pruned[group_start..]
                .iter()
                .take_while(|l| l.w2 == w2)
                .count();
        tails.clear();
        for (i, l) in pruned.iter().enumerate().take(group_end).skip(group_start) {
            let idx = tails.partition_point(|&(h1, _, _)| h1 <= l.h1);
            let accepted = idx > 0 && tails[idx - 1].1 <= l.h2 && {
                // A tail equal to (h1, h2) could come from an equal-w1
                // element; dominance-freedom guarantees w1 differs when
                // heights are comparable, so the strict-w1 condition of
                // Definition 3 holds automatically except for exact height
                // ties with equal w1 — impossible among non-redundant
                // same-w2 elements.
                let chain = tails[idx - 1].2;
                let last = pruned[*chains[chain].last().expect("non-empty chain")];
                last.w1 > l.w1
            };
            if accepted {
                let (_, _, chain) = tails.remove(idx - 1);
                chains[chain].push(i);
                // Reinsert the updated tail, dropping tails it dominates.
                insert_tail(&mut tails, (l.h1, l.h2, chain));
            } else {
                chains.push(vec![i]);
                insert_tail(&mut tails, (l.h1, l.h2, chains.len() - 1));
            }
        }
        group_start = group_end;
    }
    chains
}

/// Reusable arena for the allocation-free flavour of [`chain_indices`].
///
/// [`chain_indices`] allocates one `Vec` per chain, which dominates its
/// cost when it runs once per wheel join on lists of a few dozen
/// elements. `ChainScratch::partition` computes the *same* chains in the
/// same order, but threads members through a flat `next`-link array and
/// emits them as one concatenated index permutation plus per-chain
/// spans; with a reused scratch the whole decomposition allocates
/// nothing in steady state.
#[derive(Debug, Default)]
pub struct ChainScratch {
    /// Open-chain tails, `(h1, h2, chain)` staircase (see [`chain_indices`]).
    tails: Vec<(u64, u64, usize)>,
    /// First member index of each chain, in chain-creation order.
    head: Vec<u32>,
    /// Last member index of each chain (the append target).
    last: Vec<u32>,
    /// Successor links: `next[i]` is the next member of `i`'s chain.
    next: Vec<u32>,
    /// Output: member indices concatenated chain by chain.
    pub perm: Vec<u32>,
    /// Output: half-open `perm` spans, one per chain in creation order.
    pub spans: Vec<(u32, u32)>,
}

/// `next`-link sentinel: no successor.
const NO_NEXT: u32 = u32::MAX;

impl ChainScratch {
    /// An empty arena; buffers grow to the working-set high-water mark.
    #[must_use]
    pub fn new() -> ChainScratch {
        ChainScratch::default()
    }

    /// Decomposes `items` (whose keys must be in [`crate::prune`] output
    /// order, non-redundant — the same precondition as
    /// [`chain_indices`]) into irreducible chains, leaving the member
    /// permutation in `self.perm` and the chain spans in `self.spans`.
    /// Chains and member order are identical to [`chain_indices`].
    pub fn partition<T>(&mut self, items: &[T], key: impl Fn(&T) -> LShape) {
        debug_assert!(
            items
                .windows(2)
                .map(|w| (key(&w[0]), key(&w[1])))
                .all(|(a, b)| (a.w2, core::cmp::Reverse(a.w1), a.h1, a.h2)
                    <= (b.w2, core::cmp::Reverse(b.w1), b.h1, b.h2)),
            "chain partition requires prune output order"
        );
        self.head.clear();
        self.last.clear();
        self.next.clear();
        self.next.resize(items.len(), NO_NEXT);
        let mut group_start = 0;
        while group_start < items.len() {
            let w2 = key(&items[group_start]).w2;
            let group_end = group_start
                + items[group_start..]
                    .iter()
                    .take_while(|t| key(t).w2 == w2)
                    .count();
            // A group that is already one chain (w1 strictly falling,
            // heights never falling) is what the greedy below would
            // build from it: link it straight through.
            let group = &items[group_start..group_end];
            if group.windows(2).all(|w| {
                let (a, b) = (key(&w[0]), key(&w[1]));
                a.w1 > b.w1 && a.h1 <= b.h1 && a.h2 <= b.h2
            }) {
                for i in group_start..group_end - 1 {
                    self.next[i] = i as u32 + 1;
                }
                self.head.push(group_start as u32);
                self.last.push(group_end as u32 - 1);
                group_start = group_end;
                continue;
            }
            self.tails.clear();
            for (i, t) in items.iter().enumerate().take(group_end).skip(group_start) {
                let l = key(t);
                let idx = self.tails.partition_point(|&(h1, _, _)| h1 <= l.h1);
                let accepted = idx > 0 && self.tails[idx - 1].1 <= l.h2 && {
                    // Strict-w1 acceptance, exactly as in chain_indices.
                    let chain = self.tails[idx - 1].2;
                    key(&items[self.last[chain] as usize]).w1 > l.w1
                };
                if accepted {
                    let (_, _, chain) = self.tails.remove(idx - 1);
                    self.next[self.last[chain] as usize] = i as u32;
                    self.last[chain] = i as u32;
                    insert_tail(&mut self.tails, (l.h1, l.h2, chain));
                } else {
                    self.head.push(i as u32);
                    self.last.push(i as u32);
                    insert_tail(&mut self.tails, (l.h1, l.h2, self.head.len() - 1));
                }
            }
            group_start = group_end;
        }
        self.perm.clear();
        self.spans.clear();
        for &first in &self.head {
            let start = self.perm.len() as u32;
            let mut j = first;
            while j != NO_NEXT {
                self.perm.push(j);
                j = self.next[j as usize];
            }
            self.spans.push((start, self.perm.len() as u32));
        }
    }
}

/// Inserts a tail into the (h1 asc, h2 desc) staircase, removing tails the
/// newcomer dominates (those chains simply stop accepting appends, which
/// is sound — any partition into valid chains is acceptable).
fn insert_tail(tails: &mut Vec<(u64, u64, usize)>, tail: (u64, u64, usize)) {
    let (h1, h2, _) = tail;
    // Is the newcomer itself dominated? Then it is never preferable as an
    // append target; keep it out of the staircase (its chain just closes).
    let idx = tails.partition_point(|&(t1, _, _)| t1 <= h1);
    if idx > 0 && tails[idx - 1].1 <= h2 && (tails[idx - 1].0, tails[idx - 1].1) != (h1, h2) {
        return;
    }
    // Remove tails dominated by the newcomer (h1' >= h1 && h2' >= h2):
    // they form a contiguous run starting at the first h1' >= h1.
    let start = tails.partition_point(|&(t1, _, _)| t1 < h1);
    let mut end = start;
    while end < tails.len() && tails[end].1 >= h2 {
        end += 1;
    }
    tails.splice(start..end, [tail]);
}

impl fmt::Debug for LListSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LListSet")
            .field("lists", &self.lists)
            .field("total", &self.total_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::is_nonredundant_lshapes;
    use proptest::prelude::*;

    fn l(w1: u64, w2: u64, h1: u64, h2: u64) -> LShape {
        LShape::new_canonical(w1, w2, h1, h2)
    }

    #[test]
    fn from_sorted_validates_chain_invariants() {
        assert!(LList::from_sorted(vec![l(9, 3, 2, 1), l(7, 3, 4, 2)]).is_ok());
        // mixed w2
        assert!(LList::from_sorted(vec![l(9, 3, 2, 1), l(7, 2, 4, 2)]).is_err());
        // w1 not strictly decreasing
        assert!(LList::from_sorted(vec![l(9, 3, 2, 1), l(9, 3, 4, 2)]).is_err());
        // h decreasing
        assert!(LList::from_sorted(vec![l(9, 3, 4, 2), l(7, 3, 2, 1)]).is_err());
        // dominated pair (identical h's)
        assert!(LList::from_sorted(vec![l(9, 3, 4, 2), l(7, 3, 4, 2)]).is_err());
        assert!(LList::from_sorted(vec![]).is_ok());
        assert!(LList::from_sorted(vec![l(5, 2, 3, 1)]).is_ok());
    }

    #[test]
    fn subset_preserves_chain() {
        let list = LList::from_sorted(vec![
            l(9, 3, 2, 1),
            l(8, 3, 3, 1),
            l(7, 3, 4, 2),
            l(5, 3, 5, 4),
        ])
        .unwrap();
        let sub = list.subset(&[0, 2, 3]);
        assert!(LList::from_sorted(sub.clone().into_vec()).is_ok());
        assert_eq!(sub.len(), 3);
        assert_eq!(sub[1], l(7, 3, 4, 2));
    }

    #[test]
    fn set_groups_by_w2() {
        let set = LListSet::from_candidates(vec![
            l(9, 3, 2, 1),
            l(7, 3, 4, 2),
            l(9, 2, 3, 1),
            l(6, 2, 5, 3),
        ]);
        assert_eq!(set.lists().len(), 2);
        assert_eq!(set.total_len(), 4);
        for chain in set.lists() {
            assert!(LList::from_sorted(chain.as_slice().to_vec()).is_ok());
        }
    }

    #[test]
    fn set_splits_incomparable_heights_into_chains() {
        // Same w2 and w1 strictly decreasing, but h-pairs zig-zag: cannot be
        // a single chain.
        let set = LListSet::from_candidates(vec![l(9, 2, 5, 1), l(8, 2, 4, 2), l(7, 2, 3, 3)]);
        assert_eq!(set.total_len(), 3);
        assert!(set.lists().len() >= 2);
        for chain in set.lists() {
            assert!(LList::from_sorted(chain.as_slice().to_vec()).is_ok());
        }
    }

    #[test]
    fn set_min_area() {
        let set = LListSet::from_candidates(vec![l(9, 3, 2, 1), l(4, 2, 5, 3)]);
        // areas: 9*1 + 3*1 = 12 vs 4*3 + 2*2 = 16
        assert_eq!(set.min_area_value(), Some(12));
        assert_eq!(LListSet::new().min_area(), None);
    }

    #[test]
    fn from_lists_drops_empties() {
        let set = LListSet::from_lists(vec![
            LList::new(),
            LList::from_sorted(vec![l(5, 2, 3, 1)]).unwrap(),
        ]);
        assert_eq!(set.lists().len(), 1);
    }

    fn arb_lshapes() -> impl Strategy<Value = Vec<LShape>> {
        proptest::collection::vec(
            (1u64..15, 1u64..15, 1u64..15, 1u64..15)
                .prop_map(|(a, b, c, d)| l(a.max(b), a.min(b), c.max(d), c.min(d))),
            0..50,
        )
    }

    proptest! {
        /// The set partitions exactly the non-redundant candidates into
        /// valid irreducible chains.
        #[test]
        fn set_partition_is_valid_and_complete(items in arb_lshapes()) {
            let set = LListSet::from_candidates(items.clone());
            let mut collected: Vec<LShape> = set.iter().copied().collect();
            prop_assert!(is_nonredundant_lshapes(&collected));
            for chain in set.lists() {
                prop_assert!(LList::from_sorted(chain.as_slice().to_vec()).is_ok());
            }
            // Same content as the raw prune.
            let mut reference = crate::prune::pareto_min_lshapes(items);
            collected.sort_by_key(|x| x.as_tuple());
            reference.sort_by_key(|x| x.as_tuple());
            prop_assert_eq!(collected, reference);
        }
    }
}
