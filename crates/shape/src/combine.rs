//! Slicing combinations of R-lists: the classic Stockmeyer merge.
//!
//! When two rectangular blocks are composed by a slice cut, the combined
//! block's non-redundant implementations can be enumerated in linear time by
//! walking both staircases in lockstep (L. Stockmeyer, *Optimal orientations
//! of cells in slicing floorplan designs*, Information & Control 57, 1983).
//! This module implements that merge with provenance: each output records
//! which implementation of each child produced it, which the optimizer needs
//! to reconstruct a final floorplan.

use fp_geom::Rect;

use crate::scratch::JoinScratch;
use crate::RList;

/// How two blocks are composed by a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compose {
    /// Side by side (a vertical cut line): widths add, heights max.
    Beside,
    /// One on top of the other (a horizontal cut line): heights add,
    /// widths max.
    Stack,
}

impl Compose {
    /// Composes two child implementations into the parent implementation.
    #[inline]
    #[must_use]
    pub fn apply(self, a: Rect, b: Rect) -> Rect {
        match self {
            Compose::Beside => Rect::new(a.w + b.w, a.h.max(b.h)),
            Compose::Stack => Rect::new(a.w.max(b.w), a.h + b.h),
        }
    }
}

/// A combined implementation together with the indices of the child
/// implementations that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedRect {
    /// The parent implementation.
    pub rect: Rect,
    /// Index into the first child's R-list.
    pub left: usize,
    /// Index into the second child's R-list.
    pub right: usize,
}

/// Merges two irreducible R-lists under the given composition, returning
/// the irreducible result (width descending) with provenance.
///
/// Runs in `O(n + m)`: only the `n + m - 1` lockstep candidates can be
/// non-redundant, and a final staircase prune removes ties.
///
/// Returns an empty vector if either child has no implementation.
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::combine::{combine_with_provenance, Compose};
/// use fp_shape::RList;
///
/// let a = RList::from_candidates(vec![Rect::new(4, 2), Rect::new(2, 3)]);
/// let b = RList::from_candidates(vec![Rect::new(3, 3), Rect::new(1, 5)]);
/// let stacked = combine_with_provenance(&a, &b, Compose::Stack);
/// assert!(stacked.iter().all(|c| c.rect == Compose::Stack.apply(a[c.left], b[c.right])));
/// ```
#[must_use]
pub fn combine_with_provenance(a: &RList, b: &RList, how: Compose) -> Vec<CombinedRect> {
    let mut scratch = JoinScratch::new();
    let _ = combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch);
    scratch.combined
}

/// [`combine_with_provenance`] against a reusable [`JoinScratch`]: the
/// merge runs entirely inside the arena's buffers (rotated staircases,
/// candidate vector, in-place prune) and returns the irreducible result
/// as a borrow of the arena. On a warmed arena whose buffers have grown
/// to the working-set size, the call performs **zero** heap allocations
/// — the property the allocation-count test in `crates/shape/tests`
/// pins down.
///
/// The children are borrowed as slices, so callers that keep many lists
/// in shared columns can merge them in place; each slice must be an
/// irreducible R-list (width strictly decreasing, height strictly
/// increasing), as [`RList::as_slice`] returns.
pub fn combine_with_provenance_scratch<'s>(
    a: &[Rect],
    b: &[Rect],
    how: Compose,
    scratch: &'s mut JoinScratch,
) -> &'s [CombinedRect] {
    scratch.combined.clear();
    if a.is_empty() || b.is_empty() {
        return &scratch.combined;
    }
    match how {
        Compose::Stack => {
            stack_candidates_into(a, b, &mut scratch.combined);
        }
        Compose::Beside => {
            // Mirror of the stacked walk with the axes swapped: walk from the
            // tallest (narrowest) end pairing by height.
            scratch.rects_a.clear();
            scratch.rects_a.extend(a.iter().rev().map(|r| r.rotated()));
            scratch.rects_b.clear();
            scratch.rects_b.extend(b.iter().rev().map(|r| r.rotated()));
            stack_candidates_into(&scratch.rects_a, &scratch.rects_b, &mut scratch.combined);
            let n = scratch.rects_a.len();
            let m = scratch.rects_b.len();
            for c in &mut scratch.combined {
                c.rect = c.rect.rotated();
                c.left = n - 1 - c.left;
                c.right = m - 1 - c.right;
            }
        }
    }
    // The lockstep walk over two strict staircases emits strictly
    // decreasing max-width and strictly increasing summed height, so the
    // output is *already* an irreducible staircase — in stack order for
    // `Stack`, reversed for `Beside` (the rotation flips the axes). The
    // old sort-based prune here was a no-op transformation; a reverse is
    // all `Beside` needs to restore canonical width-descending order.
    if matches!(how, Compose::Beside) {
        scratch.combined.reverse();
    }
    debug_assert!(
        scratch
            .combined
            .windows(2)
            .all(|w| w[0].rect.w > w[1].rect.w && w[0].rect.h < w[1].rect.h),
        "lockstep merge output is not a strict staircase"
    );
    &scratch.combined
}

/// Lockstep walk for `Stack` over width-descending staircases: pair the two
/// widest implementations, then narrow whichever child currently determines
/// the maximum width. Appends into `out` (assumed cleared by the caller).
fn stack_candidates_into(a: &[Rect], b: &[Rect], out: &mut Vec<CombinedRect>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let (ra, rb) = (a[i], b[j]);
        out.push(CombinedRect {
            rect: Rect::new(ra.w.max(rb.w), ra.h + rb.h),
            left: i,
            right: j,
        });
        // Narrow the wider side; if tied, narrowing either alone cannot
        // reduce the max width, so advance both.
        match ra.w.cmp(&rb.w) {
            core::cmp::Ordering::Greater => i += 1,
            core::cmp::Ordering::Less => j += 1,
            core::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
        if i == a.len() || j == b.len() {
            break;
        }
    }
}

/// [`combine_with_provenance`] without the provenance: just the combined
/// irreducible R-list.
#[must_use]
pub fn combine(a: &RList, b: &RList, how: Compose) -> RList {
    let rects = combine_with_provenance(a, b, how)
        .into_iter()
        .map(|c| c.rect)
        .collect();
    RList::from_sorted(rects).unwrap_or_else(RList::from_candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::pareto_min_rects;
    use proptest::prelude::*;

    fn rl(pairs: &[(u64, u64)]) -> RList {
        RList::from_candidates(pairs.iter().map(|&(w, h)| Rect::new(w, h)).collect())
    }

    /// Brute-force reference: full cross product, then prune.
    fn reference(a: &RList, b: &RList, how: Compose) -> Vec<Rect> {
        let mut all = Vec::new();
        for &ra in a.iter() {
            for &rb in b.iter() {
                all.push(how.apply(ra, rb));
            }
        }
        pareto_min_rects(all)
    }

    #[test]
    fn compose_apply() {
        let a = Rect::new(4, 2);
        let b = Rect::new(3, 5);
        assert_eq!(Compose::Beside.apply(a, b), Rect::new(7, 5));
        assert_eq!(Compose::Stack.apply(a, b), Rect::new(4, 7));
    }

    #[test]
    fn stack_two_singletons() {
        let got = combine(&rl(&[(4, 2)]), &rl(&[(3, 5)]), Compose::Stack);
        assert_eq!(got.as_slice(), &[Rect::new(4, 7)]);
    }

    #[test]
    fn empty_child_yields_empty() {
        let a = rl(&[(4, 2)]);
        assert!(combine(&a, &RList::new(), Compose::Stack).is_empty());
        assert!(combine_with_provenance(&RList::new(), &a, Compose::Beside).is_empty());
    }

    #[test]
    fn classic_stockmeyer_example() {
        // Two free-orientation 2x4 modules stacked: candidates (4,2)/(2,4)
        // each; stacking yields (4,4), (4,6)->dominated, (2,8).
        let m = rl(&[(4, 2), (2, 4)]);
        let got = combine(&m, &m, Compose::Stack);
        assert_eq!(got.as_slice(), &[Rect::new(4, 4), Rect::new(2, 8)]);
    }

    #[test]
    fn provenance_indices_are_correct() {
        let a = rl(&[(6, 1), (4, 3), (1, 8)]);
        let b = rl(&[(5, 2), (3, 4)]);
        for how in [Compose::Stack, Compose::Beside] {
            for c in combine_with_provenance(&a, &b, how) {
                assert_eq!(c.rect, how.apply(a[c.left], b[c.right]));
            }
        }
    }

    #[test]
    fn scratch_variant_matches_owned_variant() {
        let a = rl(&[(9, 1), (7, 2), (4, 5), (2, 9)]);
        let b = rl(&[(8, 2), (5, 3), (3, 6)]);
        let mut scratch = JoinScratch::new();
        for how in [Compose::Stack, Compose::Beside] {
            let owned = combine_with_provenance(&a, &b, how);
            // Run twice: the second call exercises dirty, pre-grown buffers.
            let _ = combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch);
            let reused =
                combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch);
            assert_eq!(owned.as_slice(), reused, "{how:?}");
        }
        // Empty children clear stale contents.
        let _ = combine_with_provenance_scratch(
            a.as_slice(),
            b.as_slice(),
            Compose::Stack,
            &mut scratch,
        );
        assert!(
            combine_with_provenance_scratch(&[], b.as_slice(), Compose::Stack, &mut scratch)
                .is_empty()
        );
    }

    #[test]
    fn matches_reference_on_fixed_lists() {
        let a = rl(&[(9, 1), (7, 2), (4, 5), (2, 9)]);
        let b = rl(&[(8, 2), (5, 3), (3, 6)]);
        for how in [Compose::Stack, Compose::Beside] {
            let got: Vec<Rect> = combine(&a, &b, how).into_vec();
            assert_eq!(got, reference(&a, &b, how), "{how:?}");
        }
    }

    proptest! {
        #[test]
        fn merge_matches_brute_force(
            pa in proptest::collection::vec((1u64..30, 1u64..30), 1..15),
            pb in proptest::collection::vec((1u64..30, 1u64..30), 1..15),
        ) {
            let a = RList::from_candidates(pa.into_iter().map(|(w, h)| Rect::new(w, h)).collect());
            let b = RList::from_candidates(pb.into_iter().map(|(w, h)| Rect::new(w, h)).collect());
            for how in [Compose::Stack, Compose::Beside] {
                let got: Vec<Rect> = combine(&a, &b, how).into_vec();
                prop_assert_eq!(&got, &reference(&a, &b, how), "compose {:?}", how);
            }
        }

        #[test]
        fn output_size_is_linear(
            pa in proptest::collection::vec((1u64..100, 1u64..100), 1..25),
            pb in proptest::collection::vec((1u64..100, 1u64..100), 1..25),
        ) {
            let a = RList::from_candidates(pa.into_iter().map(|(w, h)| Rect::new(w, h)).collect());
            let b = RList::from_candidates(pb.into_iter().map(|(w, h)| Rect::new(w, h)).collect());
            for how in [Compose::Stack, Compose::Beside] {
                let got = combine_with_provenance(&a, &b, how);
                prop_assert!(got.len() <= a.len() + b.len());
                prop_assert!(!got.is_empty());
            }
        }
    }
}
