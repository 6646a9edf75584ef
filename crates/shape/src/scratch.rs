//! Reusable scratch buffers for the join hot path.
//!
//! Every slice/wheel join allocates the same handful of temporaries:
//! rotated staircases for `Beside` merges, the lockstep candidate
//! vector, and the L-block prune's buffers. A [`JoinScratch`] owns
//! one of each and is reused across joins, so a long bottom-up run
//! allocates these buffers once per worker instead of once per join.
//! The tree-level scheduler in `fp-optimizer` hands one arena to each
//! worker thread; the serial path owns a single one.
//!
//! Reuse never changes results — the buffers are cleared (not read) at
//! the start of every operation that uses them.

use fp_geom::Rect;

use crate::combine::CombinedRect;

/// Per-worker scratch arena for join kernels.
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::combine::{combine_with_provenance_scratch, Compose};
/// use fp_shape::{JoinScratch, RList};
///
/// let a = RList::from_candidates(vec![Rect::new(4, 2), Rect::new(2, 3)]);
/// let b = RList::from_candidates(vec![Rect::new(3, 3), Rect::new(1, 5)]);
/// let mut scratch = JoinScratch::new();
/// let first = combine_with_provenance_scratch(a.as_slice(), b.as_slice(), Compose::Beside, &mut scratch).len();
/// // The second call reuses the buffers the first one grew.
/// let second = combine_with_provenance_scratch(a.as_slice(), b.as_slice(), Compose::Beside, &mut scratch).len();
/// assert_eq!(first, second);
/// ```
#[derive(Default)]
pub struct JoinScratch {
    /// Rotated/reversed copy of the left child (Beside merges).
    pub(crate) rects_a: Vec<Rect>,
    /// Rotated/reversed copy of the right child (Beside merges).
    pub(crate) rects_b: Vec<Rect>,
    /// Lockstep candidates: the irreducible merge result.
    pub(crate) combined: Vec<CombinedRect>,
    /// Buffers of the chain-structured L-block prune
    /// ([`crate::prune::prune_l_block`]) every wheel join ends in.
    pub lprune: crate::prune::LPruneScratch,
    /// CSPP arenas for the R/L selection kernels (`fp-select` threads
    /// these through `RReductionPolicy::apply_scratch` and
    /// `LReductionPolicy::apply_scratch`), so a warmed join worker runs
    /// selections allocation-free too.
    pub cspp: fp_cspp::SelectScratch,
}

impl JoinScratch {
    /// An empty arena; buffers grow to the working-set high-water mark
    /// on first use and stay allocated.
    #[must_use]
    pub fn new() -> Self {
        JoinScratch::default()
    }
}
