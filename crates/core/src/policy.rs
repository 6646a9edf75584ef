//! Reduction policies: when and how the selection algorithms fire during a
//! bottom-up optimization run (paper §3 and the §5 engineering techniques).

use fp_cspp::{CsppScratch, SelectScratch};
use fp_shape::{LListSet, RList};

use crate::{
    heuristic_l_reduction, l_selection_float_scratch, l_selection_scratch, r_selection_scratch,
    Metric, RSelection, SelectError,
};

/// Policy for rectangular blocks: reduce any R-list that exceeds `limit`
/// (the paper's user parameter `K₁`) back down to `limit` implementations
/// with `R_Selection`.
///
/// ```
/// use fp_select::RReductionPolicy;
///
/// let policy = RReductionPolicy::new(30);
/// assert_eq!(policy.limit(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RReductionPolicy {
    limit: usize,
}

impl RReductionPolicy {
    /// Creates the paper's policy: lists exceeding `limit` are reduced to
    /// exactly `limit` implementations.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 2`: a staircase always needs both endpoints.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 2, "K1 must be at least 2, got {limit}");
        RReductionPolicy { limit }
    }

    /// The limit `K₁`.
    #[inline]
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Applies the policy: `Some(selection)` when the list exceeds the
    /// limit, `None` when no reduction is needed.
    #[must_use]
    pub fn apply(&self, list: &RList) -> Option<RSelection> {
        self.apply_scratch(list, &mut CsppScratch::new())
    }

    /// [`RReductionPolicy::apply`] through a caller-owned scratch arena
    /// whose buffers the selection reuses. Results are identical either
    /// way.
    #[must_use]
    pub fn apply_scratch(
        &self,
        list: &RList,
        scratch: &mut CsppScratch<fp_geom::Area>,
    ) -> Option<RSelection> {
        reduce_rlist_scratch(list, self.limit, scratch)
    }
}

/// Reduces `list` to `k1` implementations if it exceeds that limit.
/// Returns `None` when the list already fits.
#[must_use]
pub fn reduce_rlist(list: &RList, k1: usize) -> Option<RSelection> {
    reduce_rlist_scratch(list, k1, &mut CsppScratch::new())
}

/// [`reduce_rlist`] through a caller-owned scratch arena.
#[must_use]
pub fn reduce_rlist_scratch(
    list: &RList,
    k1: usize,
    scratch: &mut CsppScratch<fp_geom::Area>,
) -> Option<RSelection> {
    if list.len() <= k1 {
        return None;
    }
    match r_selection_scratch(list, k1.max(2), scratch) {
        Ok(sel) => Some(sel),
        Err(SelectError::EmptyList | SelectError::KTooSmall { .. }) => {
            unreachable!("len > k1 >= 2 makes r_selection infallible")
        }
    }
}

/// Policy for L-shaped blocks (paper §4.3 tail and §5): reduce a block
/// whose total implementation count `X` exceeds `K₂`, subject to two
/// engineering controls:
///
/// * **θ trigger** — only run the expensive reduction when `K₂ / X < θ`,
///   i.e. when the overflow is substantial. `θ = 1` reduces on any
///   overflow.
/// * **heuristic prefilter `S`** — any single list longer than `S` is first
///   cut to `S` by the greedy [`heuristic_l_reduction`], then optimally by
///   `L_Selection` (which is `O(n³)` and too slow on huge lists).
///
/// The budget for each list `L` out of the block's `N` total
/// implementations is `⌊K₂ · |L| / N⌋` (dynamically proportional), clamped
/// to at least 2 (or 1 for singleton lists) so every list keeps its
/// endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct LReductionPolicy {
    k2: usize,
    theta: f64,
    prefilter: Option<usize>,
    metric: Metric,
}

impl LReductionPolicy {
    /// Creates the policy with limit `K₂`, θ = 1 (always fire on overflow),
    /// no prefilter, and the Manhattan metric.
    ///
    /// # Panics
    ///
    /// Panics if `k2 < 2`.
    #[must_use]
    pub fn new(k2: usize) -> Self {
        assert!(k2 >= 2, "K2 must be at least 2, got {k2}");
        LReductionPolicy {
            k2,
            theta: 1.0,
            prefilter: None,
            metric: Metric::L1,
        }
    }

    /// Accepted for source compatibility and ignored: the per-list
    /// selections always run on the calling thread, so every worker
    /// count gives the same policy.
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Sets the θ trigger: the reduction only fires when `K₂ / X < θ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < theta <= 1`.
    #[must_use]
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1], got {theta}"
        );
        self.theta = theta;
        self
    }

    /// Sets the prefilter threshold `S`: lists longer than `S` are first
    /// reduced greedily to `S`.
    ///
    /// # Panics
    ///
    /// Panics if `s < 2`.
    #[must_use]
    pub fn with_prefilter(mut self, s: usize) -> Self {
        assert!(s >= 2, "S must be at least 2, got {s}");
        self.prefilter = Some(s);
        self
    }

    /// Sets the distance metric.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The limit `K₂`.
    #[inline]
    #[must_use]
    pub fn k2(&self) -> usize {
        self.k2
    }

    /// The θ trigger.
    #[inline]
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The prefilter threshold `S`, if set.
    #[inline]
    #[must_use]
    pub fn prefilter(&self) -> Option<usize> {
        self.prefilter
    }

    /// The metric.
    #[inline]
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Applies the policy to a block's L-list set: `Some(kept positions per
    /// list)` when the reduction fires, `None` otherwise.
    #[must_use]
    pub fn apply(&self, set: &LListSet) -> Option<Vec<Vec<usize>>> {
        reduce_llist_set(set, self)
    }

    /// [`LReductionPolicy::apply`] through a caller-owned scratch arena
    /// pair (see [`reduce_llist_set_scratch`]).
    #[must_use]
    pub fn apply_scratch(
        &self,
        set: &LListSet,
        scratch: &mut SelectScratch,
    ) -> Option<Vec<Vec<usize>>> {
        reduce_llist_set_scratch(set, self, scratch)
    }
}

/// Applies an [`LReductionPolicy`] to a block's set of irreducible L-lists.
///
/// Returns the kept positions for every list (in `set.lists()` order) when
/// the reduction fires; `None` when the block is within budget or the θ
/// trigger vetoes the reduction.
///
/// The paper prescribes the per-list budget `⌊K₂·|L|/N⌋` but leaves
/// sub-2 budgets unspecified (its L-lists were few and long). To keep the
/// reduction a *hard* bound when a block holds many short lists, budgets
/// here are apportioned by largest remainder so they sum to exactly `K₂`:
/// a list with budget 0 is dropped entirely, a list with budget 1 keeps
/// its 1-median (the implementation minimizing the summed distance to the
/// rest), and budgets of 2 or more run the optimal `L_Selection`. At
/// least one implementation always survives, so feasibility is preserved.
#[must_use]
pub fn reduce_llist_set(set: &LListSet, policy: &LReductionPolicy) -> Option<Vec<Vec<usize>>> {
    reduce_llist_set_scratch(set, policy, &mut SelectScratch::new())
}

/// [`reduce_llist_set`] through a caller-owned [`SelectScratch`] arena
/// pair, reused across every list. Output is bit-identical to
/// [`reduce_llist_set`].
#[must_use]
pub fn reduce_llist_set_scratch(
    set: &LListSet,
    policy: &LReductionPolicy,
    scratch: &mut SelectScratch,
) -> Option<Vec<Vec<usize>>> {
    let total = set.total_len();
    if total <= policy.k2 {
        return None;
    }
    // §5 technique 1: only reduce when X is sufficiently larger than K2.
    if policy.k2 as f64 / total as f64 >= policy.theta {
        return None;
    }

    // Largest-remainder apportionment of K2 across lists by length.
    let lists = set.lists();
    let mut budgets: Vec<usize> = lists.iter().map(|l| policy.k2 * l.len() / total).collect();
    let assigned: usize = budgets.iter().sum();
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| core::cmp::Reverse(policy.k2 * lists[i].len() % total));
    for &i in order.iter().take(policy.k2.saturating_sub(assigned)) {
        budgets[i] += 1;
    }

    Some(
        lists
            .iter()
            .zip(&budgets)
            .map(|(list, &b)| reduce_one(list, b, policy, scratch))
            .collect(),
    )
}

/// Reduces a single list to its budget under the policy's controls.
fn reduce_one(
    list: &fp_shape::LList,
    budget: usize,
    policy: &LReductionPolicy,
    scratch: &mut SelectScratch,
) -> Vec<usize> {
    let n = list.len();
    let budget = budget.min(n);
    match budget {
        0 => Vec::new(),
        1 => vec![medoid(list, policy.metric)],
        b if b >= n => (0..n).collect(),
        b => match policy.prefilter {
            // §5 technique 2: prefilter huge lists greedily to S first.
            Some(s) if n > s && s > b => {
                let coarse = heuristic_l_reduction(list, s, policy.metric);
                let reduced = list.subset(&coarse);
                let inner = select_positions(&reduced, b, policy.metric, scratch);
                inner.into_iter().map(|i| coarse[i]).collect()
            }
            _ => select_positions(list, b, policy.metric, scratch),
        },
    }
}

/// The 1-median of a list: the position minimizing the summed distance to
/// every other implementation (the optimal single survivor).
fn medoid(list: &fp_shape::LList, metric: Metric) -> usize {
    let n = list.len();
    let cost = |j: usize| -> f64 { (0..n).map(|i| metric.dist(list[i], list[j])).sum() };
    (0..n)
        .min_by(|&a, &b| cost(a).partial_cmp(&cost(b)).expect("finite distances"))
        .expect("medoid of a non-empty list")
}

/// Runs the optimal selection (integer for L₁, float otherwise).
fn select_positions(
    list: &fp_shape::LList,
    k: usize,
    metric: Metric,
    scratch: &mut SelectScratch,
) -> Vec<usize> {
    if metric.is_l1() {
        l_selection_scratch(list, k, &mut scratch.int)
            .expect("k >= 2 and list non-empty")
            .positions
    } else {
        l_selection_float_scratch(list, k, metric, &mut scratch.float)
            .expect("k >= 2 and list non-empty")
            .positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geom::{LShape, Rect};

    fn chain(n: u64, w2: u64) -> Vec<LShape> {
        (0..n)
            .map(|i| LShape::new_canonical(400 - 3 * i, w2, 10 + 2 * i, 3 + i))
            .collect()
    }

    #[test]
    fn r_policy_fires_only_on_overflow() {
        let small = RList::from_candidates((1..=5u64).map(|i| Rect::new(12 - 2 * i, i)).collect());
        let policy = RReductionPolicy::new(5);
        assert_eq!(policy.apply(&small), None);
        let big = RList::from_candidates((1..=20u64).map(|i| Rect::new(42 - 2 * i, i)).collect());
        let sel = policy.apply(&big).expect("overflow fires");
        assert_eq!(sel.positions.len(), 5);
    }

    #[test]
    #[should_panic(expected = "K1 must be at least 2")]
    fn r_policy_rejects_tiny_limit() {
        let _ = RReductionPolicy::new(1);
    }

    #[test]
    fn l_policy_budget_is_proportional() {
        // Two lists of 30 and 10; K2 = 20 => budgets 15 and 5. The second
        // chain lives in a disjoint size regime so no cross-list dominance.
        let mut shapes = chain(30, 5);
        shapes.extend(
            (0..10u64).map(|i| LShape::new_canonical(150 - 3 * i, 7, 500 + 2 * i, 300 + i)),
        );
        let set = LListSet::from_candidates(shapes);
        assert_eq!(set.lists().len(), 2);
        assert_eq!(set.total_len(), 40);
        let policy = LReductionPolicy::new(20);
        let kept = policy.apply(&set).expect("overflow fires");
        let sizes: Vec<usize> = kept.iter().map(Vec::len).collect();
        let budgets: Vec<usize> = set.lists().iter().map(|l| 20 * l.len() / 40).collect();
        assert_eq!(sizes, budgets);
        assert!(kept.iter().all(|p| p[0] == 0));
    }

    #[test]
    fn l_policy_within_budget_is_none() {
        let set = LListSet::from_candidates(chain(10, 5));
        assert_eq!(LReductionPolicy::new(10).apply(&set), None);
        assert_eq!(LReductionPolicy::new(2000).apply(&set), None);
    }

    #[test]
    fn theta_vetoes_marginal_overflows() {
        let set = LListSet::from_candidates(chain(25, 5));
        // X = 25, K2 = 20: K2/X = 0.8. theta = 0.5 vetoes; theta = 0.9 fires.
        let veto = LReductionPolicy::new(20).with_theta(0.5);
        assert_eq!(veto.apply(&set), None);
        let fire = LReductionPolicy::new(20).with_theta(0.9);
        assert!(fire.apply(&set).is_some());
    }

    #[test]
    fn prefilter_path_composes_positions() {
        let set = LListSet::from_candidates(chain(60, 5));
        let plain = LReductionPolicy::new(12);
        let prefiltered = LReductionPolicy::new(12).with_prefilter(25);
        let kept_plain = plain.apply(&set).expect("fires");
        let kept_pre = prefiltered.apply(&set).expect("fires");
        assert_eq!(kept_plain[0].len(), 12);
        assert_eq!(kept_pre[0].len(), 12);
        // Prefiltered positions still index the original list.
        assert_eq!(kept_pre[0][0], 0);
        assert_eq!(*kept_pre[0].last().expect("non-empty"), 59);
        assert!(kept_pre[0].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_lists_keep_endpoints() {
        // Many singleton-ish lists: budget floor would be 0 without the clamp.
        let mut shapes = Vec::new();
        for w2 in 1..=12u64 {
            shapes.push(LShape::new_canonical(100, w2, 50, 20));
        }
        let set = LListSet::from_candidates(shapes);
        // Mutually incomparable? w2 varies, others equal: (100, w2, 50, 20)
        // with larger w2 dominates smaller w2. Only the smallest survives.
        assert_eq!(set.total_len(), 1);
        assert_eq!(LReductionPolicy::new(2).apply(&set), None);
    }

    #[test]
    fn many_short_lists_stay_within_k2() {
        // 40 mutually incomparable singleton-ish chains: per-list floors of
        // the naive formula would keep 2 x 40 = 80; the apportionment keeps
        // at most K2 = 10 total by dropping whole lists.
        let mut shapes = Vec::new();
        for i in 0..40u64 {
            // Distinct w2 per chain, anti-correlated sizes: no dominance.
            shapes.push(LShape::new_canonical(500 - i, 100 + i, 40 + i, 10 + i));
        }
        let set = LListSet::from_candidates(shapes);
        assert_eq!(set.total_len(), 40);
        assert_eq!(set.lists().len(), 40);
        let kept = LReductionPolicy::new(10).apply(&set).expect("fires");
        let total_kept: usize = kept.iter().map(Vec::len).collect::<Vec<_>>().iter().sum();
        assert!(total_kept <= 10, "kept {total_kept}");
        assert!(total_kept >= 1);
    }

    #[test]
    fn medoid_minimizes_total_distance() {
        // A dense cluster at the start with two far outliers: the medoid is
        // the cluster member closest to the outliers (unique minimum).
        let list = fp_shape::LList::from_sorted(vec![
            LShape::new_canonical(100, 5, 10, 10),
            LShape::new_canonical(99, 5, 11, 10),
            LShape::new_canonical(98, 5, 12, 11),
            LShape::new_canonical(20, 5, 80, 70),
            LShape::new_canonical(10, 5, 90, 80),
        ])
        .expect("valid chain");
        assert_eq!(super::medoid(&list, Metric::L1), 2);
    }

    #[test]
    fn metric_variants_run() {
        let set = LListSet::from_candidates(chain(30, 5));
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            let policy = LReductionPolicy::new(10).with_metric(metric);
            let kept = policy.apply(&set).expect("fires");
            assert_eq!(kept[0].len(), 10 * 30 / 30);
        }
    }
}
