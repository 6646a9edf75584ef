//! Reduction policies: when and how the selection algorithms fire during a
//! bottom-up optimization run (paper §3 and the §5 engineering techniques).

use fp_cspp::{CsppScratch, SelectScratch};
use fp_shape::{LListSet, RList};

use crate::{
    heuristic_l_reduction, l_selection_float_scratch, l_selection_scratch, r_selection_scratch,
    Metric, RSelection, SelectError,
};

/// What an [`RReductionPolicy`] does once it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RAction {
    /// Reduce to exactly `K₁` implementations (the paper's behaviour).
    ToSize(usize),
    /// Reduce to the smallest subset whose staircase error stays within
    /// the budget (via [`crate::curve::r_selection_within`]).
    WithinError(fp_geom::Area),
}

/// Policy for rectangular blocks: reduce any R-list that exceeds `limit`
/// (the paper's user parameter `K₁`) back down to `limit` implementations
/// with `R_Selection` — or, in *error-budget* mode, down to the smallest
/// subset whose staircase error fits a budget.
///
/// ```
/// use fp_select::RReductionPolicy;
///
/// let policy = RReductionPolicy::new(30);
/// assert_eq!(policy.limit(), 30);
/// let budgeted = RReductionPolicy::error_budget(30, 500);
/// assert_eq!(budgeted.limit(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RReductionPolicy {
    limit: usize,
    action: RAction,
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
        RReductionPolicy {
            limit,
            action: RAction::ToSize(limit),
        }
    }

    /// Creates the error-budget variant: lists exceeding `trigger_len`
    /// are reduced to the **smallest** subset whose `ERROR(R, R')` does
    /// not exceed `max_error` (which may keep more or fewer than
    /// `trigger_len` implementations, depending on the list's geometry).
    ///
    /// # Panics
    ///
    /// Panics if `trigger_len < 2`.
    #[must_use]
    pub fn error_budget(trigger_len: usize, max_error: fp_geom::Area) -> Self {
        assert!(
            trigger_len >= 2,
            "trigger length must be at least 2, got {trigger_len}"
        );
        RReductionPolicy {
            limit: trigger_len,
            action: RAction::WithinError(max_error),
        }
    }

    /// The trigger length (`K₁` in fixed-size mode).
    #[inline]
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Applies the policy: `Some(selection)` when the list exceeds the
    /// trigger, `None` when no reduction is needed.
    #[must_use]
    pub fn apply(&self, list: &RList) -> Option<RSelection> {
        self.apply_scratch(list, &mut CsppScratch::new())
    }

    /// [`RReductionPolicy::apply`] through a caller-owned scratch arena:
    /// the fixed-size (`ToSize`) selection reuses the arena's buffers.
    /// The error-budget mode runs the legacy curve machinery and ignores
    /// the arena. Results are identical either way.
    #[must_use]
    pub fn apply_scratch(
        &self,
        list: &RList,
        scratch: &mut CsppScratch<fp_geom::Area>,
    ) -> Option<RSelection> {
        if list.len() <= self.limit {
            return None;
        }
        match self.action {
            RAction::ToSize(k) => reduce_rlist_scratch(list, k, scratch),
            RAction::WithinError(budget) => Some(
                crate::curve::r_selection_within(list, budget)
                    .expect("list is non-empty past the trigger"),
            ),
        }
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
    workers: usize,
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
            workers: 1,
        }
    }

    /// Runs the per-list selections on up to `workers` scoped threads
    /// (the default, 1, and 0 both reduce sequentially). The result is
    /// bit-identical to the sequential path (each list is reduced
    /// independently); only wall-clock time changes, so keep 1 when
    /// reproducing the paper's single-threaded CPU columns. Callers
    /// that already own a thread budget — the tree-level scheduler in
    /// `fp-optimizer` — pass 1 so nested reductions never oversubscribe
    /// the machine. Since it never changes the reduction's output, the
    /// worker count is excluded from the policy fingerprint that
    /// addresses the block cache.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
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

    /// The worker threads a reduction may use (when one runs, it is
    /// additionally capped at the block's list count).
    #[inline]
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
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
/// pair: the sequential path reuses the caller's arena across every
/// list; the parallel path gives each scoped worker its own local arena
/// (workers cannot share one `&mut`), so its allocation profile is
/// unchanged. Output is bit-identical to [`reduce_llist_set`] either way.
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

    // A budget of 0 or 1 (or a single list) is the sequential path.
    let workers = policy.workers.min(lists.len());
    if workers > 1 {
        // Each list reduces independently: fan the lists out over scoped
        // threads in fixed-size stripes and reassemble in order.
        let mut out: Vec<Vec<Vec<usize>>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let budgets = &budgets;
                handles.push(scope.spawn(move || {
                    let mut local = SelectScratch::new();
                    lists
                        .iter()
                        .zip(budgets)
                        .enumerate()
                        .filter(|(i, _)| i % workers == w)
                        .map(|(_, (list, &budget))| reduce_one(list, budget, policy, &mut local))
                        .collect::<Vec<_>>()
                }));
            }
            out = handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect();
        });
        // Un-stripe: element j of worker w is list w + j * workers.
        let mut result = vec![Vec::new(); lists.len()];
        for (w, chunk) in out.into_iter().enumerate() {
            for (j, positions) in chunk.into_iter().enumerate() {
                result[w + j * workers] = positions;
            }
        }
        Some(result)
    } else {
        Some(
            lists
                .iter()
                .zip(&budgets)
                .map(|(list, &b)| reduce_one(list, b, policy, scratch))
                .collect(),
        )
    }
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
    fn r_error_budget_mode() {
        let list =
            RList::from_candidates((1..=20u64).map(|i| Rect::new(44 - 2 * i, 3 * i)).collect());
        // Zero budget => keep everything (error must be 0).
        let strict = RReductionPolicy::error_budget(10, 0);
        let sel = strict.apply(&list).expect("triggered");
        assert_eq!(sel.positions.len(), 20);
        assert_eq!(sel.error, 0);
        // Huge budget => endpoints only.
        let lax = RReductionPolicy::error_budget(10, fp_geom::Area::MAX);
        let sel = lax.apply(&list).expect("triggered");
        assert_eq!(sel.positions.len(), 2);
        // Below the trigger nothing happens.
        let small = RList::from_candidates(vec![Rect::new(4, 1), Rect::new(1, 4)]);
        assert_eq!(lax.apply(&small), None);
        // The selection respects the budget and is minimal.
        let mid = RReductionPolicy::error_budget(10, 100);
        let sel = mid.apply(&list).expect("triggered");
        assert!(sel.error <= 100);
        let curve = crate::curve::r_selection_curve(&list);
        for p in curve {
            if p.k < sel.positions.len() {
                assert!(p.error > 100, "k = {} should exceed the budget", p.k);
            }
        }
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
    fn parallel_reduction_is_bit_identical() {
        // Many lists of varying length in disjoint size regimes.
        let mut shapes = Vec::new();
        for g in 0..12u64 {
            let len = 3 + (g % 5);
            for i in 0..len {
                // Anti-correlated across groups (wider groups are flatter)
                // so no cross-group dominance removes whole lists.
                shapes.push(LShape::new_canonical(
                    1000 * (13 - g) - 3 * i,
                    50 + g,
                    100 * (g + 1) + 2 * i,
                    40 * (g + 1) + i,
                ));
            }
        }
        let set = LListSet::from_candidates(shapes);
        assert!(set.lists().len() >= 10);
        let seq = LReductionPolicy::new(20).apply(&set).expect("fires");
        let par = LReductionPolicy::new(20)
            .with_workers(4)
            .apply(&set)
            .expect("fires");
        assert_eq!(seq, par);
        // Any explicit worker budget (including the degenerate 0/1 that
        // falls back to the sequential path) is bit-identical too.
        for budget in [0usize, 1, 2, 3, 64] {
            let capped = LReductionPolicy::new(20)
                .with_workers(budget)
                .apply(&set)
                .expect("fires");
            assert_eq!(seq, capped, "budget {budget} diverged");
        }
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
