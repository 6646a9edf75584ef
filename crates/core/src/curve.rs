//! Error-versus-`k` trade-off curves and error-budgeted selection.
//!
//! The paper treats `k` (the retained-subset size) as a user parameter.
//! In practice one often wants the dual: *given an error budget, keep as
//! few implementations as possible*. Because the CSPP dynamic program
//! computes `W(s, t, l)` for every `l ≤ k` in one sweep
//! ([`fp_cspp::constrained_shortest_paths_all_k`]), the whole trade-off
//! curve costs the same as a single selection — and the smallest feasible
//! `k` falls out by scanning it.

use fp_cspp::{constrained_shortest_paths_all_k, Dag};
use fp_geom::Area;
use fp_shape::{LList, RList};

use crate::{LErrorTable, LSelection, RErrorTable, RSelection, SelectError};

/// One point of a selection trade-off curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurvePoint<W> {
    /// The subset size.
    pub k: usize,
    /// The optimal `ERROR` at that size.
    pub error: W,
    /// The kept positions realizing it.
    pub positions: Vec<usize>,
}

/// The full `R_Selection` trade-off curve: for every `k in 2..=n`, the
/// optimal staircase error and the subset realizing it. One point per
/// `k`, strictly non-increasing in error, ending at zero.
///
/// Costs the same `O(n³)`-ish work as a single `r_selection` at `k = n`
/// (the table build dominates for small `n`; the DP sweep for large).
///
/// Returns an empty vector for lists with fewer than two implementations
/// (nothing to trade off).
///
/// # Example
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::RList;
/// use fp_select::curve::r_selection_curve;
///
/// let list = RList::from_candidates(
///     (1..=6u64).map(|i| Rect::new(14 - 2 * i, 3 * i)).collect());
/// let curve = r_selection_curve(&list);
/// assert_eq!(curve.len(), 5); // k = 2 ..= 6
/// assert_eq!(curve.last().map(|p| p.error), Some(0)); // keep everything
/// ```
#[must_use]
pub fn r_selection_curve(list: &RList) -> Vec<CurvePoint<Area>> {
    let n = list.len();
    if n < 2 {
        return Vec::new();
    }
    let table = RErrorTable::new(list);
    let g: Dag<Area> = Dag::complete(n, |i, j| table.error(i, j));
    let all = constrained_shortest_paths_all_k(&g, 0, n - 1, n).expect("complete DAG is valid");
    all.into_iter()
        .enumerate()
        .skip(1) // k = 1 has no endpoint-keeping selection for n >= 2
        .map(|(i, sol)| {
            let sol = sol.expect("the chain 0..n-1 exists for every k >= 2");
            CurvePoint {
                k: i + 1,
                error: sol.weight,
                positions: sol.vertices,
            }
        })
        .collect()
}

/// The `L_Selection` trade-off curve under the Manhattan metric.
#[must_use]
pub fn l_selection_curve(list: &LList) -> Vec<CurvePoint<u128>> {
    let n = list.len();
    if n < 2 {
        return Vec::new();
    }
    let table = LErrorTable::new_l1(list);
    let g: Dag<u128> = Dag::complete(n, |i, j| table.error(i, j));
    let all = constrained_shortest_paths_all_k(&g, 0, n - 1, n).expect("complete DAG is valid");
    all.into_iter()
        .enumerate()
        .skip(1)
        .map(|(i, sol)| {
            let sol = sol.expect("the chain 0..n-1 exists for every k >= 2");
            CurvePoint {
                k: i + 1,
                error: sol.weight,
                positions: sol.vertices,
            }
        })
        .collect()
}

/// Error-budgeted `R_Selection`: the **smallest** subset whose optimal
/// staircase error does not exceed `max_error`.
///
/// # Errors
///
/// [`SelectError::EmptyList`] on an empty list.
///
/// # Example
///
/// ```
/// use fp_geom::Rect;
/// use fp_shape::RList;
/// use fp_select::curve::r_selection_within;
///
/// let list = RList::from_candidates(
///     (1..=8u64).map(|i| Rect::new(18 - 2 * i, 3 * i)).collect());
/// let generous = r_selection_within(&list, u128::MAX)?;
/// assert_eq!(generous.positions.len(), 2); // endpoints suffice
/// let exact = r_selection_within(&list, 0)?;
/// assert_eq!(exact.positions.len(), 8);    // zero budget keeps all
/// # Ok::<(), fp_select::SelectError>(())
/// ```
pub fn r_selection_within(list: &RList, max_error: Area) -> Result<RSelection, SelectError> {
    let n = list.len();
    if n == 0 {
        return Err(SelectError::EmptyList);
    }
    if n == 1 {
        return Ok(RSelection {
            positions: vec![0],
            error: 0,
        });
    }
    let point = r_selection_curve(list)
        .into_iter()
        .find(|p| p.error <= max_error)
        .expect("k = n has zero error");
    Ok(RSelection {
        positions: point.positions,
        error: point.error,
    })
}

/// Error-budgeted `L_Selection` (Manhattan metric): the smallest subset
/// whose optimal `ERROR(L, L')` does not exceed `max_error`.
///
/// # Errors
///
/// [`SelectError::EmptyList`] on an empty list.
pub fn l_selection_within(list: &LList, max_error: u128) -> Result<LSelection<u128>, SelectError> {
    let n = list.len();
    if n == 0 {
        return Err(SelectError::EmptyList);
    }
    if n == 1 {
        return Ok(LSelection {
            positions: vec![0],
            error: 0,
        });
    }
    let point = l_selection_curve(list)
        .into_iter()
        .find(|p| p.error <= max_error)
        .expect("k = n has zero error");
    Ok(LSelection {
        positions: point.positions,
        error: point.error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{l_selection, r_selection};
    use fp_geom::{LShape, Rect};
    use proptest::prelude::*;

    fn rl(n: u64) -> RList {
        RList::from_candidates((1..=n).map(|i| Rect::new(3 * (n + 1 - i), 2 * i)).collect())
    }

    fn ll(n: u64) -> LList {
        LList::from_sorted(
            (0..n)
                .map(|i| LShape::new_canonical(90 - 2 * i, 6, 10 + 3 * i, 4 + i))
                .collect(),
        )
        .expect("valid chain")
    }

    #[test]
    fn curve_matches_pointwise_selection() {
        let list = rl(9);
        for point in r_selection_curve(&list) {
            let direct = r_selection(&list, point.k).expect("selection");
            assert_eq!(point.error, direct.error, "k = {}", point.k);
        }
        let llist = ll(9);
        for point in l_selection_curve(&llist) {
            let direct = l_selection(&llist, point.k).expect("selection");
            assert_eq!(point.error, direct.error, "k = {}", point.k);
        }
    }

    #[test]
    fn curve_is_monotone_and_ends_at_zero() {
        let curve = r_selection_curve(&rl(12));
        assert!(curve.windows(2).all(|w| w[0].error >= w[1].error));
        assert_eq!(curve.last().expect("non-empty").error, 0);
        assert_eq!(curve[0].k, 2);
        assert!(r_selection_curve(&rl(1)).is_empty());
        assert!(r_selection_curve(&RList::new()).is_empty());
    }

    #[test]
    fn within_finds_minimal_k() {
        let list = rl(10);
        let curve = r_selection_curve(&list);
        // Pick a budget strictly between two curve points.
        let mid = curve[curve.len() / 2].error;
        let sel = r_selection_within(&list, mid).expect("selection");
        // Minimality: every smaller k exceeds the budget.
        for p in &curve {
            if p.k < sel.positions.len() {
                assert!(p.error > mid);
            }
        }
        assert!(sel.error <= mid);
    }

    #[test]
    fn within_budget_extremes() {
        let list =
            RList::from_candidates((1..=20u64).map(|i| Rect::new(44 - 2 * i, 3 * i)).collect());
        // Zero budget keeps everything, at zero error.
        let strict = r_selection_within(&list, 0).expect("selection");
        assert_eq!(strict.positions.len(), 20);
        assert_eq!(strict.error, 0);
        // An unlimited budget keeps only the endpoints.
        let lax = r_selection_within(&list, Area::MAX).expect("selection");
        assert_eq!(lax.positions, vec![0, 19]);
    }

    #[test]
    fn within_edge_cases() {
        assert_eq!(
            r_selection_within(&RList::new(), 0),
            Err(SelectError::EmptyList)
        );
        let single = RList::from_candidates(vec![Rect::new(2, 2)]);
        assert_eq!(
            r_selection_within(&single, 0).expect("singleton").positions,
            vec![0]
        );
        let lsingle = LList::from_sorted(vec![LShape::new_canonical(5, 2, 3, 1)]).expect("chain");
        assert_eq!(
            l_selection_within(&lsingle, 0)
                .expect("singleton")
                .positions,
            vec![0]
        );
        assert_eq!(
            l_selection_within(&LList::new(), 0),
            Err(SelectError::EmptyList)
        );
    }

    proptest! {
        /// The budgeted selection is minimal and within budget.
        #[test]
        fn within_is_minimal_and_feasible(
            pairs in proptest::collection::vec((1u64..40, 1u64..40), 2..14),
            budget in 0u128..2000,
        ) {
            let list = RList::from_candidates(
                pairs.into_iter().map(|(w, h)| Rect::new(w, h)).collect());
            prop_assume!(list.len() >= 2);
            let sel = r_selection_within(&list, budget).expect("selection");
            prop_assert!(sel.error <= budget);
            let k = sel.positions.len();
            if k > 2 {
                let smaller = r_selection(&list, k - 1).expect("selection");
                prop_assert!(smaller.error > budget);
            }
        }
    }
}
