//! Cross-crate integration tests: the selection algorithms driving the
//! optimizer, policy plumbing, and agreement between independent
//! implementations.

use fp_geom::Rect;
use fp_optimizer::stockmeyer::slicing_optimal;
use fp_optimizer::{oracle, OptError, OptimizeConfig, Optimizer, Outcome};
use fp_select::{
    greedy::greedy_r_selection, heuristic_l_reduction, l_selection, l_selection_error, r_selection,
    LReductionPolicy, Metric,
};
use fp_shape::{staircase, LList, RList};
use fp_tree::layout::{realize, Assignment};
use fp_tree::{generators, Chirality, CutDir, FloorplanTree, Module, ModuleLibrary};

/// Facade shorthand keeping this suite's call sites compact.
fn optimize(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<Outcome, OptError> {
    Optimizer::new(tree, library).config(config).run_best()
}

/// A module list reduced by `R_Selection` before optimization behaves like
/// an on-the-fly reduction: the optimizer over the reduced library can
/// never beat the full library, and the gap is bounded by the selection
/// error (loosely).
#[test]
fn preselected_library_is_consistent() {
    let bench = generators::fig1();
    let full = generators::module_library(&bench.tree, 12, 99);
    let reduced: ModuleLibrary = full
        .iter()
        .map(|m| {
            let sel = r_selection(m.implementations(), 4).expect("selection");
            let list = m.implementations().subset(&sel.positions);
            Module::new(m.name(), list.into_vec())
        })
        .collect();
    let best_full = optimize(&bench.tree, &full, &OptimizeConfig::default()).expect("runs");
    let best_reduced = optimize(&bench.tree, &reduced, &OptimizeConfig::default()).expect("runs");
    assert!(best_reduced.area >= best_full.area);
    // Both realize.
    let layout = realize(&bench.tree, &reduced, &best_reduced.assignment).expect("valid");
    assert_eq!(layout.area(), best_reduced.area);
}

/// The three reduction code paths (optimal, heuristic-prefilter-then-
/// optimal, pure heuristic) are ordered by quality exactly as the paper
/// describes.
#[test]
fn reduction_quality_ordering() {
    let list = LList::from_sorted(
        (0..60u64)
            .map(|i| {
                fp_geom::LShape::new_canonical(
                    500 - 5 * i - (i * i) % 4,
                    11,
                    20 + 4 * i + (3 * i) % 7,
                    9 + 2 * i,
                )
            })
            .collect(),
    )
    .expect("valid chain");
    let k = 10;
    let optimal = l_selection(&list, k).expect("selection");
    // Prefilter to 30 then optimal.
    let coarse = heuristic_l_reduction(&list, 30, Metric::L1);
    let inner = l_selection(&list.subset(&coarse), k).expect("selection");
    let prefiltered: Vec<usize> = inner.positions.iter().map(|&i| coarse[i]).collect();
    let prefiltered_err = l_selection_error(&list, &prefiltered);
    // Pure heuristic to k.
    let greedy = heuristic_l_reduction(&list, k, Metric::L1);
    let greedy_err = l_selection_error(&list, &greedy);

    assert!(optimal.error <= prefiltered_err);
    assert!(
        prefiltered_err <= greedy_err * 2,
        "prefilter should roughly track greedy or better"
    );
}

/// Greedy vs optimal R-selection inside a full optimization: the optimal
/// selection never loses more area.
#[test]
fn greedy_selection_costs_area() {
    // A staircase where greedy and optimal genuinely differ.
    let list = RList::from_candidates(vec![
        Rect::new(40, 1),
        Rect::new(39, 2),
        Rect::new(20, 3),
        Rect::new(19, 9),
        Rect::new(2, 10),
        Rect::new(1, 30),
    ]);
    for k in 3..6 {
        let opt = r_selection(&list, k).expect("selection");
        let greedy = greedy_r_selection(&list, k);
        assert!(opt.error <= greedy.error, "k = {k}");
        assert_eq!(staircase::area_between(&list, &opt.positions), opt.error);
    }
}

/// Wheels and slices mix: engine == oracle on a hand-built mixed tree.
#[test]
fn mixed_tree_matches_oracle() {
    let mut t = FloorplanTree::new();
    let w_leaves: Vec<_> = (0..5).map(|m| t.leaf(m)).collect();
    let wheel = t.wheel(
        Chirality::Counterclockwise,
        [
            w_leaves[0],
            w_leaves[1],
            w_leaves[2],
            w_leaves[3],
            w_leaves[4],
        ],
    );
    let side = t.leaf(5);
    t.slice(CutDir::Vertical, vec![wheel, side]);
    let lib = generators::module_library(&t, 3, 4242);
    let engine = optimize(&t, &lib, &OptimizeConfig::default()).expect("runs");
    let (oracle_area, _) = oracle::exhaustive_optimal(&t, &lib, 1 << 22).expect("solvable");
    assert_eq!(engine.area, oracle_area);
}

/// Policy plumbing: theta and prefilter parameters flow through the
/// optimizer configuration and change behaviour monotonically.
#[test]
fn policy_parameters_flow_through() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 5, 8);
    let plain = optimize(&bench.tree, &lib, &OptimizeConfig::default()).expect("runs");

    let strict = OptimizeConfig::default().with_l_selection(LReductionPolicy::new(100));
    let lax =
        OptimizeConfig::default().with_l_selection(LReductionPolicy::new(100).with_theta(0.01));
    let out_strict = optimize(&bench.tree, &lib, &strict).expect("runs");
    let out_lax = optimize(&bench.tree, &lib, &lax).expect("runs");
    // A tiny theta vetoes almost every reduction: quality equals plain.
    assert_eq!(out_lax.area, plain.area);
    assert!(out_lax.stats.l_reductions <= out_strict.stats.l_reductions);
    assert!(out_strict.area >= plain.area);
}

/// The Stockmeyer baseline, the engine, and the oracle all agree on a
/// slicing floorplan (three independent implementations).
#[test]
fn three_way_agreement_on_slicing() {
    let bench = generators::random_floorplan(8, 0.0, 5);
    let lib = generators::module_library(&bench.tree, 3, 6);
    let engine = optimize(&bench.tree, &lib, &OptimizeConfig::default()).expect("runs");
    let (stock_area, stock_assignment) = slicing_optimal(&bench.tree, &lib).expect("slicing");
    let (oracle_area, _) = oracle::exhaustive_optimal(&bench.tree, &lib, 1 << 22).expect("small");
    assert_eq!(engine.area, stock_area);
    assert_eq!(engine.area, oracle_area);
    let layout = realize(&bench.tree, &lib, &stock_assignment).expect("valid");
    assert_eq!(layout.area(), stock_area);
}

/// Out-of-memory failures surface the paper's ">M" semantics: the peak is
/// reported even though the run died.
#[test]
fn oom_reports_peak() {
    let bench = generators::fp2();
    let lib = generators::module_library(&bench.tree, 6, 77);
    let unbounded =
        optimize(&bench.tree, &lib, &OptimizeConfig::default()).expect("fits default budget");
    let budget = unbounded.stats.peak_impls / 2;
    let cfg = OptimizeConfig::default().with_memory_limit(Some(budget));
    match optimize(&bench.tree, &lib, &cfg) {
        Err(OptError::OutOfMemory {
            live, limit, peak, ..
        }) => {
            assert_eq!(limit, budget);
            assert!(live > limit);
            assert!(peak >= live);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

/// Assignments round-trip deterministically: the same configuration always
/// produces the same outcome.
#[test]
fn optimization_is_deterministic() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 4, 3);
    let cfg = OptimizeConfig::default()
        .with_r_selection(8)
        .with_l_selection(LReductionPolicy::new(50));
    let a = optimize(&bench.tree, &lib, &cfg).expect("runs");
    let b = optimize(&bench.tree, &lib, &cfg).expect("runs");
    assert_eq!(a.area, b.area);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.stats.peak_impls, b.stats.peak_impls);
}

/// First-fit (non-optimized) assignments are valid but the optimizer never
/// does worse.
#[test]
fn optimizer_beats_first_fit() {
    for seed in 0..5u64 {
        let bench = generators::random_floorplan(10, 0.5, seed);
        let lib = generators::module_library(&bench.tree, 4, seed + 100);
        let naive = realize(&bench.tree, &lib, &Assignment::first_fit(10)).expect("valid");
        let opt = optimize(&bench.tree, &lib, &OptimizeConfig::default()).expect("runs");
        assert!(opt.area <= naive.area(), "seed {seed}");
    }
}

/// The shipped sample instances load, optimize, and realize.
#[test]
fn shipped_assets_work() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (file, modules) in [("assets/demo.fpt", 10), ("assets/pinwheel.fpt", 5)] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).expect("asset exists");
        let inst = fp_tree::format::parse_instance(&text).expect("asset parses");
        assert_eq!(inst.tree.module_count(), modules, "{file}");
        let out = optimize(&inst.tree, &inst.library, &OptimizeConfig::default()).expect("runs");
        let layout = realize(&inst.tree, &inst.library, &out.assignment).expect("valid");
        assert_eq!(layout.area(), out.area, "{file}");
        assert_eq!(layout.validate(), None, "{file}");
    }
}

/// The domino pinwheel asset tiles its 3x3 envelope exactly.
#[test]
fn pinwheel_asset_is_tight() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/assets/pinwheel.fpt")).expect("exists");
    let inst = fp_tree::format::parse_instance(&text).expect("parses");
    let out = optimize(&inst.tree, &inst.library, &OptimizeConfig::default()).expect("runs");
    assert_eq!(out.area, 9);
    let layout = realize(&inst.tree, &inst.library, &out.assignment).expect("valid");
    assert_eq!(layout.dead_space(), 0);
}

/// The §6 pipeline end-to-end: discretize a continuous shape curve
/// densely, compress it with error-budgeted R_Selection, and floorplan
/// with the compact library — the area stays near the dense optimum.
#[test]
fn shape_curve_compression_pipeline() {
    use fp_select::curve::r_selection_within;
    use fp_tree::curve::ShapeCurve;

    let bench = generators::random_floorplan(6, 0.5, 31);
    let areas = [320u64, 480, 150, 700, 260, 90];

    let dense_lib: ModuleLibrary = areas
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let curve = ShapeCurve::new(a, 3.0).expect("valid");
            Module::new(format!("m{i}"), curve.dense().into_vec())
        })
        .collect();
    let compact_lib: ModuleLibrary = dense_lib
        .iter()
        .map(|m| {
            let sel = r_selection_within(m.implementations(), 8).expect("selects");
            Module::new(
                m.name(),
                m.implementations().subset(&sel.positions).into_vec(),
            )
        })
        .collect();

    let dense_out = optimize(&bench.tree, &dense_lib, &OptimizeConfig::default()).expect("runs");
    let compact_out =
        optimize(&bench.tree, &compact_lib, &OptimizeConfig::default()).expect("runs");
    assert!(compact_out.area >= dense_out.area);
    let excess = (compact_out.area - dense_out.area) as f64 / dense_out.area as f64;
    assert!(
        excess < 0.05,
        "error-budgeted compression stays near-optimal: {excess}"
    );
    // And the compact library is genuinely smaller.
    let dense_total: usize = dense_lib.iter().map(|m| m.implementations().len()).sum();
    let compact_total: usize = compact_lib.iter().map(|m| m.implementations().len()).sum();
    assert!(
        compact_total < dense_total * 3 / 4,
        "{compact_total} vs {dense_total}"
    );
}
