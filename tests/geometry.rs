//! Layout post-processing and staircase-module suites.
//!
//! Two invariants pin the geometry subsystem:
//!
//! * **Conservation** — polygonizing a realized layout is exact in
//!   integer coordinates: whitespace total + Σ block areas == envelope
//!   area, region areas sum to the total, and the report agrees with
//!   the layout's own `dead_space()`. Checked on FP1–FP4, a mega smoke
//!   instance, and a proptest sweep of random floorplans/assignments.
//! * **Byte-identity** — staircase modules are packed by their bounding
//!   boxes, so staircases whose bounding boxes the rect frontier already
//!   holds change no frontier across {1,2,4} threads × cached/uncached,
//!   and pure-rect libraries keep their fingerprints.

use fp_geom::{Rect, Staircase};
use fp_optimizer::{OptimizeConfig, Optimizer, SharedBlockCache};
use fp_tree::fingerprint::module_fingerprint;
use fp_tree::layout::{realize, Assignment, Layout};
use fp_tree::{generators, mega, FloorplanTree, Module, ModuleLibrary, NodeKind};
use proptest::prelude::*;

/// Exact conservation: blocks + whitespace == bounding box, region
/// areas sum to the total, and the scanline agrees with `dead_space()`.
fn assert_conserved(name: &str, layout: &Layout) {
    let poly = layout.polygonize();
    let ws = &poly.whitespace;
    let blocks: u128 = layout.placed.iter().map(|&(_, p)| p.size.area()).sum();
    assert_eq!(
        blocks + ws.total,
        layout.area(),
        "{name}: blocks + whitespace must equal the envelope exactly"
    );
    assert_eq!(ws.total, layout.dead_space(), "{name}: dead-space mismatch");
    let region_sum: u128 = ws.regions.iter().map(|r| r.area).sum();
    assert_eq!(
        region_sum, ws.total,
        "{name}: region areas must sum to total"
    );
    for r in &ws.regions {
        let rect_sum: u128 = r.rects.iter().map(|p| p.size.area()).sum();
        assert_eq!(rect_sum, r.area, "{name}: region decomposition mismatch");
    }
    assert_eq!(ws.largest(), ws.regions.first().map_or(0, |r| r.area));
}

/// A seed-derived assignment touching implementations beyond the first.
fn varied_assignment(tree: &FloorplanTree, library: &ModuleLibrary, seed: u64) -> Assignment {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let choices = tree
        .leaves_in_order()
        .iter()
        .map(|&leaf| {
            let module = match &tree.node(leaf).expect("leaf exists").kind {
                NodeKind::Leaf(m) => *m,
                other => panic!("leaves_in_order returned {other:?}"),
            };
            let n = library[module].implementations().len();
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        })
        .collect();
    Assignment::new(choices)
}

#[test]
fn conservation_on_paper_benchmarks() {
    for bench in [
        generators::fp1(),
        generators::fp2(),
        generators::fp3(),
        generators::fp4(),
    ] {
        let library = generators::module_library(&bench.tree, 4, 11);
        let n = bench.tree.module_count();
        let first = realize(&bench.tree, &library, &Assignment::first_fit(n)).expect("realizes");
        assert_conserved(&bench.name, &first);
        let varied = varied_assignment(&bench.tree, &library, 7);
        let layout = realize(&bench.tree, &library, &varied).expect("realizes");
        assert_conserved(&bench.name, &layout);
    }
}

#[test]
fn conservation_on_an_optimized_placement() {
    let bench = generators::fp1();
    let library = generators::module_library(&bench.tree, 5, 3);
    let outcome = Optimizer::new(&bench.tree, &library)
        .config(&OptimizeConfig::default())
        .run_best()
        .expect("FP1 solves");
    let layout = realize(&bench.tree, &library, &outcome.assignment).expect("realizes");
    assert_eq!(layout.area(), outcome.area);
    assert_conserved("FP1-optimized", &layout);
}

#[test]
fn conservation_on_a_mega_smoke_instance() {
    let cfg = mega::MegaConfig::new(1_500).with_seed(42);
    let bench = mega::mega_floorplan(&cfg);
    let library = mega::mega_library(&bench.tree, &cfg);
    let n = bench.tree.module_count();
    let layout = realize(&bench.tree, &library, &Assignment::first_fit(n)).expect("realizes");
    assert_conserved("mega-smoke", &layout);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Conservation holds for every random floorplan, library, and
    /// implementation choice — wheels included.
    #[test]
    fn conservation_on_random_layouts(
        leaves in 2usize..18,
        tree_seed in 0u64..500,
        lib_seed in 0u64..16,
        impls in 1usize..5,
        choice_seed in 0u64..64,
    ) {
        let bench = generators::random_floorplan(leaves, 0.5, tree_seed);
        let library = generators::module_library(&bench.tree, impls, lib_seed);
        let assignment = varied_assignment(&bench.tree, &library, choice_seed);
        let layout = realize(&bench.tree, &library, &assignment).expect("realizes");
        prop_assert_eq!(layout.validate(), None);
        assert_conserved("random", &layout);
    }
}

/// Attaching staircase geometry whose bounding boxes are already in the
/// rectangular frontier changes neither the implementation list nor any
/// optimization result — while pure-rect modules (no staircases) keep
/// their fingerprints exactly as before staircases existed.
#[test]
fn redundant_staircases_leave_the_selection_path_untouched() {
    let bench = generators::fp1();
    let pure = generators::module_library(&bench.tree, 4, 9);

    // Rebuild the library, attaching to every module a staircase whose
    // bounding box duplicates one of its existing implementations.
    let mut modules = Vec::new();
    for id in 0..pure.len() {
        let m = &pure[id];
        let rects = m.implementations().as_slice().to_vec();
        let probe = rects[id % rects.len()];
        let stair = if probe.w > 1 && probe.h > 1 {
            Staircase::new_canonical(vec![(probe.w, probe.h - 1), (probe.w - 1, probe.h)])
        } else {
            Staircase::from_rect(probe)
        };
        assert_eq!(stair.bounding_box(), probe);
        modules.push(Module::with_staircases(m.name(), rects, vec![stair]));
    }
    let mut decorated = ModuleLibrary::new();
    for m in modules {
        decorated.add(m);
    }

    for id in 0..pure.len() {
        assert_eq!(
            pure[id].implementations(),
            decorated[id].implementations(),
            "redundant staircases must not disturb the rect frontier"
        );
    }

    for threads in [1usize, 2, 4] {
        let config = OptimizeConfig::default()
            .with_threads(threads)
            .with_split_threshold(0)
            .with_r_selection(8);
        for cached in [false, true] {
            let cache_a = SharedBlockCache::new(32 << 20);
            let cache_b = SharedBlockCache::new(32 << 20);
            let run = |library: &ModuleLibrary, cache: &SharedBlockCache| {
                let mut opt = Optimizer::new(&bench.tree, library).config(&config);
                if cached {
                    opt = opt.cache(cache);
                }
                opt.run_frontier().expect("solves")
            };
            let a = run(&pure, &cache_a);
            let b = run(&decorated, &cache_b);
            assert_eq!(
                a.envelopes(),
                b.envelopes(),
                "threads {threads} cached {cached}: frontiers diverged"
            );
            assert_eq!(a.stats().degradations, b.stats().degradations);
            assert_eq!(a.stats().peak_impls, b.stats().peak_impls);
            if cached {
                assert_eq!(
                    a.stats().cache_misses,
                    b.stats().cache_misses,
                    "cache addressing must be identical for identical frontiers"
                );
            }
        }
    }
}

/// The fingerprint contract of the redesign: a module without
/// staircases hashes exactly as it did before staircases existed, so
/// every persisted cache address of a pure-rect/L library survives.
#[test]
fn pure_rect_fingerprints_are_stable_when_staircases_exist() {
    let rects = vec![Rect::new(8, 2), Rect::new(4, 4), Rect::new(2, 8)];
    let classic = Module::new("m", rects.clone());
    let via_new_api = Module::with_staircases("m", rects.clone(), Vec::new());
    assert_eq!(
        module_fingerprint(&classic),
        module_fingerprint(&via_new_api)
    );

    // Whereas real staircase geometry must re-address the module even
    // when its bounding box adds nothing to the rect frontier.
    let stair = Staircase::new_canonical(vec![(8, 1), (7, 2)]);
    assert_eq!(stair.bounding_box(), Rect::new(8, 2));
    let with_geometry = Module::with_staircases("m", rects, vec![stair]);
    assert_eq!(classic.implementations(), with_geometry.implementations());
    assert_ne!(
        module_fingerprint(&classic),
        module_fingerprint(&with_geometry)
    );
}
