//! `netlist`: the wirelength (HPWL) evaluator and the Pareto frontier,
//! against a seeded random netlist bound to each paper benchmark's
//! module library.
//!
//! * `hpwl` rows: replay an annealer-style probe sequence (each step a
//!   single-module implementation what-if against a pinned base layout,
//!   built up front so only the evaluation is timed) through a
//!   persistent incremental [`HpwlEvaluator`] and through full per-step
//!   recomputation. Both totals must agree exactly at every step.
//! * `pareto` rows: the multi-objective frontier sweep
//!   ([`Optimizer::run_pareto`]): the non-dominated front size, the
//!   envelopes evaluated, and the normalized hypervolume.
//!
//! Gates, in every mode: the incremental pass must beat full
//! recomputation by ≥ 5× on every row (that factor is the whole point
//! of the incremental bounding boxes), and ≥ 2 benchmarks must produce
//! a front of ≥ 3 points, or the trade-off surface has collapsed.
//! `--smoke` runs FP1–FP2 with 300 moves.

use fp_optimizer::{random_netlist, BoundNetlist, HpwlEvaluator, Optimizer};
use fp_prng::Xoshiro256;
use fp_tree::generators;
use fp_tree::layout::{realize, Assignment, Layout};
use fp_tree::{FloorplanTree, ModuleLibrary, NodeKind};

use crate::harness::{fixed, timed, Best, Gate, Run, Suite};

pub(crate) const SUITE: Suite = Suite {
    name: "netlist",
    benchmark: "netlist HPWL evaluator and Pareto frontier",
    reps: 3,
    flags: &[],
    constants: &["impls_per_module", "nets", "net_seed"],
    kinds: &[
        (
            "hpwl",
            &[
                "bench",
                "modules",
                "nets",
                "moves",
                "full_millis",
                "incremental_millis",
                "incremental_evals_per_sec",
                "speedup",
            ],
        ),
        (
            "pareto",
            &["bench", "front_size", "evaluated", "hypervolume"],
        ),
    ],
    gates: &["incremental_speedup", "benches_with_3_point_fronts"],
    run,
};

/// Implementations per module: wide libraries give the frontier sweep
/// a real trade-off surface to walk.
const IMPLS: usize = 16;
/// Module-set seed (matches the `tables` benchmark convention).
const LIB_SEED: u64 = 1;
/// Nets in the generated netlist and its seed.
const NETS: usize = 800;
const NET_SEED: u64 = 3;
/// The incremental evaluator must beat full recomputation by at least
/// this factor on every benchmark.
const MIN_SPEEDUP: f64 = 5.0;
/// At least `MIN_FRONTED` benchmarks must yield a Pareto front with
/// `MIN_FRONT`+ mutually non-dominated points.
const MIN_FRONT: usize = 3;
const MIN_FRONTED: f64 = 2.0;

fn run(run: &mut Run) {
    let moves = if run.smoke { 300 } else { 2_000 };
    run.constants(|envelope| {
        envelope
            .u64("impls_per_module", IMPLS as u64)
            .u64("nets", NETS as u64)
            .u64("net_seed", NET_SEED);
    });

    let mut slowest = f64::INFINITY;
    let mut fronted = 0usize;
    for bench in run.paper_benchmarks() {
        let (name, tree) = (&bench.name, &bench.tree);
        run.progress(format_args!("{name}: {NETS} nets, {moves} moves"));
        let library = generators::module_library(tree, IMPLS, LIB_SEED);
        let netlist = random_netlist(&library, NETS, NET_SEED);
        let bound = netlist.bind(&library).expect("generated netlist binds");

        let (steps, full_millis, inc_millis) =
            hpwl_timings(tree, &library, &bound, moves, run.reps);
        let speedup = if inc_millis > 0.0 {
            full_millis / inc_millis
        } else {
            0.0
        };
        let evals_per_sec = if inc_millis > 0.0 {
            steps as f64 / (inc_millis / 1e3)
        } else {
            0.0
        };
        slowest = slowest.min(speedup);
        run.row("hpwl", |row| {
            row.str("bench", name)
                .u64("modules", library.len() as u64)
                .u64("nets", netlist.nets.len() as u64)
                .u64("moves", moves as u64)
                .raw("full_millis", &fixed(full_millis, 3))
                .raw("incremental_millis", &fixed(inc_millis, 3))
                .raw("incremental_evals_per_sec", &fixed(evals_per_sec, 0))
                .raw("speedup", &fixed(speedup, 2));
        });

        let pareto = Optimizer::new(tree, &library)
            .run_pareto(&bound)
            .expect("benchmark frontier enumerates");
        let ref_area = pareto.front.iter().map(|p| p.area).max().unwrap_or(0) * 11 / 10 + 1;
        let ref_hpwl = pareto.front.iter().map(|p| p.hpwl).max().unwrap_or(0) * 11 / 10 + 1;
        fronted += usize::from(pareto.front.len() >= MIN_FRONT);
        run.row("pareto", |row| {
            row.str("bench", name)
                .u64("front_size", pareto.front.len() as u64)
                .u64("evaluated", pareto.evaluated as u64)
                .raw(
                    "hypervolume",
                    &fixed(
                        fp_optimizer::hypervolume(&pareto.front, ref_area, ref_hpwl),
                        6,
                    ),
                );
        });
    }

    run.gate(Gate::at_least(
        "incremental_speedup",
        MIN_SPEEDUP,
        Some(slowest),
    ));
    run.gate(Gate::at_least(
        "benches_with_3_point_fronts",
        MIN_FRONTED,
        Some(fronted as f64),
    ));
}

/// A deterministic annealer-style probe sequence: each step is a
/// single-module what-if. One leaf's implementation choice flips and
/// its placed rectangle is re-sized in place, every other placement
/// pinned (the annealer's candidate-probing regime, where a full
/// re-realize is deferred until a move is accepted). Layouts are built
/// up front so the timed loops measure evaluation only.
fn move_sequence(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    moves: usize,
) -> (Vec<Assignment>, Vec<Layout>) {
    let leaves = tree.leaves_in_order();
    let counts: Vec<usize> = leaves
        .iter()
        .map(|&leaf| match tree.node(leaf).map(|n| n.kind) {
            Some(NodeKind::Leaf(m)) => library
                .get(m)
                .map_or(1, |module| module.implementations().len().max(1)),
            _ => 1,
        })
        .collect();
    let mut choices = vec![0usize; leaves.len()];
    let base = Assignment::new(choices.clone());
    let mut layout = realize(tree, library, &base).expect("base assignment realizes");

    let mut rng = Xoshiro256::seed_from_u64(0xbe5c);
    let mut assignments = vec![base];
    let mut layouts = vec![layout.clone()];
    for _ in 0..moves {
        let slot = rng.gen_range(0..leaves.len());
        let choice = rng.gen_range(0..counts[slot]);
        let module = match tree.node(leaves[slot]).map(|n| n.kind) {
            Some(NodeKind::Leaf(m)) => m,
            _ => continue,
        };
        let Some(size) = library
            .get(module)
            .and_then(|m| m.implementations().get(choice))
        else {
            continue;
        };
        choices[slot] = choice;
        for (leaf, rect) in &mut layout.placed {
            if *leaf == leaves[slot] {
                rect.size = size;
            }
        }
        assignments.push(Assignment::new(choices.clone()));
        layouts.push(layout.clone());
    }
    (assignments, layouts)
}

/// The probe sequence's length, and its best full and incremental times
/// in milliseconds, after checking that both agree at every step.
fn hpwl_timings(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    bound: &BoundNetlist,
    moves: usize,
    reps: usize,
) -> (usize, f64, f64) {
    let (assignments, layouts) = move_sequence(tree, library, moves);
    // Each repetition times both passes, incremental first.
    let (mut inc, mut full) = (Best::new(), Best::new());
    for _ in 0..reps {
        // Incremental: one persistent evaluator across the walk.
        let mut evaluator = HpwlEvaluator::new(bound);
        inc.add(timed(|| {
            assignments
                .iter()
                .zip(&layouts)
                .map(|(a, l)| {
                    evaluator
                        .update(tree, l, a)
                        .expect("netlist binds the tree")
                })
                .collect::<Vec<_>>()
        }));
        // Full: every step recomputes every net from scratch.
        let mut evaluator = HpwlEvaluator::new(bound);
        full.add(timed(|| {
            assignments
                .iter()
                .zip(&layouts)
                .map(|(a, l)| evaluator.evaluate_full(tree, l, a).expect("netlist binds"))
                .collect::<Vec<_>>()
        }));
    }
    let ((inc_millis, inc_totals), (full_millis, full_totals)) = (inc.finish(), full.finish());
    assert_eq!(
        inc_totals, full_totals,
        "incremental and full HPWL must agree at every step"
    );
    (assignments.len(), full_millis, inc_millis)
}
