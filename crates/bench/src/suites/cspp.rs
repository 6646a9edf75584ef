//! `cspp`: the selection kernels. The legacy `Dag` DP against the flat
//! layered kernel (dense and auto-dispatched divide-and-conquer).
//!
//! * `synthetic` rows: R-selection instances at n ∈ {64, 256, 1024}
//!   (`K₁ = max(4, n/8)`), with O(1) staircase weights from
//!   [`RErrorPrefix`]. Each row times the legacy materialized-`Dag` DP,
//!   the flat dense kernel and the auto dispatch (which takes the
//!   divide-and-conquer row-minima path on these Monge tables), cold
//!   (fresh arena per call) and warm (reused arena). Every solver's
//!   weight and path are asserted identical.
//! * `floorplan` rows: FP1–FP4 end to end under the selection policies,
//!   with the selection kernels' share of the run
//!   (`RunStats::selection_time`).
//!
//! Gate: the auto kernel must beat the legacy DP by ≥ 3× warm at the
//! largest n (1024), single-threaded; enforced on full runs. `--smoke`
//! runs n ∈ {16, 32} and FP1 only.

use std::fmt::Debug;

use fp_cspp::{
    constrained_shortest_path, constrained_shortest_path_scratch, solve_selection,
    solve_selection_dense, CsppScratch, Dag, FlatKernel,
};
use fp_optimizer::OptimizeConfig;
use fp_select::{LReductionPolicy, RErrorPrefix};
use fp_tree::generators::{self, module_library, Benchmark};

use crate::ablation::synthetic_rlist;
use crate::harness::{best_of, fixed, timed, Gate, Run, Suite, SMOKE};
use crate::optimize_best;

pub(crate) const SUITE: Suite = Suite {
    name: "cspp",
    benchmark: "flat layered CSPP selection kernel",
    reps: 7,
    flags: &[],
    constants: &[],
    kinds: &[
        (
            "synthetic",
            &[
                "n",
                "k",
                "legacy_cold_micros",
                "legacy_warm_micros",
                "dense_cold_micros",
                "dense_warm_micros",
                "auto_cold_micros",
                "auto_warm_micros",
                "auto_kernel",
                "speedup_warm",
            ],
        ),
        (
            "floorplan",
            &[
                "bench",
                "total_millis",
                "selection_millis",
                "selection_share_pct",
            ],
        ),
    ],
    gates: &["auto_warm_speedup"],
    run,
};

/// Required warm speedup of the auto-dispatched flat kernel over the
/// legacy `Dag` DP at the largest synthetic size.
const SPEEDUP_GATE: f64 = 3.0;

fn run(run: &mut Run) {
    let sizes: &[usize] = if run.smoke {
        &[16, 32]
    } else {
        &[64, 256, 1024]
    };
    let mut speedup = None;
    for &n in sizes {
        run.progress(format_args!("synthetic n = {n}"));
        speedup = Some(synthetic(run, n));
    }

    // FP1–FP4 under the table protocols' selection policies; sizes are
    // kept modest so the full run stays in seconds.
    let r = |k1| OptimizeConfig::default().with_r_selection(k1);
    let cases: Vec<(&str, Benchmark, usize, OptimizeConfig)> = if run.smoke {
        vec![("FP1", generators::fp1(), 4, r(6))]
    } else {
        vec![
            ("FP1", generators::fp1(), 12, r(18)),
            ("FP2", generators::fp2(), 10, r(15)),
            ("FP3", generators::fp3(), 8, r(12)),
            (
                "FP4",
                generators::fp4(),
                8,
                r(12).with_l_selection(LReductionPolicy::new(500).with_prefilter(2000)),
            ),
        ]
    };
    for (name, bench, n, config) in &cases {
        run.progress(format_args!("floorplan {name} (n = {n})"));
        let library = module_library(&bench.tree, *n, 7);
        let out = optimize_best(&bench.tree, &library, config).expect("benchmark run solves");
        let total = out.stats.elapsed.as_secs_f64() * 1e3;
        let selection = out.stats.selection_time.as_secs_f64() * 1e3;
        run.row("floorplan", |row| {
            row.str("bench", name)
                .raw("total_millis", &fixed(total, 3))
                .raw("selection_millis", &fixed(selection, 3))
                .raw(
                    "selection_share_pct",
                    &fixed(100.0 * selection / total.max(1e-9), 2),
                );
        });
    }

    run.gate(Gate::at_least("auto_warm_speedup", SPEEDUP_GATE, speedup).skip_if(run.smoke, SMOKE));
}

/// The best time of `solve` in microseconds; every call must return
/// `reference`.
fn micros<W: PartialEq + Debug>(reps: usize, reference: W, mut solve: impl FnMut() -> W) -> f64 {
    let (millis, weight) = best_of(reps, || timed(&mut solve));
    assert_eq!(
        weight, reference,
        "a timed solve diverged from the reference"
    );
    millis * 1e3
}

/// One synthetic size: staircase (Monge) R-error weights over the
/// irreducible list, all six (solver, arena) combinations timed and
/// cross-checked for byte-identical selections. Records the row and
/// returns its warm auto-over-legacy speedup.
fn synthetic(run: &mut Run, n_req: usize) -> f64 {
    let reps = run.reps;
    let list = synthetic_rlist(n_req);
    let prefix = RErrorPrefix::new(&list);
    let n = prefix.len();
    assert!(n >= 4, "synthetic list too small after pruning");
    let k = (n / 8).max(4);
    let w = |i: usize, j: usize| prefix.error(i, j);

    // Reference: the legacy materialized-DAG DP.
    let g = Dag::complete(n, w);
    let reference = constrained_shortest_path(&g, 0, n - 1, k).expect("complete DAG is solvable");

    let mut warm = CsppScratch::new();
    let auto_out = solve_selection(n, k, w, &mut warm).expect("solvable");
    let auto_kernel = match auto_out.kernel {
        FlatKernel::Dense => "dense",
        FlatKernel::DivideConquer => "divide_conquer",
    };
    assert_eq!(
        auto_out.weight, reference.weight,
        "n = {n}: weight diverged"
    );
    assert_eq!(
        warm.path(),
        &reference.vertices[..],
        "n = {n}: path diverged"
    );
    let dense_out = solve_selection_dense(n, k, w, &mut warm).expect("solvable");
    assert_eq!(dense_out.weight, reference.weight);
    assert_eq!(warm.path(), &reference.vertices[..]);

    let weight = reference.weight;
    let legacy_cold = micros(reps, weight, || {
        constrained_shortest_path(&g, 0, n - 1, k)
            .expect("solvable")
            .weight
    });
    let legacy_warm = micros(reps, weight, || {
        constrained_shortest_path_scratch(&g, 0, n - 1, k, &mut warm).expect("solvable")
    });
    let dense_cold = micros(reps, weight, || {
        let mut fresh = CsppScratch::new();
        solve_selection_dense(n, k, w, &mut fresh)
            .expect("solvable")
            .weight
    });
    let dense_warm = micros(reps, weight, || {
        solve_selection_dense(n, k, w, &mut warm)
            .expect("solvable")
            .weight
    });
    let auto_cold = micros(reps, weight, || {
        let mut fresh = CsppScratch::new();
        solve_selection(n, k, w, &mut fresh)
            .expect("solvable")
            .weight
    });
    let auto_warm = micros(reps, weight, || {
        solve_selection(n, k, w, &mut warm)
            .expect("solvable")
            .weight
    });
    let speedup = legacy_warm / auto_warm.max(1e-3);

    run.row("synthetic", |row| {
        row.u64("n", n as u64)
            .u64("k", k as u64)
            .raw("legacy_cold_micros", &fixed(legacy_cold, 2))
            .raw("legacy_warm_micros", &fixed(legacy_warm, 2))
            .raw("dense_cold_micros", &fixed(dense_cold, 2))
            .raw("dense_warm_micros", &fixed(dense_warm, 2))
            .raw("auto_cold_micros", &fixed(auto_cold, 2))
            .raw("auto_warm_micros", &fixed(auto_warm, 2))
            .str("auto_kernel", auto_kernel)
            .raw("speedup_warm", &fixed(speedup, 2));
    });
    speedup
}
