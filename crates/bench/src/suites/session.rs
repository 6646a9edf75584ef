//! `session`: cold vs warm vs incremental re-optimization through one
//! [`fp_session::Session`] over the paper's FP1–FP4, one row per phase
//! and benchmark:
//!
//! * **cold**: first optimization, every join built from scratch
//!   (fresh session per repetition);
//! * **warm**: identical re-optimization, every join reconstituted from
//!   the content-addressed block cache;
//! * **incremental**: re-optimization after `update_module` on one leaf,
//!   rebuilding only the leaf's root-path joins.
//!
//! Hit rates are exact counter readings, so incremental misses must stay
//! `O(depth)`. Gate, in every mode: on the largest benchmark a fully
//! warm re-optimization is ≥ 5× faster than a cold one. `--threads N`
//! sets the optimizer's thread count; `--smoke` runs FP1–FP2.

use std::time::Duration;

use fp_geom::{Area, Rect};
use fp_optimizer::OptimizeConfig;
use fp_session::Session;
use fp_tree::generators::module_library;
use fp_tree::{FloorplanTree, Module, ModuleLibrary};

use crate::harness::{best_of, fixed, timed, Gate, Run, Suite};

pub(crate) const SUITE: Suite = Suite {
    name: "session",
    benchmark: "session-subsystem cold/warm/incremental",
    reps: 3,
    flags: &["--threads"],
    constants: &["cache_bytes", "threads"],
    kinds: &[("cold", PHASE), ("warm", PHASE), ("incremental", PHASE)],
    gates: &["warm_speedup"],
    run,
};

/// Keys of every phase row; `speedup` is the cold time over this
/// phase's.
const PHASE: &[&str] = &[
    "bench",
    "n",
    "modules",
    "millis",
    "cache_hits",
    "cache_misses",
    "hit_rate",
    "area",
    "speedup",
];

/// Block-cache budget per benchmark (comfortably holds FP4).
const CACHE_BYTES: usize = 256 << 20;
/// Required warm-over-cold speedup on the largest benchmark.
const WARM_GATE: f64 = 5.0;
/// Implementations per module.
const N: usize = 8;

/// What one optimization reports; repetitions must agree on it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Phase {
    hits: usize,
    misses: usize,
    area: Area,
}

/// Times one `session.optimize()`.
fn time_optimize(session: &mut Session) -> (Duration, Phase) {
    let (elapsed, report) = timed(|| session.optimize().expect("benchmark instance solves"));
    let stats = &report.outcome.stats;
    let phase = Phase {
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        area: report.outcome.area,
    };
    (elapsed, phase)
}

/// The edited stand-in for module 0: a fresh three-point shape list.
fn edited_module(library: &ModuleLibrary) -> Module {
    let name = library.get(0).expect("module 0").name().to_owned();
    Module::new(
        name,
        vec![Rect::new(3, 9), Rect::new(5, 6), Rect::new(9, 3)],
    )
}

fn run(run: &mut Run) {
    let mut config = OptimizeConfig::default();
    if let Some(n) = run.threads {
        config = config.with_threads(n);
    }
    run.constants(|envelope| {
        envelope
            .u64("cache_bytes", CACHE_BYTES as u64)
            .u64("threads", config.resolved_threads() as u64);
    });
    let mut warm_speedup = None;
    for bench in run.paper_benchmarks() {
        run.progress(format_args!("{} (n = {N})", bench.name));
        warm_speedup = Some(phases(run, &bench.name, &bench.tree, &config));
    }
    run.gate(Gate::at_least("warm_speedup", WARM_GATE, warm_speedup));
}

/// Times the three phases on one benchmark and records their rows;
/// returns the warm speedup.
fn phases(run: &mut Run, name: &str, tree: &FloorplanTree, config: &OptimizeConfig) -> f64 {
    let library = module_library(tree, N, 7);
    let open = || Session::open(tree.clone(), library.clone(), config.clone(), CACHE_BYTES);

    // Cold: a fresh session (empty cache) per repetition.
    let cold = best_of(run.reps, || time_optimize(&mut open()));

    // Warm: repeats on one primed session.
    let mut session = open();
    let (_, primed) = time_optimize(&mut session);
    assert_eq!(
        primed.area, cold.1.area,
        "priming run agrees with cold runs"
    );
    let warm = best_of(run.reps, || time_optimize(&mut session));
    assert_eq!(warm.1.misses, 0, "warm repeats must be all hits");
    assert_eq!(cold.1.area, warm.1.area, "{name}: warm run must agree");

    // Incremental: a fresh primed session per repetition (a second run
    // after the edit would find *both* library states warm in cache and
    // measure nothing), then edit module 0 and time the re-optimization
    // that rebuilds only its root-path joins.
    let incremental = best_of(run.reps, || {
        let mut session = open();
        let (_, primed) = time_optimize(&mut session);
        assert_eq!(primed.area, cold.1.area);
        session
            .update_module(0, edited_module(&library))
            .expect("module 0 exists");
        time_optimize(&mut session)
    });

    for (kind, (millis, phase)) in [("cold", cold), ("warm", warm), ("incremental", incremental)] {
        let total = phase.hits + phase.misses;
        run.row(kind, |row| {
            row.str("bench", name)
                .u64("n", N as u64)
                .u64("modules", library.len() as u64)
                .raw("millis", &fixed(millis, 3))
                .u64("cache_hits", phase.hits as u64)
                .u64("cache_misses", phase.misses as u64)
                .raw(
                    "hit_rate",
                    &fixed(
                        if total == 0 {
                            0.0
                        } else {
                            phase.hits as f64 / total as f64
                        },
                        4,
                    ),
                )
                .u128("area", phase.area)
                .raw("speedup", &fixed(cold.0 / millis.max(1e-6), 2));
        });
    }
    cold.0 / warm.0.max(1e-6)
}
