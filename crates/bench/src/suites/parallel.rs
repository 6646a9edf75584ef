//! `parallel`: the tree-parallel scheduler. The paper benchmarks FP1–FP4
//! and the mega-scale family at 1/2/4/8 worker threads, cold cache and
//! warm cache, one `cell` row per benchmark and thread count:
//!
//! * **cold**: no block cache, so the scheduler builds every join;
//! * **warm**: a pre-primed shared cache, so every join reconstitutes.
//!
//! The repetitions are interleaved: each one times every thread count
//! once, starting one thread count later than the last, so a slow host
//! phase that lasts tens of seconds spreads over every column instead of
//! landing on one. Every run's frontier must agree with the
//! single-threaded baseline: the suite doubles as a determinism gate at
//! paper and mega granularity.
//!
//! The benchmarks are FP1–FP4 (`n = 8`), then FP5-10k and FP6-50k;
//! `--all` adds FP7-150k and FP8-500k (long). The gate applies to the
//! last, largest benchmark, which sits far above the auto-serial bound:
//! cold at 4 threads must reach 2× over 1 thread. It is enforced only on
//! full runs on a host with ≥ 4 cores: thread counts above
//! `available_parallelism` cannot speed anything up.
//!
//! `--smoke` runs FP1–FP2 at `n = 4` plus a ~2.5k-module mega instance,
//! at threads 1/2.

use fp_optimizer::{OptimizeConfig, Optimizer, SharedBlockCache};
use fp_tree::mega::{self, MegaConfig};
use fp_tree::{generators, FloorplanTree, ModuleLibrary};

use crate::harness::{fixed, timed, Best, Gate, Run, Suite, SMOKE};

pub(crate) const SUITE: Suite = Suite {
    name: "parallel",
    benchmark: "tree-parallel scheduler cold/warm sweep",
    reps: 3,
    flags: &["--all"],
    constants: &["cache_bytes"],
    kinds: &[(
        "cell",
        &[
            "bench",
            "modules",
            "nodes",
            "area",
            "threads",
            "cold_millis",
            "warm_millis",
            "cold_speedup",
            "warm_speedup",
            "peak_rss_bytes",
        ],
    )],
    gates: &["cold_speedup_at_4_threads"],
    run,
};

/// Block-cache budget for the warm phase (holds the FP6-50k frontier).
const CACHE_BYTES: usize = 1 << 30;
/// Required cold-cache speedup at 4 threads on the largest benchmark.
const SPEEDUP_GATE: f64 = 2.0;

fn run(run: &mut Run) {
    let (sweep, n): (&[usize], usize) = if run.smoke {
        (&[1, 2], 4)
    } else {
        (&[1, 2, 4, 8], 8)
    };
    run.constants(|envelope| {
        envelope.u64("cache_bytes", CACHE_BYTES as u64);
    });

    // The smoke instance sits just above the auto-serial bound
    // (2·2500−1 = 4999 binary nodes ≥ 256·16), so its parallel cells
    // exercise inline subtree tasks at the default split threshold.
    let megas: Vec<(String, MegaConfig)> = if run.smoke {
        let cfg = MegaConfig::new(2_500).with_seed(42);
        vec![(cfg.name(), cfg)]
    } else {
        mega::mega_family()
            .into_iter()
            .filter(|(name, _)| run.all || matches!(*name, "FP5-10k" | "FP6-50k"))
            .map(|(name, cfg)| (name.to_owned(), cfg))
            .collect()
    };

    let mut at4 = None;
    for bench in run.paper_benchmarks() {
        run.progress(format_args!("{} (n = {n}, sweep {sweep:?})", bench.name));
        let library = generators::module_library(&bench.tree, n, 7);
        at4 = sweep_bench(run, &bench.name, &bench.tree, &library, sweep);
    }
    for (name, cfg) in &megas {
        run.progress(format_args!(
            "{name} ({} modules, sweep {sweep:?})",
            cfg.modules
        ));
        let bench = mega::mega_floorplan(cfg);
        let library = mega::mega_library(&bench.tree, cfg);
        at4 = sweep_bench(run, name, &bench.tree, &library, sweep);
    }

    run.gate(
        Gate::at_least("cold_speedup_at_4_threads", SPEEDUP_GATE, at4)
            .skip_if(run.smoke, SMOKE)
            .skip_if(run.cores < 4, format!("{} core(s), needs 4", run.cores)),
    );
}

/// One thread-count cell under construction.
struct Cell {
    threads: usize,
    cold: Best<()>,
    warm: Best<()>,
    /// The harness's peak-RSS reading when this cell's last repetition
    /// finished. The repetitions rotate, so a benchmark's cells finish
    /// their last repetition in rotated order, not left to right: with 3
    /// reps over 1/2/4/8 threads the 4- and 8-thread cells are read
    /// first.
    peak_rss_bytes: u64,
}

/// Sweeps one benchmark over `sweep` and records a row per cell; returns
/// the cold speedup at 4 threads, if the sweep has that cell.
fn sweep_bench(
    run: &mut Run,
    name: &str,
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    sweep: &[usize],
) -> Option<f64> {
    // Single-threaded baseline pins the expected result.
    let baseline = Optimizer::new(tree, library)
        .config(&OptimizeConfig::default().with_threads(1))
        .run_frontier()
        .expect("baseline solves");
    let area = baseline.outcome(0).area;

    // Prime a fresh cache at every thread count; each must reproduce the
    // baseline. The blocks a run commits do not depend on its thread
    // count, so the first primed cache serves every warm run.
    let mut warm_cache = None;
    for &threads in sweep {
        let cache = SharedBlockCache::new(CACHE_BYTES);
        let primed = Optimizer::new(tree, library)
            .config(&OptimizeConfig::default().with_threads(threads))
            .cache(&cache)
            .run_frontier()
            .expect("priming run solves");
        assert_eq!(primed.envelopes(), baseline.envelopes());
        warm_cache.get_or_insert(cache);
    }
    let warm_cache = warm_cache.expect("the sweep has a thread count");

    let mut cells: Vec<Cell> = sweep
        .iter()
        .map(|&threads| Cell {
            threads,
            cold: Best::new(),
            warm: Best::new(),
            peak_rss_bytes: 0,
        })
        .collect();
    for rep in 0..run.reps {
        for k in 0..sweep.len() {
            let cell = &mut cells[(rep + k) % sweep.len()];
            let threads = cell.threads;
            let config = OptimizeConfig::default().with_threads(threads);

            let (elapsed, frontier) = timed(|| {
                Optimizer::new(tree, library)
                    .config(&config)
                    .run_frontier()
                    .expect("cold run solves")
            });
            assert_eq!(
                frontier.envelopes(),
                baseline.envelopes(),
                "{name} @{threads}: frontier diverged from the serial baseline"
            );
            cell.cold.add((elapsed, ()));

            let (elapsed, frontier) = timed(|| {
                Optimizer::new(tree, library)
                    .config(&config)
                    .cache(&warm_cache)
                    .run_frontier()
                    .expect("warm run solves")
            });
            assert_eq!(frontier.stats().cache_misses, 0, "{name}: warm run missed");
            assert_eq!(frontier.envelopes(), baseline.envelopes());
            cell.warm.add((elapsed, ()));

            cell.peak_rss_bytes = run.peak_rss();
        }
    }

    let mut base = None;
    let mut at4 = None;
    for cell in cells {
        let (cold, ()) = cell.cold.finish();
        let (warm, ()) = cell.warm.finish();
        let (base_cold, base_warm) = *base.get_or_insert((cold, warm));
        let cold_speedup = base_cold / cold.max(1e-6);
        if cell.threads == 4 {
            at4 = Some(cold_speedup);
        }
        run.row("cell", |row| {
            row.str("bench", name)
                .u64("modules", library.len() as u64)
                .u64("nodes", tree.len() as u64)
                .u128("area", area)
                .u64("threads", cell.threads as u64)
                .raw("cold_millis", &fixed(cold, 3))
                .raw("warm_millis", &fixed(warm, 3))
                .raw("cold_speedup", &fixed(cold_speedup, 2))
                .raw("warm_speedup", &fixed(base_warm / warm.max(1e-6), 2))
                .u64("peak_rss_bytes", cell.peak_rss_bytes);
        });
    }
    at4
}
