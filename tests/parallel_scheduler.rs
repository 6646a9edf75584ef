//! The tree-level scheduler's determinism contract, end to end: at any
//! thread count the optimizer's output is byte-identical to the serial
//! path — same non-redundant frontier, same `DegradationEvent` sequence,
//! same governor counters — on clean runs, on cache-backed runs, and on
//! runs that trip the governor and descend the rescue ladder.

use std::time::Duration;

use fp_optimizer::{
    shared_cache_stats, BlockCache, CancelToken, FaultPlan, Frontier, OptError, OptimizeConfig,
    Optimizer, RunOutcome, RunStats, SharedBlockCache,
};
use fp_select::LReductionPolicy;
use fp_tree::generators::{self, Benchmark};
use fp_tree::{FloorplanTree, ModuleLibrary};

/// Facade shorthand keeping this suite's call sites compact.
fn optimize_frontier(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<Frontier, OptError> {
    Optimizer::new(tree, library).config(config).run_frontier()
}

/// Facade shorthand for the cache-backed runs.
fn optimize_frontier_cached(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    cache: &(dyn BlockCache + Sync),
) -> Result<Frontier, OptError> {
    Optimizer::new(tree, library)
        .config(config)
        .cache(cache)
        .run_frontier()
}

/// Facade shorthand for the report-carrying runs.
fn optimize_report(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<RunOutcome, OptError> {
    Optimizer::new(tree, library).config(config).run()
}

const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Split granularities swept alongside thread counts: `0` pins the
/// per-node scheduling the pool shipped with, `4` forces small inline
/// subtree tasks, and `16` mixes inline ranges with auto-serial
/// resolution on the smaller benchmarks. The default threshold would
/// auto-serialize every paper-sized tree, hiding the pool entirely.
const SPLITS: [usize; 3] = [0, 4, 16];

fn benches() -> Vec<(Benchmark, ModuleLibrary)> {
    let mut out = Vec::new();
    for bench in generators::paper_benchmarks() {
        let lib = generators::module_library(&bench.tree, 4, 7);
        out.push((bench, lib));
    }
    for seed in [11u64, 29, 53] {
        let bench = generators::random_floorplan(24, 0.5, seed);
        let lib = generators::module_library(&bench.tree, 5, seed);
        out.push((bench, lib));
    }
    out
}

/// Everything in [`RunStats`] except wall-clock time must match.
fn assert_stats_identical(serial: &RunStats, parallel: &RunStats, label: &str) {
    assert_eq!(serial.generated, parallel.generated, "{label}: generated");
    assert_eq!(serial.peak_impls, parallel.peak_impls, "{label}: peak");
    assert_eq!(serial.final_impls, parallel.final_impls, "{label}: final");
    assert_eq!(serial.max_r_block, parallel.max_r_block, "{label}: max_r");
    assert_eq!(serial.max_l_block, parallel.max_l_block, "{label}: max_l");
    assert_eq!(
        serial.r_reductions, parallel.r_reductions,
        "{label}: r_reductions"
    );
    assert_eq!(
        serial.l_reductions, parallel.l_reductions,
        "{label}: l_reductions"
    );
    assert_eq!(serial.cache_hits, parallel.cache_hits, "{label}: hits");
    assert_eq!(
        serial.cache_misses, parallel.cache_misses,
        "{label}: misses"
    );
    assert_eq!(
        serial.degradations, parallel.degradations,
        "{label}: degradation sequence"
    );
    assert_eq!(
        serial.rescue_attempts, parallel.rescue_attempts,
        "{label}: rescue attempts"
    );
}

/// Clean runs: every thread count reproduces the serial frontier,
/// stats, and traced-back assignment byte for byte.
#[test]
fn thread_sweep_clean_runs_are_bit_identical() {
    for (bench, lib) in benches() {
        let base = OptimizeConfig::default().with_threads(1);
        let serial = optimize_frontier(&bench.tree, &lib, &base).expect("serial run solves");
        for threads in SWEEP {
            for split in SPLITS {
                let config = OptimizeConfig::default()
                    .with_threads(threads)
                    .with_split_threshold(split);
                let parallel =
                    optimize_frontier(&bench.tree, &lib, &config).expect("parallel run solves");
                let label = format!("{} @{threads}/split {split}", bench.name);
                assert_eq!(
                    serial.envelopes(),
                    parallel.envelopes(),
                    "{label}: frontier"
                );
                assert_stats_identical(serial.stats(), parallel.stats(), &label);
                assert_eq!(
                    serial.outcome(0).assignment,
                    parallel.outcome(0).assignment,
                    "{label}: assignment"
                );
            }
        }
    }
}

/// Selection policies (R and L, including the per-join parallel
/// L-reduction) compose with the tree-level pool without changing
/// results.
#[test]
fn thread_sweep_with_selection_policies() {
    for (bench, lib) in benches() {
        let config = |threads: usize| {
            OptimizeConfig::default()
                .with_r_selection(12)
                .with_l_selection(LReductionPolicy::new(24).with_theta(0.8).with_workers(2))
                .with_threads(threads)
                .with_split_threshold(4)
        };
        let serial = optimize_frontier(&bench.tree, &lib, &config(1)).expect("serial run solves");
        for threads in SWEEP {
            let parallel =
                optimize_frontier(&bench.tree, &lib, &config(threads)).expect("parallel solves");
            let label = format!("{} selection @{threads}", bench.name);
            assert_eq!(serial.envelopes(), parallel.envelopes(), "{label}");
            assert_stats_identical(serial.stats(), parallel.stats(), &label);
        }
    }
}

/// Governor-rescued runs: a tight budget sends every thread count down
/// the same rescue ladder — identical degradation events, identical
/// final answer (the parallel pass detects the would-be trip in its
/// serial-schedule replay and defers to the serial path wholesale).
#[test]
fn thread_sweep_rescued_runs_are_bit_identical() {
    for (bench, lib) in benches() {
        let plain = optimize_frontier(&bench.tree, &lib, &OptimizeConfig::default())
            .expect("plain run solves");
        let budget = (plain.stats().peak_impls * 2 / 3).max(1);
        let config = |threads: usize| {
            OptimizeConfig::default()
                .with_l_selection(LReductionPolicy::new(64))
                .with_memory_limit(Some(budget))
                .with_auto_rescue(true)
                .with_threads(threads)
                .with_split_threshold(4)
        };
        let serial = optimize_report(&bench.tree, &lib, &config(1));
        for threads in SWEEP {
            let parallel = optimize_report(&bench.tree, &lib, &config(threads));
            let label = format!("{} rescued @{threads}", bench.name);
            match (&serial, &parallel) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(s.rescued, p.rescued, "{label}: rescue flag");
                    assert_eq!(s.outcome.area, p.outcome.area, "{label}: area");
                    assert_eq!(s.outcome.assignment, p.outcome.assignment, "{label}");
                    assert_stats_identical(&s.outcome.stats, &p.outcome.stats, &label);
                }
                (Err(se), Err(pe)) => {
                    assert_eq!(se.to_string(), pe.to_string(), "{label}: error");
                }
                (s, p) => panic!("{label}: paths diverged: {s:?} vs {p:?}"),
            }
        }
    }
}

/// Injected faults land on the same generated-candidate ordinal at any
/// thread count, so the rescued outcome is identical too.
#[test]
fn thread_sweep_fault_plans_are_bit_identical() {
    let bench = generators::fp2();
    let lib = generators::module_library(&bench.tree, 4, 7);
    let plain =
        optimize_frontier(&bench.tree, &lib, &OptimizeConfig::default()).expect("plain solves");
    let midpoint = plain.stats().generated / 2;
    let config = |threads: usize| {
        OptimizeConfig::default()
            .with_fault_plan(Some(FaultPlan::at_allocations(&[midpoint])))
            .with_auto_rescue(true)
            .with_threads(threads)
            .with_split_threshold(0)
    };
    let serial = optimize_report(&bench.tree, &lib, &config(1)).expect("serial rescue solves");
    for threads in SWEEP {
        let parallel =
            optimize_report(&bench.tree, &lib, &config(threads)).expect("parallel rescue solves");
        assert_eq!(serial.rescued, parallel.rescued, "@{threads}: rescue flag");
        assert_eq!(serial.outcome.area, parallel.outcome.area, "@{threads}");
        assert_stats_identical(
            &serial.outcome.stats,
            &parallel.outcome.stats,
            &format!("fault @{threads}"),
        );
    }
}

/// Cache-backed runs: cold-then-warm pairs produce the same frontiers
/// and the same hit/miss counters at every thread count, and a cache
/// warmed at one thread count serves any other.
#[test]
fn thread_sweep_with_shared_cache() {
    let bench = generators::fp3();
    let lib = generators::module_library(&bench.tree, 4, 7);
    let mut baseline = None;
    for threads in SWEEP {
        let config = OptimizeConfig::default()
            .with_threads(threads)
            .with_split_threshold(4);
        let cache = SharedBlockCache::new(64 << 20);
        let cold =
            optimize_frontier_cached(&bench.tree, &lib, &config, &cache).expect("cold solves");
        let warm =
            optimize_frontier_cached(&bench.tree, &lib, &config, &cache).expect("warm solves");
        assert_eq!(cold.envelopes(), warm.envelopes(), "@{threads}: warm drift");
        assert_eq!(warm.stats().cache_misses, 0, "@{threads}: warm misses");
        assert!(warm.stats().cache_hits > 0, "@{threads}: warm hits");
        let snapshot = (
            cold.envelopes().clone(),
            cold.stats().cache_hits,
            cold.stats().cache_misses,
            warm.stats().cache_hits,
            shared_cache_stats(&cache).insertions,
        );
        match &baseline {
            None => baseline = Some(snapshot),
            Some(expect) => assert_eq!(expect, &snapshot, "@{threads}: cache counters diverge"),
        }
    }
    // Cross-thread-count reuse: warm at 1 thread, serve at 4.
    let cache = SharedBlockCache::new(64 << 20);
    let at1 = optimize_frontier_cached(
        &bench.tree,
        &lib,
        &OptimizeConfig::default().with_threads(1),
        &cache,
    )
    .expect("serial warmup solves");
    let at4 = optimize_frontier_cached(
        &bench.tree,
        &lib,
        &OptimizeConfig::default()
            .with_threads(4)
            .with_split_threshold(4),
        &cache,
    )
    .expect("parallel reuse solves");
    assert_eq!(at1.envelopes(), at4.envelopes());
    assert_eq!(
        at4.stats().cache_misses,
        0,
        "parallel run misses warm cache"
    );
}

/// A token cancelled before the run starts aborts the pool immediately.
#[test]
fn precancelled_token_cancels_the_parallel_run() {
    let bench = generators::fp2();
    let lib = generators::module_library(&bench.tree, 4, 7);
    let token = CancelToken::new();
    token.cancel();
    let config = OptimizeConfig::default()
        .with_cancel(Some(token))
        .with_threads(4)
        .with_split_threshold(4);
    match optimize_frontier(&bench.tree, &lib, &config) {
        Err(OptError::Cancelled { .. }) => {}
        Err(other) => panic!("expected Cancelled, got {other:?}"),
        Ok(_) => panic!("expected Cancelled, got a clean run"),
    }
}

/// Cancelling mid-flight from another thread stops every in-flight
/// worker: the run returns promptly with either the cancellation error
/// or (if it won the race) a clean result — never a hang or a panic.
#[test]
fn mid_flight_cancellation_stops_the_pool() {
    let bench = generators::random_floorplan(48, 0.5, 97);
    let lib = generators::module_library(&bench.tree, 6, 3);
    let token = CancelToken::new();
    let config = OptimizeConfig::default()
        .with_cancel(Some(token.clone()))
        .with_threads(4)
        .with_split_threshold(0);
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        token.cancel();
    });
    let result = optimize_frontier(&bench.tree, &lib, &config);
    canceller.join().expect("canceller joins");
    match result {
        Ok(frontier) => assert!(!frontier.envelopes().is_empty(), "clean win has a frontier"),
        Err(OptError::Cancelled { .. }) => {}
        Err(other) => panic!("expected Ok or Cancelled, got {other:?}"),
    }
}

/// The mega family obeys the same determinism contract as the paper
/// benchmarks: the FP5-sized 10k-module instance (far above the
/// auto-serial bound at the default split threshold) produces the
/// same frontier, stats, and assignment at every thread count and split
/// granularity.
#[test]
fn mega_instance_thread_sweep_is_bit_identical() {
    use fp_tree::mega::{mega_floorplan, mega_library, MegaConfig};
    let cfg = MegaConfig::new(10_000).with_seed(42);
    let bench = mega_floorplan(&cfg);
    let lib = mega_library(&bench.tree, &cfg);
    let serial = optimize_frontier(
        &bench.tree,
        &lib,
        &OptimizeConfig::default().with_threads(1),
    )
    .expect("serial mega run solves");
    for threads in SWEEP {
        for split in SPLITS {
            let config = OptimizeConfig::default()
                .with_threads(threads)
                .with_split_threshold(split);
            let parallel =
                optimize_frontier(&bench.tree, &lib, &config).expect("parallel mega run solves");
            let label = format!("mega-10k @{threads}/split {split}");
            assert_eq!(
                serial.envelopes(),
                parallel.envelopes(),
                "{label}: frontier"
            );
            assert_stats_identical(serial.stats(), parallel.stats(), &label);
            assert_eq!(
                serial.outcome(0).assignment,
                parallel.outcome(0).assignment,
                "{label}: assignment"
            );
        }
    }
}

/// `threads: 0` resolves to the machine's available parallelism and
/// still matches the serial result.
#[test]
fn auto_thread_count_matches_serial() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 3, 1);
    let serial = optimize_frontier(
        &bench.tree,
        &lib,
        &OptimizeConfig::default().with_threads(1),
    )
    .expect("serial solves");
    let auto = optimize_frontier(
        &bench.tree,
        &lib,
        &OptimizeConfig::default()
            .with_threads(0)
            .with_split_threshold(0),
    )
    .expect("auto solves");
    assert_eq!(serial.envelopes(), auto.envelopes());
    assert_stats_identical(serial.stats(), auto.stats(), "auto threads");
}

/// The per-task replay fold decides budget and fault-plan trips exactly
/// where the serial meter does, at the task size derived from the tree
/// (default split threshold, the FP5-sized 10k-module mega instance): a
/// budget of exactly the serial peak runs clean and one below trips, and
/// a fault at the serial run's last generated ordinal trips while one
/// past it does not — with and without the rescue ladder, each parallel
/// run equal to the serial one in frontier, stats, degradations and
/// error text.
#[test]
fn mega_instance_budget_and_fault_boundaries_match_serial() {
    use fp_tree::mega::{mega_floorplan, mega_library, MegaConfig};
    let cfg = MegaConfig::new(10_000).with_seed(42);
    let bench = mega_floorplan(&cfg);
    let lib = mega_library(&bench.tree, &cfg);
    let plain = optimize_frontier(
        &bench.tree,
        &lib,
        &OptimizeConfig::default().with_threads(1),
    )
    .expect("serial mega run solves");
    let peak = plain.stats().peak_impls;
    let generated = plain.stats().generated;
    let mut cases = Vec::new();
    for rescue in [false, true] {
        for (limit, trips) in [(peak, false), (peak - 1, true)] {
            let config = OptimizeConfig::default()
                .with_memory_limit(Some(limit))
                .with_auto_rescue(rescue);
            cases.push((format!("budget {limit}"), config, rescue, trips));
        }
        for (point, trips) in [(generated, true), (generated + 1, false)] {
            let config = OptimizeConfig::default()
                .with_fault_plan(Some(FaultPlan::at_allocations(&[point])))
                .with_auto_rescue(rescue);
            cases.push((format!("fault at {point}"), config, rescue, trips));
        }
    }
    for (what, config, rescue, trips) in cases {
        let label = format!("mega-10k {what}, rescue {rescue}");
        let serial = optimize_frontier(&bench.tree, &lib, &config.clone().with_threads(1));
        // The boundary is where the serial run says it is: a clean run
        // without degradations, an error, or a rescued run.
        match &serial {
            Ok(s) => assert_eq!(
                !s.stats().degradations.is_empty(),
                trips,
                "{label}: serial degradations"
            ),
            Err(e) => assert!(trips && !rescue, "{label}: serial error {e}"),
        }
        for threads in [2, 4] {
            let parallel =
                optimize_frontier(&bench.tree, &lib, &config.clone().with_threads(threads));
            let label = format!("{label} @{threads}");
            match (&serial, &parallel) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(s.envelopes(), p.envelopes(), "{label}: frontier");
                    assert_stats_identical(s.stats(), p.stats(), &label);
                    assert_eq!(
                        s.outcome(0).assignment,
                        p.outcome(0).assignment,
                        "{label}: assignment"
                    );
                }
                (Err(se), Err(pe)) => {
                    assert_eq!(se.to_string(), pe.to_string(), "{label}: error");
                }
                (s, p) => panic!(
                    "{label}: paths diverged: serial {:?} vs parallel {:?}",
                    s.as_ref().err(),
                    p.as_ref().err()
                ),
            }
        }
    }
}

/// A clean run keeps its parallel pass. The serial fallback reproduces
/// every result byte for byte, so no determinism check above would
/// notice a scheduler that always falls back; the trace does. Only a
/// committed parallel pass emits the `replay` phase span, and a
/// discarded one emits `replay_discard`. The runs: the 10k-module mega
/// instance at the derived task size on 2 and 4 threads and on 2
/// threads with a shared block cache, and FP4 at split threshold 0,
/// where every join is a task of its own, built by the worker that
/// publishes its second child.
#[test]
fn clean_parallel_runs_commit_the_parallel_pass() {
    use fp_optimizer::{PhaseName, TraceEvent, Tracer};
    use fp_tree::mega::{mega_floorplan, mega_library, MegaConfig};
    let cfg = MegaConfig::new(10_000).with_seed(42);
    let mega = mega_floorplan(&cfg);
    let mega_lib = mega_library(&mega.tree, &cfg);
    let fp4 = generators::fp4();
    let fp4_lib = generators::module_library(&fp4.tree, 4, 7);
    let cache = SharedBlockCache::new(64 << 20);
    let at = |threads: usize| OptimizeConfig::default().with_threads(threads);
    let runs = [
        ("mega-10k @2", &mega, &mega_lib, at(2), false),
        ("mega-10k @4", &mega, &mega_lib, at(4), false),
        ("mega-10k @2 cached", &mega, &mega_lib, at(2), true),
        (
            "fp4 @2/split 0",
            &fp4,
            &fp4_lib,
            at(2).with_split_threshold(0),
            false,
        ),
    ];
    for (label, bench, lib, config, cached) in runs {
        let tracer = Tracer::with_capacity(1 << 20);
        let mut run = Optimizer::new(&bench.tree, lib)
            .config(&config)
            .tracer(&tracer);
        if cached {
            run = run.cache(&cache);
        }
        run.run_frontier().expect("clean run solves");
        let trace = tracer.drain();
        assert_eq!(trace.dropped, 0, "{label}: dropped events");
        let count =
            |pick: fn(&TraceEvent) -> bool| trace.events.iter().filter(|r| pick(&r.event)).count();
        assert_eq!(
            count(|e| matches!(e, TraceEvent::ReplayDiscard { .. })),
            0,
            "{label}: replay discards"
        );
        assert_eq!(
            count(|e| matches!(
                e,
                TraceEvent::Phase {
                    name: PhaseName::Replay,
                    ..
                }
            )),
            1,
            "{label}: replay phase spans"
        );
    }
}
