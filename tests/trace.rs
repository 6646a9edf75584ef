//! The observability layer end to end: event-stream integrity, the
//! JSON-lines wire format, summary/profile reconciliation against
//! `RunStats`, and the registry used by `fpserved`.

use fp_optimizer::{
    MetricsRegistry, OptimizeConfig, Optimizer, SharedBlockCache, TraceEvent, Tracer,
};
use fp_tree::generators;

/// Every record serializes as a flat one-line JSON object with the
/// envelope keys first, and the stream is time-ordered.
#[test]
fn jsonl_export_is_wellformed_and_ordered() {
    let bench = generators::fp2();
    let lib = generators::module_library(&bench.tree, 4, 3);
    let tracer = Tracer::new();
    Optimizer::new(&bench.tree, &lib)
        .config(&OptimizeConfig::default().with_r_selection(8))
        .tracer(&tracer)
        .run_best()
        .expect("solves");
    let trace = tracer.drain();
    assert!(trace.events.len() > 10, "a real run emits a real stream");
    assert_eq!(trace.dropped, 0);

    let mut buf: Vec<u8> = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), trace.events.len());
    for line in &lines {
        assert!(line.starts_with("{\"t_ns\":"), "envelope first: {line}");
        assert!(line.ends_with('}'), "one object per line: {line}");
        assert!(line.contains("\"worker\":"), "worker key: {line}");
        assert!(line.contains("\"event\":\""), "event key: {line}");
        assert!(!line.contains('\n'));
    }
    let stamps: Vec<u64> = trace.events.iter().map(|r| r.t_ns).collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "drain sorts by time"
    );
}

/// The per-phase profile must reconcile with the engine's own
/// `RunStats`: the run and selection spans are stamped from the same
/// measurements, and the named phases never exceed the run span.
#[test]
fn profile_reconciles_with_run_stats() {
    for threads in [1usize, 2] {
        let bench = generators::fp2();
        let lib = generators::module_library(&bench.tree, 4, 3);
        let tracer = Tracer::new();
        let outcome = Optimizer::new(&bench.tree, &lib)
            .config(
                &OptimizeConfig::default()
                    .with_r_selection(8)
                    .with_threads(threads)
                    // Pin per-node scheduling: the default threshold
                    // would auto-serialize this paper-sized tree and the
                    // parallel span path would go untested.
                    .with_split_threshold(0),
            )
            .tracer(&tracer)
            .run_best()
            .expect("solves");
        let profile = tracer.drain().profile();

        let elapsed_ns = u64::try_from(outcome.stats.elapsed.as_nanos()).unwrap();
        let selection_ns = u64::try_from(outcome.stats.selection_time.as_nanos()).unwrap();
        assert_eq!(profile.run_ns, elapsed_ns, "run span is RunStats::elapsed");
        assert_eq!(
            profile.selection_ns, selection_ns,
            "selection span is RunStats::selection_time"
        );
        // Selection nests inside enumerate; enumerate inside run. On
        // parallel runs selection is summed across workers, so compare
        // the serial-nesting invariants only at one thread.
        if threads == 1 {
            assert!(profile.selection_ns <= profile.enumerate_ns);
            assert!(profile.enumerate_ns <= profile.run_ns);
            // Trace-back happens after the frontier run, so it is NOT
            // part of the run span — only restructure and enumerate
            // nest inside it.
            assert!(profile.restructure_ns + profile.enumerate_ns <= profile.run_ns);
        }
    }
}

/// Phase spans survive a ring that overflows: with 16 slots per worker
/// the join events of an FP2 run are dropped, but the profile still
/// reconciles with `RunStats`.
#[test]
fn profile_reconciles_when_the_ring_overflows() {
    for threads in [1usize, 2] {
        let bench = generators::fp2();
        let lib = generators::module_library(&bench.tree, 4, 3);
        let tracer = Tracer::with_capacity(16);
        let outcome = Optimizer::new(&bench.tree, &lib)
            .config(
                &OptimizeConfig::default()
                    .with_r_selection(8)
                    .with_threads(threads)
                    .with_split_threshold(0),
            )
            .tracer(&tracer)
            .run_best()
            .expect("solves");
        let trace = tracer.drain();
        assert!(trace.dropped > 0, "16 slots must overflow on FP2");
        let profile = trace.profile();

        let elapsed_ns = u64::try_from(outcome.stats.elapsed.as_nanos()).unwrap();
        let selection_ns = u64::try_from(outcome.stats.selection_time.as_nanos()).unwrap();
        assert_eq!(profile.run_ns, elapsed_ns, "run span is RunStats::elapsed");
        assert_eq!(
            profile.selection_ns, selection_ns,
            "selection span is RunStats::selection_time"
        );
        assert!(profile.enumerate_ns > 0, "the enumerate span is kept");
    }
}

/// Summary counters must agree with the engine's `RunStats` where the
/// two overlap: joins, cache traffic, and the run span.
#[test]
fn summary_counters_match_run_stats() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 4, 1);
    let cache = SharedBlockCache::new(16 << 20);

    let tracer = Tracer::new();
    let cold = Optimizer::new(&bench.tree, &lib)
        .config(&OptimizeConfig::default())
        .cache(&cache)
        .tracer(&tracer)
        .run_frontier()
        .expect("cold solves");
    let cold_summary = tracer.drain().summary();
    assert_eq!(cold_summary.cache_hits, cold.stats().cache_hits as u64);
    assert_eq!(cold_summary.cache_misses, cold.stats().cache_misses as u64);
    assert!(cold_summary.joins > 0);

    let warm = Optimizer::new(&bench.tree, &lib)
        .config(&OptimizeConfig::default())
        .cache(&cache)
        .tracer(&tracer)
        .run_frontier()
        .expect("warm solves");
    let warm_summary = tracer.drain().summary();
    assert_eq!(warm_summary.cache_hits, warm.stats().cache_hits as u64);
    assert_eq!(warm_summary.cache_misses, 0);
    assert_eq!(
        warm_summary.joins, 0,
        "a fully warm run reconstitutes, never rebuilds"
    );
}

/// Selection events attribute every solve to a kernel, and their solve
/// counts account for the engine's `r_reductions`/`l_reductions`.
#[test]
fn selection_events_attribute_solvers() {
    let bench = generators::fp2();
    let lib = generators::module_library(&bench.tree, 5, 2);
    let tracer = Tracer::new();
    let outcome = Optimizer::new(&bench.tree, &lib)
        .config(&OptimizeConfig::default().with_r_selection(6))
        .tracer(&tracer)
        .run_best()
        .expect("solves");
    assert!(outcome.stats.r_reductions > 0, "k1=6 must fire selection");

    let trace = tracer.drain();
    let mut selections = 0usize;
    let mut solves = 0u64;
    for record in &trace.events {
        if let TraceEvent::Selection {
            legacy,
            dense,
            monge,
            k,
            n,
            ..
        } = record.event
        {
            selections += 1;
            solves += u64::from(legacy) + u64::from(dense) + u64::from(monge);
            assert!(k > 0 && n > 0, "selection events carry the k/n context");
        }
    }
    assert_eq!(
        selections,
        outcome.stats.r_reductions + outcome.stats.l_reductions,
        "one selection event per reduction"
    );
    assert!(
        solves >= selections as u64,
        "each application solves at least once"
    );
}

/// A drained registry reproduces the sum of the absorbed summaries —
/// the invariant the `fpserved` metrics endpoint is built on.
#[test]
fn metrics_registry_sums_summaries() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 4, 1);
    let registry = MetricsRegistry::new();
    let mut expect_joins = 0u64;
    for _ in 0..3 {
        let tracer = Tracer::new();
        Optimizer::new(&bench.tree, &lib)
            .config(&OptimizeConfig::default())
            .tracer(&tracer)
            .run_best()
            .expect("solves");
        let summary = tracer.drain().summary();
        expect_joins += summary.joins;
        registry.absorb(&summary);
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.runs, 3);
    assert_eq!(snapshot.totals.joins, expect_joins);
    let prom = registry.render_prometheus();
    assert!(prom.contains("fp_runs_total 3"));
    assert!(prom.contains(&format!("fp_joins_total {expect_joins}")));
    assert!(prom.contains("fp_run_duration_seconds_bucket"));
}

/// Draining resets the buffers: a second drain with no intervening run
/// is empty, and reuse across runs keeps streams disjoint.
#[test]
fn drain_resets_the_buffers() {
    let bench = generators::fp1();
    let lib = generators::module_library(&bench.tree, 3, 1);
    let tracer = Tracer::new();
    Optimizer::new(&bench.tree, &lib)
        .config(&OptimizeConfig::default())
        .tracer(&tracer)
        .run_best()
        .expect("solves");
    let first = tracer.drain();
    assert!(!first.events.is_empty());
    assert!(
        tracer.drain().events.is_empty(),
        "drain consumes the stream"
    );
}
