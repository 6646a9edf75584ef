//! Per-layer numbers of traced optimizer runs, read from what a run
//! already returns: its [`RunStats`] and the events a subscribed
//! [`Tracer`] collected.

use std::time::{Duration, Instant};

use fp_optimizer::{RunStats, Trace, TraceEvent, Tracer};

use crate::measure::SpanLog;

/// Per-worker ring capacity of the traced runs. Rings grow on demand, so a
/// large cap costs nothing until used; FP6-50k emits ~200k events.
const TRACE_CAPACITY: usize = 1 << 24;

/// A tracer large enough that no run of the workloads drops an event.
pub fn lossless_tracer() -> Tracer {
    Tracer::with_capacity(TRACE_CAPACITY)
}

/// Sums of the per-layer counters over the traced ops of one run.
#[derive(Default)]
pub struct EngineLayers {
    /// Worker threads the runs were configured with.
    threads: usize,
    ops: usize,
    join_ns: u64,
    selection_ns: u64,
    joins: u64,
    generated: u64,
    committed: u64,
    peak_impls: u64,
    r_reductions: u64,
    l_reductions: u64,
    solves: u64,
    monge: u64,
    monge_fallbacks: u64,
    steals: u64,
    split_inlines: u64,
    replay_discards: u64,
    busy_ratio: f64,
    cache_hits: u64,
    cache_misses: u64,
    dropped: u64,
}

impl EngineLayers {
    /// Sums for runs configured with `threads` workers.
    pub fn new(threads: usize) -> Self {
        EngineLayers {
            threads,
            ..EngineLayers::default()
        }
    }

    /// Adds one traced op: `trace` was drained from the tracer the run was
    /// given, and the run's phases become child spans of `parent` (the span
    /// around `run_best`, which started at `start`). Phases are laid out
    /// in pipeline order from their durations: the parallel scheduler
    /// emits them together at the end of the run, so emission times do not
    /// mark where each one began.
    pub fn add(
        &mut self,
        trace: &Trace,
        stats: &RunStats,
        spans: &mut SpanLog,
        op: u64,
        parent: usize,
        start: Instant,
    ) {
        let summary = trace.summary();
        let profile = trace.profile();
        self.ops += 1;
        self.dropped += summary.dropped;
        self.join_ns += summary.join_ns;
        self.selection_ns += summary.selection_ns;
        self.joins += summary.joins;
        self.generated += stats.generated;
        self.committed += trace
            .events
            .iter()
            .map(|r| match r.event {
                TraceEvent::JoinDone { out_len, .. } => u64::from(out_len),
                _ => 0,
            })
            .sum::<u64>();
        self.peak_impls += stats.peak_impls as u64;
        self.r_reductions += stats.r_reductions as u64;
        self.l_reductions += stats.l_reductions as u64;
        self.solves +=
            summary.selections_legacy + summary.selections_dense + summary.selections_monge;
        self.monge += summary.selections_monge;
        self.monge_fallbacks += summary.monge_fallbacks;
        self.steals += summary.steals + summary.steal_batches;
        self.split_inlines += summary.split_inlines;
        self.replay_discards += summary.replay_discards;
        self.cache_hits += summary.cache_hits;
        self.cache_misses += summary.cache_misses;
        if profile.run_ns > 0 {
            self.busy_ratio +=
                summary.join_ns as f64 / (self.threads.max(1) as f64 * profile.run_ns as f64);
        }

        let ns = Duration::from_nanos;
        let run = spans.record("engine.run", op, Some(parent), start, ns(profile.run_ns));
        let mut at = start;
        for (name, dur) in [
            ("tree.restructure", profile.restructure_ns),
            ("sched.enumerate", profile.enumerate_ns),
            ("sched.replay", profile.replay_ns),
            ("sched.cache_flush", profile.cache_flush_ns),
        ] {
            let id = spans.record(name, op, Some(run), at, ns(dur));
            if name == "sched.enumerate" {
                spans.record("select.solve", op, Some(id), at, ns(profile.selection_ns));
            }
            at += ns(dur);
        }
        spans.record(
            "engine.trace_back",
            op,
            Some(parent),
            start + ns(profile.run_ns),
            ns(profile.trace_back_ns),
        );
    }

    /// Events lost to full rings so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The per-layer metrics these ops give, averaged per op. Span-based
    /// timings come from `spans`.
    pub fn metrics(&self, spans: &SpanLog) -> Vec<(&'static str, f64)> {
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let lookups = self.cache_hits + self.cache_misses;
        vec![
            ("tree.restructure_ms", spans.mean_ms("tree.restructure")),
            (
                "shape.join_self_ms",
                per_op(self.join_ns.saturating_sub(self.selection_ns)) / 1e6,
            ),
            ("shape.joins", per_op(self.joins)),
            ("shape.generated", per_op(self.generated)),
            ("shape.kept_ratio", ratio(self.committed, self.generated)),
            ("shape.peak_impls", per_op(self.peak_impls)),
            ("select.ms", per_op(self.selection_ns) / 1e6),
            ("select.r_reductions", per_op(self.r_reductions)),
            ("select.l_reductions", per_op(self.l_reductions)),
            ("cspp.solves", per_op(self.solves)),
            ("cspp.monge_ratio", ratio(self.monge, self.solves)),
            ("cspp.monge_fallbacks", per_op(self.monge_fallbacks)),
            ("sched.busy_ratio", self.busy_ratio / self.ops.max(1) as f64),
            ("sched.replay_ms", spans.mean_ms("sched.replay")),
            ("sched.steals", per_op(self.steals)),
            ("sched.split_inlines", per_op(self.split_inlines)),
            ("sched.replay_discards", per_op(self.replay_discards)),
            ("engine.run_ms", spans.mean_ms("engine.run_best")),
            ("engine.trace_back_ms", spans.mean_ms("engine.trace_back")),
            ("cache.hits", per_op(self.cache_hits)),
            ("cache.misses", per_op(self.cache_misses)),
            ("cache.hit_ratio", ratio(self.cache_hits, lookups)),
            ("trace.dropped", self.dropped as f64),
        ]
    }
}
