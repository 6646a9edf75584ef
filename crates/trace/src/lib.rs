//! Structured observability for the floorplan optimizer.
//!
//! The engine's four execution regimes — serial, tree-parallel,
//! memoized, and the flat Monge CSPP kernel — each leave their own ad-hoc
//! breadcrumbs (`RunStats` counters, degradation logs, cache statistics).
//! This crate unifies them behind one *std-only, zero-dependency* event
//! pipeline:
//!
//! * a [`Tracer`]: a lock-cheap ring-buffer collector with per-worker
//!   buffers, drained post-run. When no subscriber is installed
//!   ([`Tracer::unsubscribed`]) every emission is a single branch on a
//!   pre-resolved boolean — cheap enough to leave the instrumentation
//!   compiled in unconditionally (the overhead budget is ≤2%, gated by
//!   `fpbench trace`; the gate records `enforced: false` until a row
//!   reaches its 10 ms floor);
//! * a stable event vocabulary ([`TraceEvent`]) covering the whole
//!   pipeline: joins, selections (with the CSPP solver kind that ran),
//!   Monge-certification fallbacks, cache traffic, inline scheduler
//!   tasks, serial replay discards, rescues, deadline trips, and phase
//!   spans;
//! * two sinks: JSON-lines export ([`Trace::write_jsonl`]) and an
//!   in-memory [`MetricsRegistry`] with Prometheus text rendering for
//!   the batch server;
//! * a self-profiler ([`Trace::profile`]): the Table-1-style per-phase
//!   wall-time breakdown reconstructed from one run's phase spans.
//!
//! ```
//! use fp_trace::{Tracer, TraceEvent, SolverKind};
//!
//! let tracer = Tracer::new();
//! tracer.emit(0, TraceEvent::CacheMiss { node: 3 });
//! tracer.emit(
//!     0,
//!     TraceEvent::Selection {
//!         node: 3,
//!         solver: SolverKind::Dense,
//!         legacy: 0,
//!         dense: 1,
//!         monge: 0,
//!         k: 8,
//!         n: 64,
//!         dur_ns: 1_000,
//!     },
//! );
//! let trace = tracer.drain();
//! assert_eq!(trace.events.len(), 2);
//! assert_eq!(trace.summary().selections_dense, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod metrics;
mod profile;

pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use profile::ProfileReport;

/// Which CSPP solver produced a selection (the engine's three solve
/// paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The legacy adjacency-list DAG DP (`constrained_shortest_path`).
    Legacy,
    /// The flat layered kernel's exhaustive dense layer.
    Dense,
    /// The flat kernel's divide-and-conquer row minima on a
    /// certified-Monge weight matrix.
    Monge,
}

impl SolverKind {
    /// Stable wire name (`legacy` / `dense` / `monge`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SolverKind::Legacy => "legacy",
            SolverKind::Dense => "dense",
            SolverKind::Monge => "monge",
        }
    }
}

/// The class of a batch-executor job (`fp_optimizer::exec`): which
/// subsystem submitted it. Labels the `job_start`/`job_done` events and
/// the per-class Prometheus gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A server request (one fpserved protocol line).
    Serve,
    /// One annealing chain of a multi-start run.
    Anneal,
    /// A session re-optimization.
    Session,
}

impl JobClass {
    /// Stable wire name (`serve` / `anneal` / `session`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobClass::Serve => "serve",
            JobClass::Anneal => "anneal",
            JobClass::Session => "session",
        }
    }
}

/// A named phase of the optimization pipeline (the profiler's tree
/// nodes). `Run` is the root span and always equals the run's
/// `RunStats::elapsed`, so profile totals reconcile with the engine's
/// own accounting by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseName {
    /// The whole run (root span; equals `RunStats::elapsed`).
    Run,
    /// Tree restructuring (DAC'92 §3).
    Restructure,
    /// The bottom-up enumeration over all blocks.
    Enumerate,
    /// Time inside `R_Selection`/`L_Selection` solves (a child of
    /// `Enumerate`; equals `RunStats::selection_time`).
    Selection,
    /// The parallel scheduler's exact serial-schedule replay.
    Replay,
    /// Flushing buffered cache stores after a clean replay.
    CacheFlush,
    /// Tracing the chosen root implementation back to module choices.
    TraceBack,
}

impl PhaseName {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseName::Run => "run",
            PhaseName::Restructure => "restructure",
            PhaseName::Enumerate => "enumerate",
            PhaseName::Selection => "selection",
            PhaseName::Replay => "replay",
            PhaseName::CacheFlush => "cache_flush",
            PhaseName::TraceBack => "trace_back",
        }
    }
}

/// One structured event. The vocabulary is stable: names and fields are
/// part of the JSON-lines schema validated in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A join block build began.
    JoinStart {
        /// Restructured-tree node id.
        node: u32,
        /// Left operand's implementation count.
        left_len: u32,
        /// Right operand's implementation count.
        right_len: u32,
    },
    /// A join block build finished (enumeration + pruning + selection).
    JoinDone {
        /// Restructured-tree node id.
        node: u32,
        /// Implementations committed by the block.
        out_len: u32,
        /// Wall time of the build.
        dur_ns: u64,
    },
    /// One `R_Selection`/`L_Selection` application (possibly many CSPP
    /// solves — one per L-chain).
    Selection {
        /// Restructured-tree node id.
        node: u32,
        /// The dominant solver kind of this application.
        solver: SolverKind,
        /// Legacy-DAG solves performed.
        legacy: u32,
        /// Dense flat-kernel solves performed.
        dense: u32,
        /// Divide-and-conquer (Monge) solves performed.
        monge: u32,
        /// The selection limit (`K₁` or `K₂`).
        k: u32,
        /// Input implementation count.
        n: u32,
        /// Wall time of the application.
        dur_ns: u64,
    },
    /// The flat kernel was D&C-eligible but Monge certification failed,
    /// forcing the dense layer.
    MongeFallback {
        /// Restructured-tree node id.
        node: u32,
        /// How many solves fell back within this selection.
        count: u32,
    },
    /// A join block was served from the content-addressed cache.
    CacheHit {
        /// Restructured-tree node id.
        node: u32,
        /// Implementations reconstituted.
        len: u32,
    },
    /// A join block was looked up but not found.
    CacheMiss {
        /// Restructured-tree node id.
        node: u32,
    },
    /// The cache evicted entries to stay under its byte budget.
    CacheEvict {
        /// Entries evicted since the previous snapshot.
        count: u64,
    },
    /// A small subtree ran inline as one serial task instead of being
    /// split into per-node tasks (scheduler granularity control).
    SplitInline {
        /// Root node of the inline subtree (restructured-tree id).
        node: u32,
        /// Binary-tree nodes the task covered.
        nodes: u32,
    },
    /// The parallel pass was discarded and the run fell back to the
    /// serial path.
    ReplayDiscard {
        /// Why (`trip_fallback`, `replay_budget`, `worker_hole`, …).
        reason: &'static str,
    },
    /// The rescue ladder fired: a block is being retried under
    /// tightened policies.
    Rescue {
        /// The tripped block.
        block: u32,
        /// Run-wide rescue attempt ordinal (1-based).
        attempt: u32,
        /// Live implementations when the trip fired.
        live: u64,
    },
    /// The wall-clock deadline tripped (never rescued).
    DeadlineTrip {
        /// The block being built when the deadline passed.
        block: u32,
        /// Elapsed run time at the trip.
        elapsed_ns: u64,
    },
    /// One HPWL evaluation over a realized layout (full or
    /// incremental).
    HpwlEval {
        /// Nets in the bound netlist.
        nets: u32,
        /// Nets whose bounding boxes were actually recomputed (equals
        /// `nets` for a full evaluation).
        touched: u32,
        /// Wall time of the evaluation.
        dur_ns: u64,
    },
    /// A candidate survived non-dominated insertion into a Pareto
    /// front.
    ParetoInsert {
        /// Frontier envelope index of the surviving candidate.
        index: u32,
        /// Front size after the insertion.
        front_len: u32,
    },
    /// A completed phase span (see [`PhaseName`]).
    Phase {
        /// Which phase.
        name: PhaseName,
        /// Wall time of the phase.
        dur_ns: u64,
    },
    /// A queued executor job began running on a pool worker.
    JobStart {
        /// Executor-assigned job id (monotone per executor).
        job: u32,
        /// Which subsystem submitted the job.
        class: JobClass,
        /// Nanoseconds the job waited in the queue before starting.
        queue_ns: u64,
    },
    /// An executor job finished (successfully or tripped — trips are
    /// reported in the job's own reply, not here).
    JobDone {
        /// Executor-assigned job id.
        job: u32,
        /// Which subsystem submitted the job.
        class: JobClass,
        /// Nanoseconds the job spent executing.
        dur_ns: u64,
    },
    /// A job was refused before ever executing (admission control,
    /// connection cap, or a queue-deadline shed).
    Shed {
        /// Why (`queue_full`, `too_many_connections`, `queue_deadline`).
        reason: &'static str,
    },
}

impl TraceEvent {
    /// The event's stable wire name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::JoinStart { .. } => "join_start",
            TraceEvent::JoinDone { .. } => "join_done",
            TraceEvent::Selection { .. } => "selection",
            TraceEvent::MongeFallback { .. } => "monge_fallback",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::SplitInline { .. } => "split_inline",
            TraceEvent::ReplayDiscard { .. } => "replay_discard",
            TraceEvent::Rescue { .. } => "rescue",
            TraceEvent::DeadlineTrip { .. } => "deadline_trip",
            TraceEvent::HpwlEval { .. } => "hpwl_eval",
            TraceEvent::ParetoInsert { .. } => "pareto_insert",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobDone { .. } => "job_done",
            TraceEvent::Shed { .. } => "shed",
        }
    }

    /// Appends the event's fields (excluding the envelope) as JSON
    /// members to `out`.
    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match *self {
            TraceEvent::JoinStart {
                node,
                left_len,
                right_len,
            } => {
                let _ = write!(
                    out,
                    r#","node":{node},"left_len":{left_len},"right_len":{right_len}"#
                );
            }
            TraceEvent::JoinDone {
                node,
                out_len,
                dur_ns,
            } => {
                let _ = write!(
                    out,
                    r#","node":{node},"out_len":{out_len},"dur_ns":{dur_ns}"#
                );
            }
            TraceEvent::Selection {
                node,
                solver,
                legacy,
                dense,
                monge,
                k,
                n,
                dur_ns,
            } => {
                let _ = write!(
                    out,
                    r#","node":{node},"solver":"{}","legacy":{legacy},"dense":{dense},"monge":{monge},"k":{k},"n":{n},"dur_ns":{dur_ns}"#,
                    solver.as_str()
                );
            }
            TraceEvent::MongeFallback { node, count } => {
                let _ = write!(out, r#","node":{node},"count":{count}"#);
            }
            TraceEvent::CacheHit { node, len } => {
                let _ = write!(out, r#","node":{node},"len":{len}"#);
            }
            TraceEvent::CacheMiss { node } => {
                let _ = write!(out, r#","node":{node}"#);
            }
            TraceEvent::CacheEvict { count } => {
                let _ = write!(out, r#","count":{count}"#);
            }
            TraceEvent::SplitInline { node, nodes } => {
                let _ = write!(out, r#","node":{node},"nodes":{nodes}"#);
            }
            TraceEvent::ReplayDiscard { reason } => {
                let _ = write!(out, r#","reason":"{reason}""#);
            }
            TraceEvent::Rescue {
                block,
                attempt,
                live,
            } => {
                let _ = write!(out, r#","block":{block},"attempt":{attempt},"live":{live}"#);
            }
            TraceEvent::DeadlineTrip { block, elapsed_ns } => {
                let _ = write!(out, r#","block":{block},"elapsed_ns":{elapsed_ns}"#);
            }
            TraceEvent::HpwlEval {
                nets,
                touched,
                dur_ns,
            } => {
                let _ = write!(
                    out,
                    r#","nets":{nets},"touched":{touched},"dur_ns":{dur_ns}"#
                );
            }
            TraceEvent::ParetoInsert { index, front_len } => {
                let _ = write!(out, r#","index":{index},"front_len":{front_len}"#);
            }
            TraceEvent::Phase { name, dur_ns } => {
                let _ = write!(out, r#","phase":"{}","dur_ns":{dur_ns}"#, name.as_str());
            }
            TraceEvent::JobStart {
                job,
                class,
                queue_ns,
            } => {
                let _ = write!(
                    out,
                    r#","job":{job},"class":"{}","queue_ns":{queue_ns}"#,
                    class.as_str()
                );
            }
            TraceEvent::JobDone { job, class, dur_ns } => {
                let _ = write!(
                    out,
                    r#","job":{job},"class":"{}","dur_ns":{dur_ns}"#,
                    class.as_str()
                );
            }
            TraceEvent::Shed { reason } => {
                let _ = write!(out, r#","reason":"{reason}""#);
            }
        }
    }
}

/// One collected event with its envelope: nanoseconds since the
/// tracer's epoch and the emitting worker's id (`0` = the main/serial
/// thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Nanoseconds since [`Tracer`] creation.
    pub t_ns: u64,
    /// Emitting worker (`0` = main thread; scheduler workers are
    /// `1..=threads`).
    pub worker: u32,
    /// The event payload.
    pub event: TraceEvent,
}

impl Record {
    /// Serializes the record as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"t_ns":{},"worker":{},"event":"{}""#,
            self.t_ns,
            self.worker,
            self.event.name()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// Events a full ring buffer had to drop, per buffer.
#[derive(Debug, Default)]
struct RingBuffer {
    events: Vec<Record>,
    dropped: u64,
}

/// Per-worker ring-buffer capacity of [`Tracer::new`]. Generous for the
/// paper benchmarks (FP4 emits a few thousand events end to end) while
/// bounding a runaway producer to a few megabytes.
pub const DEFAULT_BUFFER_CAPACITY: usize = 1 << 16;

/// How many per-worker buffers a tracer carries. Workers above this
/// count share buffers (`worker % BUFFERS`), trading a little lock
/// contention for a fixed footprint.
const BUFFERS: usize = 16;

struct TracerShared {
    /// Resolved once at construction; [`Tracer::emit`] is a single
    /// branch on this when tracing is off.
    subscribed: bool,
    epoch: Instant,
    buffers: Vec<Mutex<RingBuffer>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// The event collector. Cloning is cheap (an [`Arc`] bump) and all
/// clones feed the same buffers, so one tracer can be shared across the
/// scheduler's worker threads, a session, and its server.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("subscribed", &self.shared.subscribed)
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A subscribed tracer with the default per-worker capacity.
    #[must_use]
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_BUFFER_CAPACITY)
    }

    /// A subscribed tracer whose per-worker ring buffers hold at most
    /// `capacity` events each; beyond that, newest events are dropped
    /// and counted ([`Trace::dropped`]). Phase spans
    /// ([`TraceEvent::Phase`]) are exempt: a run emits at most one per
    /// [`PhaseName`], and the profile needs every one.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer::build(true, capacity.max(1))
    }

    /// A tracer with no subscriber: every [`Tracer::emit`] is a single
    /// predictable branch and nothing is recorded. This is the mode the
    /// ≤2% overhead budget is measured against.
    #[must_use]
    pub fn unsubscribed() -> Self {
        Tracer::build(false, 1)
    }

    fn build(subscribed: bool, capacity: usize) -> Self {
        Tracer {
            shared: Arc::new(TracerShared {
                subscribed,
                epoch: Instant::now(),
                buffers: (0..BUFFERS)
                    .map(|_| Mutex::new(RingBuffer::default()))
                    .collect(),
                capacity,
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether events are actually recorded.
    #[inline]
    #[must_use]
    pub fn is_subscribed(&self) -> bool {
        self.shared.subscribed
    }

    /// Records `event` from `worker` (`0` = main thread). A no-op — one
    /// branch, no clock read, no lock — when unsubscribed.
    #[inline]
    pub fn emit(&self, worker: u32, event: TraceEvent) {
        if !self.shared.subscribed {
            return;
        }
        self.record(worker, event);
    }

    #[cold]
    fn record(&self, worker: u32, event: TraceEvent) {
        let t_ns = u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = (worker as usize) % self.shared.buffers.len();
        let Ok(mut buf) = self.shared.buffers[slot].lock() else {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Phase spans bypass the capacity check (see `with_capacity`).
        let is_phase = matches!(event, TraceEvent::Phase { .. });
        if buf.events.len() >= self.shared.capacity && !is_phase {
            buf.dropped += 1;
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.events.push(Record {
            t_ns,
            worker,
            event,
        });
    }

    /// Takes every buffered event (merged across workers, ordered by
    /// emission time) and resets the buffers for the next run.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for buf in &self.shared.buffers {
            let Ok(mut buf) = buf.lock() else { continue };
            events.append(&mut buf.events);
            dropped += buf.dropped;
            buf.dropped = 0;
        }
        self.shared.dropped.store(0, Ordering::Relaxed);
        events.sort_by_key(|r| r.t_ns);
        Trace { events, dropped }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// A drained run trace: the merged, time-ordered event stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Time-ordered events.
    pub events: Vec<Record>,
    /// Events lost to full ring buffers.
    pub dropped: u64,
}

impl Trace {
    /// Writes the trace as JSON lines — one [`Record`] object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for record in &self.events {
            out.write_all(record.to_json().as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Aggregates the stream into counters and totals.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            events: self.events.len() as u64,
            dropped: self.dropped,
            ..TraceSummary::default()
        };
        for record in &self.events {
            match record.event {
                TraceEvent::JoinStart { .. } => {}
                TraceEvent::JoinDone { dur_ns, .. } => {
                    s.joins += 1;
                    s.join_ns += dur_ns;
                }
                TraceEvent::Selection {
                    legacy,
                    dense,
                    monge,
                    dur_ns,
                    ..
                } => {
                    s.selections_legacy += u64::from(legacy);
                    s.selections_dense += u64::from(dense);
                    s.selections_monge += u64::from(monge);
                    s.selection_ns += dur_ns;
                }
                TraceEvent::MongeFallback { count, .. } => {
                    s.monge_fallbacks += u64::from(count);
                }
                TraceEvent::CacheHit { .. } => s.cache_hits += 1,
                TraceEvent::CacheMiss { .. } => s.cache_misses += 1,
                TraceEvent::CacheEvict { count } => s.cache_evictions += count,
                TraceEvent::SplitInline { .. } => s.split_inlines += 1,
                TraceEvent::ReplayDiscard { .. } => s.replay_discards += 1,
                TraceEvent::Rescue { .. } => s.rescues += 1,
                TraceEvent::DeadlineTrip { .. } => s.deadline_trips += 1,
                TraceEvent::HpwlEval { touched, .. } => {
                    s.hpwl_evals += 1;
                    s.nets_touched += u64::from(touched);
                }
                TraceEvent::ParetoInsert { .. } => s.pareto_inserts += 1,
                TraceEvent::Phase { name, dur_ns } => {
                    if name == PhaseName::Run {
                        s.run_ns += dur_ns;
                    }
                }
                TraceEvent::JobStart { queue_ns, .. } => {
                    s.job_queue_ns += queue_ns;
                }
                TraceEvent::JobDone { dur_ns, .. } => {
                    s.jobs += 1;
                    s.job_ns += dur_ns;
                }
                TraceEvent::Shed { .. } => s.jobs_shed += 1,
            }
        }
        s
    }

    /// Reconstructs the per-phase wall-time tree (see [`ProfileReport`]).
    #[must_use]
    pub fn profile(&self) -> ProfileReport {
        profile::build(self)
    }
}

/// Counter aggregates of one drained trace. These are exactly the
/// counters the metrics registry accumulates, so a per-run summary and
/// the server's lifetime Prometheus counters always reconcile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events collected.
    pub events: u64,
    /// Events lost to full buffers.
    pub dropped: u64,
    /// Join blocks built (`join_done` events).
    pub joins: u64,
    /// CSPP solves through the legacy DAG path.
    pub selections_legacy: u64,
    /// CSPP solves through the dense flat kernel.
    pub selections_dense: u64,
    /// CSPP solves through the divide-and-conquer (Monge) kernel.
    pub selections_monge: u64,
    /// D&C-eligible solves that failed Monge certification.
    pub monge_fallbacks: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Work steals between scheduler workers. Always 0: the scheduler
    /// claims tasks from one counter and steals none. Kept so the
    /// summary's JSON keys and Prometheus counters stay stable.
    pub steals: u64,
    /// Batched steals. Always 0, like [`TraceSummary::steals`].
    pub steal_batches: u64,
    /// Subtrees executed inline as one serial task.
    pub split_inlines: u64,
    /// Parallel passes discarded in favour of the serial path.
    pub replay_discards: u64,
    /// Rescue-ladder retries.
    pub rescues: u64,
    /// Deadline trips.
    pub deadline_trips: u64,
    /// HPWL evaluations (full or incremental).
    pub hpwl_evals: u64,
    /// Net bounding boxes recomputed across all HPWL evaluations.
    pub nets_touched: u64,
    /// Pareto-front insertions that survived dominance filtering.
    pub pareto_inserts: u64,
    /// Executor jobs completed (`job_done` events).
    pub jobs: u64,
    /// Jobs refused before execution (`shed` events).
    pub jobs_shed: u64,
    /// Total nanoseconds jobs waited in the executor queue.
    pub job_queue_ns: u64,
    /// Total nanoseconds jobs spent executing.
    pub job_ns: u64,
    /// Total nanoseconds inside join builds.
    pub join_ns: u64,
    /// Total nanoseconds inside selection solves.
    pub selection_ns: u64,
    /// The run span (`phase:run`) in nanoseconds.
    pub run_ns: u64,
}

impl TraceSummary {
    /// The counter fields by wire name, in stable order (drives both
    /// the JSON rendering and the Prometheus counter names).
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 26] {
        [
            ("events", self.events),
            ("dropped", self.dropped),
            ("joins", self.joins),
            ("selections_legacy", self.selections_legacy),
            ("selections_dense", self.selections_dense),
            ("selections_monge", self.selections_monge),
            ("monge_fallbacks", self.monge_fallbacks),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("steals", self.steals),
            ("steal_batches", self.steal_batches),
            ("split_inlines", self.split_inlines),
            ("replay_discards", self.replay_discards),
            ("rescues", self.rescues),
            ("deadline_trips", self.deadline_trips),
            ("hpwl_evals", self.hpwl_evals),
            ("nets_touched", self.nets_touched),
            ("pareto_inserts", self.pareto_inserts),
            ("jobs", self.jobs),
            ("jobs_shed", self.jobs_shed),
            ("job_queue_ns", self.job_queue_ns),
            ("job_ns", self.job_ns),
            ("join_ns", self.join_ns),
            ("selection_ns", self.selection_ns),
            ("run_ns", self.run_ns),
        ]
    }

    /// Renders the summary as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        out.push('{');
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{name}":{value}"#);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsubscribed_records_nothing() {
        let tracer = Tracer::unsubscribed();
        assert!(!tracer.is_subscribed());
        tracer.emit(0, TraceEvent::CacheMiss { node: 1 });
        let trace = tracer.drain();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn drain_merges_workers_in_time_order() {
        let tracer = Tracer::new();
        tracer.emit(2, TraceEvent::CacheMiss { node: 1 });
        tracer.emit(0, TraceEvent::CacheHit { node: 2, len: 4 });
        tracer.emit(1, TraceEvent::SplitInline { node: 3, nodes: 5 });
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 3);
        assert!(trace.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // Drained buffers reset for the next run.
        assert!(tracer.drain().events.is_empty());
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let tracer = Tracer::with_capacity(2);
        for _ in 0..5 {
            tracer.emit(0, TraceEvent::CacheMiss { node: 0 });
        }
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 3);
    }

    #[test]
    fn full_buffer_keeps_phase_spans() {
        let tracer = Tracer::with_capacity(1);
        tracer.emit(0, TraceEvent::CacheMiss { node: 0 });
        tracer.emit(0, TraceEvent::CacheMiss { node: 1 });
        for name in [PhaseName::Enumerate, PhaseName::Run] {
            tracer.emit(0, TraceEvent::Phase { name, dur_ns: 7 });
        }
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 1);
        let profile = trace.profile();
        assert_eq!((profile.run_ns, profile.enumerate_ns), (7, 7));
    }

    #[test]
    fn summary_counts_every_kind() {
        let tracer = Tracer::new();
        tracer.emit(
            0,
            TraceEvent::JoinStart {
                node: 7,
                left_len: 3,
                right_len: 4,
            },
        );
        tracer.emit(
            0,
            TraceEvent::Selection {
                node: 7,
                solver: SolverKind::Monge,
                legacy: 0,
                dense: 1,
                monge: 2,
                k: 8,
                n: 64,
                dur_ns: 500,
            },
        );
        tracer.emit(0, TraceEvent::MongeFallback { node: 7, count: 1 });
        tracer.emit(
            0,
            TraceEvent::JoinDone {
                node: 7,
                out_len: 9,
                dur_ns: 1_000,
            },
        );
        tracer.emit(
            0,
            TraceEvent::Phase {
                name: PhaseName::Run,
                dur_ns: 2_000,
            },
        );
        let s = tracer.drain().summary();
        assert_eq!(s.joins, 1);
        assert_eq!(s.selections_dense, 1);
        assert_eq!(s.selections_monge, 2);
        assert_eq!(s.monge_fallbacks, 1);
        assert_eq!(s.join_ns, 1_000);
        assert_eq!(s.selection_ns, 500);
        assert_eq!(s.run_ns, 2_000);
        assert_eq!(s.events, 5);
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let record = Record {
            t_ns: 42,
            worker: 1,
            event: TraceEvent::Selection {
                node: 3,
                solver: SolverKind::Dense,
                legacy: 0,
                dense: 1,
                monge: 0,
                k: 8,
                n: 32,
                dur_ns: 9,
            },
        };
        assert_eq!(
            record.to_json(),
            r#"{"t_ns":42,"worker":1,"event":"selection","node":3,"solver":"dense","legacy":0,"dense":1,"monge":0,"k":8,"n":32,"dur_ns":9}"#
        );
        let mut out = Vec::new();
        Trace {
            events: vec![record],
            dropped: 0,
        }
        .write_jsonl(&mut out)
        .expect("in-memory write");
        assert!(out.ends_with(b"\n"));
    }

    #[test]
    fn summary_json_lists_every_field() {
        let json = TraceSummary::default().to_json();
        for (name, _) in TraceSummary::default().fields() {
            assert!(json.contains(&format!(r#""{name}":"#)), "missing {name}");
        }
    }
}
