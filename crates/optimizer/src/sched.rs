//! Tree-level parallel scheduler: a claim loop over the restructured
//! slicing tree with serial-identical results.
//!
//! The bottom-up pass has natural task parallelism: two sibling subtrees
//! share no data until their parent join consumes both. This module cuts
//! the binary tree into tasks and runs them on the calling thread plus
//! `threads − 1` scoped helpers, without a queue:
//!
//! * Maximal subtrees below the task size
//!   ([`OptimizeConfig::task_size_for`]: the tree cut into about
//!   [`OptimizeConfig::TASKS_PER_THREAD`] inline tasks per worker, never
//!   finer than [`OptimizeConfig::split_threshold`]) run inline as one
//!   serial task — their post-order node range is contiguous, so the task
//!   is a plain loop. Their roots are listed once, in tree order, and
//!   every worker claims the next one through one atomic counter.
//! * Each join above them is a task of its own, a *split join*, waiting
//!   on a count of its two child tasks. The worker that publishes the
//!   second child builds the join next, so no task is ever queued.
//! * A worker with nothing left to claim and no join to continue
//!   returns. The calling thread first maps the leaf slots, then works
//!   as worker 0 beside its helpers, as [`crate::Executor::run_batch`]'s
//!   caller does.
//!
//! Whole trees below the auto-serial bound never reach this module (see
//! [`OptimizeConfig::auto_serial_for`]).
//!
//! # The determinism contract
//!
//! `optimize*` results are **byte-identical at any thread count**. The
//! parallel pass guarantees that by construction plus replay:
//!
//! * Block *content* is schedule-independent: each join's output depends
//!   only on its children's lists, and every kernel is deterministic.
//! * Governor state is the schedule-dependent part (budget trips, fault
//!   ordinals, the rescue ladder). So workers do **local** accounting —
//!   per-block generated counts and transient peaks, folded per task —
//!   and after a clean parallel pass the scheduler *replays the serial
//!   schedule* over those records: walking tasks in tree order, tracking
//!   the committed total and the generated ordinal exactly as the serial
//!   meter would (and, on cached runs, node by node, the cache self-hit
//!   set). If the replay shows the serial run would have tripped
//!   anything (budget or fault plan), the parallel work is discarded
//!   wholesale and the untouched serial path re-runs from scratch —
//!   reproducing the rescue ladder, its [`DegradationEvent`] sequence,
//!   or its error byte-for-byte. Otherwise the replay yields the exact
//!   serial [`RunStats`] (peak, generated, cache counters).
//! * Cache stores are buffered and flushed in tree order only after the
//!   replay proves the run clean, so a trip-then-fallback run never
//!   publishes blocks the serial run would not have.
//! * Deadline and cancellation are *real-time* trips: a worker that
//!   observes one records it, raises the abort flag, and every in-flight
//!   join stops at its next poll. These cannot be schedule-deterministic
//!   (wall clocks aren't), which matches their serial semantics.
//!
//! In-flight, workers also run a conservative budget check (shared
//! committed total + the running task + local block) purely to bound
//! overshoot; it never decides the outcome — it only routes to the exact
//! serial path.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use fp_memo::Fingerprint;
use fp_trace::{PhaseName, TraceEvent, Tracer};
use fp_tree::restructure::{BinNode, BinaryTree};
use fp_tree::{FloorplanTree, ModuleLibrary};

use crate::cache::{policy_fingerprint, BlockCache};
use crate::engine::{
    build_join, leaf_slots, trip_error, DegradationEvent, EffectivePolicies, Frontier, OptError,
    OptimizeConfig, RunStats, Scratch, TraceCtx,
};
use crate::governor::{CancelToken, FaultPlan, Governor, Trip, POLL_INTERVAL};
use crate::store::{Block, Columns, Kind, Store, View};

/// Below this node count the scheduling overhead cannot pay off; the
/// dispatcher falls through to the serial path (results are identical
/// either way — this is purely a performance heuristic). The engine
/// additionally auto-serializes whole trees below
/// `OptimizeConfig::split_threshold * AUTO_SERIAL_FACTOR` nodes before
/// ever reaching this module.
const MIN_PARALLEL_NODES: usize = 8;

/// Sentinel `Trip` a worker returns when it stops because a *peer*
/// tripped (or requested fallback). Never recorded, never surfaced.
const ABORT_WHAT: &str = "parallel scheduler abort";

fn abort_trip() -> Trip {
    Trip::Internal(ABORT_WHAT)
}

fn is_abort(trip: &Trip) -> bool {
    matches!(trip, Trip::Internal(what) if *what == ABORT_WHAT)
}

/// Locks a mutex, recovering the guard from a poisoned lock: scheduler
/// state stays usable even if a worker panicked (the engine is
/// panic-free, but a recorded trip must never be lost).
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run-wide state shared by every worker.
struct SharedGov {
    /// The configured implementation budget.
    limit: Option<usize>,
    /// Final implementation counts of completed tasks (any order). Each
    /// task adds its total once, when it is published: one write per
    /// task, not per node, to a line every budget check reads.
    committed: AtomicUsize,
    /// Raised on any trip or fallback: every worker stops at its next
    /// poll point.
    abort: AtomicBool,
    /// Raised when the exact serial path must decide the run instead.
    fallback: AtomicBool,
    /// The first *real* trip recorded (trip, block). Written before
    /// `abort` is raised, so peer-abort exits can never claim the slot.
    first_trip: Mutex<Option<(Trip, usize)>>,
    /// The run's epoch (deadlines are measured from here).
    start: Instant,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl SharedGov {
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Routes the run to the serial path and stops every worker.
    fn request_fallback(&self) {
        self.fallback.store(true, Ordering::Release);
        self.abort.store(true, Ordering::Release);
    }

    /// Records a real trip (first writer wins), then stops every worker.
    fn record_trip(&self, trip: Trip, block: usize) {
        {
            let mut slot = lock_or_recover(&self.first_trip);
            if slot.is_none() {
                *slot = Some((trip, block));
            }
        }
        self.abort.store(true, Ordering::Release);
    }

    /// Abort/cancellation/deadline check, attributed to `block`.
    fn check_realtime(&self, block: usize) -> Result<(), Trip> {
        if self.aborted() {
            return Err(abort_trip());
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                let trip = Trip::Cancelled;
                self.record_trip(trip.clone(), block);
                return Err(trip);
            }
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                let trip = Trip::Deadline { elapsed, deadline };
                self.record_trip(trip.clone(), block);
                return Err(trip);
            }
        }
        Ok(())
    }
}

/// Per-worker governor handed to the join kernels: local in-block
/// accounting (exactly mirroring the serial meter's per-block view) plus
/// shared-state polls on the serial path's cadence.
struct WorkerGov<'a> {
    shared: &'a SharedGov,
    /// The node under construction (trip attribution).
    block: usize,
    /// Implementations committed by the running task's earlier nodes
    /// (not yet in the shared total).
    task: usize,
    /// Current in-block live candidates (charges minus discards).
    live: usize,
    /// Maximum in-block live ever reached — the serial meter's transient
    /// peak contribution for this block.
    peak: usize,
    /// Candidates charged while building this block.
    generated: u64,
    calls: u64,
}

impl<'a> WorkerGov<'a> {
    fn new(shared: &'a SharedGov, block: usize, task: usize) -> Self {
        WorkerGov {
            shared,
            block,
            task,
            live: 0,
            peak: 0,
            generated: 0,
            calls: 0,
        }
    }
}

impl Governor for WorkerGov<'_> {
    fn charge(&mut self, n: usize) -> Result<(), Trip> {
        if n == 0 {
            return Ok(());
        }
        self.live += n;
        self.generated += n as u64;
        if self.live > self.peak {
            self.peak = self.live;
        }
        if let Some(limit) = self.shared.limit {
            // Conservative overshoot bound: completed tasks, the running
            // task and this block already exceed the budget, so the
            // serial schedule is at least *likely* to trip — let the
            // exact serial path decide (it reproduces the trip, the
            // rescue ladder, or a clean squeeze-through byte-for-byte).
            if self.shared.committed.load(Ordering::Relaxed) + self.task + self.live > limit {
                self.shared.request_fallback();
                return Err(abort_trip());
            }
        }
        self.calls += 1;
        if self.calls.is_multiple_of(POLL_INTERVAL) {
            self.poll()?;
        }
        Ok(())
    }

    fn discard(&mut self, n: usize) {
        self.live = self.live.saturating_sub(n);
    }

    fn poll(&self) -> Result<(), Trip> {
        self.shared.check_realtime(self.block)
    }
}

/// Per-node accounting recorded by the worker that built it — the raw
/// material for the serial-schedule replay.
#[derive(Clone, Copy, Default)]
struct NodeAcc {
    /// The committed implementation count.
    len: usize,
    /// The committed block's kind.
    kind: Kind,
    /// Whether the node is a join (a leaf's R-list is no block of the
    /// run's largest-block statistics).
    join: bool,
    /// Candidates charged while building (or reconstituting) the node.
    generated: u64,
    /// Maximum in-block live count during the build.
    transient_peak: usize,
    /// Whether the block-cache was consulted for this node.
    looked_up: bool,
    /// Whether the pre-run cache lookup hit.
    initial_hit: bool,
    /// Whether `R_Selection` fired while building this node.
    r_reductions: usize,
    /// Whether the L-block reduction fired while building this node.
    l_reductions: usize,
    /// Wall-clock this node's worker spent in the selection kernels.
    selection_time: Duration,
    /// Set by the replay: the serial pass would have stored this node to
    /// the block cache (a built join, not a hit).
    store_after_replay: bool,
}

/// A stretch of the serial schedule — one task, or one node — folded
/// into what the replay needs from it. A worker folds each task as it
/// builds the nodes in tree order.
#[derive(Default)]
struct TaskAcc {
    /// Implementations the stretch commits.
    committed: usize,
    /// Candidates the stretch charges.
    generated: u64,
    /// The stretch's peak above the committed total at its start: the
    /// maximum over its nodes of the length committed before the node
    /// plus the node's transient peak.
    peak: usize,
    r_reductions: usize,
    l_reductions: usize,
    selection_time: Duration,
    /// The largest join R-block and the largest L-block committed.
    max_r_block: usize,
    max_l_block: usize,
}

impl TaskAcc {
    /// Appends one node to the stretch.
    fn add(&mut self, node: &NodeAcc) {
        self.peak = self.peak.max(self.committed + node.transient_peak);
        self.committed += node.len;
        self.generated += node.generated;
        self.r_reductions += node.r_reductions;
        self.l_reductions += node.l_reductions;
        self.selection_time += node.selection_time;
        match node.kind {
            Kind::Rect if node.join => self.max_r_block = self.max_r_block.max(node.len),
            Kind::L => self.max_l_block = self.max_l_block.max(node.len),
            Kind::Rect => {}
        }
    }
}

/// What a worker publishes when a task completes: the lists of the
/// nodes it built, in a segment of columns of its own, with their block
/// records in tree order and the task's replay accounting. A published
/// task is never written again, so workers read each other's results
/// without locks.
struct TaskOut {
    /// The task's first node (its node range is `lo..lo + blocks.len()`).
    lo: usize,
    cols: Columns,
    blocks: Vec<Block>,
    /// The task's accounting, folded over its nodes.
    acc: TaskAcc,
    /// Per-node accounting, kept on cached runs only: whether the serial
    /// pass hits the cache depends on what it stored before, node by
    /// node, so those tasks replay node by node.
    nodes: Vec<NodeAcc>,
    /// Degradations carried by the task's cache hits, by node (blocks
    /// the engine stores carry none; kept exact for foreign caches).
    hit_degradations: Vec<(usize, Vec<DegradationEvent>)>,
}

/// The run's scheduling state, shared by every worker.
struct WorkerCtx<'a> {
    bin: &'a BinaryTree,
    library: &'a ModuleLibrary,
    eff: &'a EffectivePolicies,
    cache: Option<&'a (dyn BlockCache + Sync)>,
    fps: Option<&'a [Fingerprint]>,
    parent: &'a [usize],
    /// Per split join, the child tasks it still waits on.
    deps: &'a [AtomicUsize],
    /// Subtree sizes in binary-tree nodes (post-order contiguity makes
    /// `[i + 1 - size[i], i]` exactly node `i`'s subtree).
    size: &'a [usize],
    /// The task size: subtrees of fewer nodes run inline as one task.
    cap: usize,
    /// The roots of the inline tasks, in tree order.
    roots: &'a [usize],
    /// The next unclaimed entry of `roots`.
    next: &'a AtomicUsize,
    /// Each task root's index into `tasks` (`u32::MAX` elsewhere).
    task_of: &'a [u32],
    /// One slot per task, in tree order, set when the task completes.
    tasks: &'a [OnceLock<TaskOut>],
    shared: &'a SharedGov,
    tracer: Option<&'a Tracer>,
}

/// Attempts the parallel pass. `Ok(None)` means "run the serial path
/// instead" — tiny trees, invalid inputs (whose error ordering the
/// serial loop defines), scheduling failures, or a run whose serial
/// schedule would trip a resource limit.
pub(crate) fn try_parallel(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    cache: Option<&(dyn BlockCache + Sync)>,
    start: Instant,
    tracer: Option<&Tracer>,
) -> Result<Option<Frontier>, OptError> {
    // The main thread's trace context; the serial path re-emits its own
    // phases after a fallback, so every `Ok(None)` route below must emit
    // a `replay_discard` (when work was attempted) and no phase spans.
    let tc = TraceCtx::main(tracer);
    let restructure_started = Instant::now();
    let bin = fp_tree::restructure::restructure(tree)?;
    let restructure_spent = restructure_started.elapsed();
    if bin.is_empty() {
        return Err(OptError::EmptyFloorplan);
    }
    let n = bin.len();
    let mut leaf_count = 0usize;
    // Upfront leaf validation: the serial loop owns the error *ordering*
    // for invalid inputs (it may trip a budget before reaching a broken
    // leaf), so any invalid leaf routes the whole run to it.
    for node in bin.nodes() {
        if let BinNode::Leaf { module, .. } = node {
            leaf_count += 1;
            match library.get(*module) {
                Some(m) if !m.implementations().is_empty() => {}
                _ => return Ok(None),
            }
        }
    }
    let threads = config.resolved_threads().min(leaf_count.max(1));
    if threads < 2 || n < MIN_PARALLEL_NODES {
        return Ok(None);
    }

    let fps_vec = cache.map(|_| {
        fp_tree::fingerprint::block_fingerprints(&bin, library, policy_fingerprint(config))
    });
    let fps = fps_vec.as_deref();

    // Split granularity: subtrees below `cap` binary nodes execute as
    // one inline serial task (their post-order range is contiguous);
    // joins at or above it are individual tasks. `cap = 2` degenerates
    // to per-node scheduling (`split_threshold == 0`, the testing aid).
    let cap = config.task_size_for(leaf_count).max(2);
    let mut parent = vec![usize::MAX; n];
    let mut size = vec![1usize; n];
    for (i, node) in bin.nodes().iter().enumerate() {
        if let BinNode::Join { left, right, .. } = node {
            parent[*left] = i;
            parent[*right] = i;
            size[i] = size[*left] + size[*right] + 1;
        }
    }
    // Every child of a split join is itself a task root (either another
    // split join or the root of a maximal inline subtree), so split
    // joins always wait on exactly their two children's tasks.
    let mut dep_counts = vec![0usize; n];
    for i in 0..n {
        if size[i] >= cap {
            dep_counts[i] = 2;
        }
    }
    let deps: Vec<AtomicUsize> = dep_counts.into_iter().map(AtomicUsize::new).collect();
    // Number the tasks in tree order — split joins and the roots of
    // maximal inline subtrees, whose node ranges tile `0..n` — and list
    // the inline roots, the tasks ready from the start, in the same
    // order. (With per-node scheduling these are exactly the leaves.)
    let mut task_of = vec![u32::MAX; n];
    let mut task_count = 0u32;
    let mut roots = Vec::new();
    for i in 0..n {
        let inline_root = size[i] < cap
            && match parent.get(i).copied() {
                Some(p) if p != usize::MAX => size[p] >= cap,
                _ => true,
            };
        if inline_root || size[i] >= cap {
            task_of[i] = task_count;
            task_count += 1;
        }
        if inline_root {
            roots.push(i);
        }
    }
    let tasks: Vec<OnceLock<TaskOut>> = (0..task_count).map(|_| OnceLock::new()).collect();
    let shared = SharedGov {
        limit: config.memory_limit,
        committed: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        fallback: AtomicBool::new(false),
        first_trip: Mutex::new(None),
        start,
        deadline: config.deadline,
        cancel: config.cancel.clone(),
    };
    let eff = EffectivePolicies {
        r: config.r_policy,
        l: config.l_policy.clone(),
    };
    let next = AtomicUsize::new(0);
    let ctx = WorkerCtx {
        bin: &bin,
        library,
        eff: &eff,
        cache,
        fps,
        parent: &parent,
        deps: &deps,
        size: &size,
        cap,
        roots: &roots,
        next: &next,
        task_of: &task_of,
        tasks: &tasks,
        shared: &shared,
        tracer,
    };

    let enumerate_started = Instant::now();
    let slots = std::thread::scope(|scope| {
        let ctx = &ctx;
        for w in 1..threads {
            // A helper that cannot be spawned is simply absent: the
            // other claim loops drain its share.
            let _ = std::thread::Builder::new()
                .name(format!("fp-sched-{w}"))
                .spawn_scoped(scope, move || claim_loop(w, ctx));
        }
        // The caller maps leaves to assignment slots for the frontier
        // while the helpers start, then claims tasks beside them.
        let slots = leaf_slots(tree);
        claim_loop(0, ctx);
        slots
    });

    // Non-rescuable trips (deadline, cancellation, broken invariants)
    // are final and reported directly; anything rescuable routes through
    // the serial path so the rescue ladder replays exactly.
    let enumerate_spent = enumerate_started.elapsed();
    let first = lock_or_recover(&shared.first_trip).take();
    if let Some((trip, block)) = first {
        if trip.is_rescuable() {
            tc.emit(TraceEvent::ReplayDiscard {
                reason: "trip_fallback",
            });
            return Ok(None);
        }
        if let Trip::Deadline { elapsed, .. } = &trip {
            tc.emit(TraceEvent::DeadlineTrip {
                block: block as u32,
                elapsed_ns: crate::engine::ns(*elapsed),
            });
        }
        return Err(trip_error(trip, block, 0, 0));
    }
    if shared.fallback.load(Ordering::Acquire) {
        tc.emit(TraceEvent::ReplayDiscard {
            reason: "trip_fallback",
        });
        return Ok(None);
    }

    let mut outs: Vec<TaskOut> = Vec::with_capacity(tasks.len());
    for cell in tasks {
        match cell.into_inner() {
            // Published tasks tile the tree in order; anything else is a
            // scheduling bug, and the serial path still produces the
            // correct result.
            Some(out) if out.lo == outs.last().map_or(0, |o| o.lo + o.blocks.len()) => {
                outs.push(out);
            }
            _ => {
                tc.emit(TraceEvent::ReplayDiscard {
                    reason: "worker_hole",
                });
                return Ok(None);
            }
        }
    }

    let replay_started = Instant::now();
    let Some(mut stats) = replay_serial_schedule(&mut outs, config, fps) else {
        // The serial schedule would have tripped: discard everything
        // (including buffered cache stores) and let the serial path
        // reproduce the trip/rescue byte-for-byte.
        tc.emit(TraceEvent::ReplayDiscard {
            reason: "replay_budget",
        });
        return Ok(None);
    };
    let replay_spent = replay_started.elapsed();

    // Clean run: flush the buffered cache stores in tree order — the
    // same insertion order the serial pass would have produced.
    let flush_started = Instant::now();
    if let (Some(cache), Some(fps)) = (cache, fps) {
        for out in &outs {
            for (i, (acc, block)) in (out.lo..).zip(out.nodes.iter().zip(&out.blocks)) {
                if acc.store_after_replay {
                    if let Some(&fp) = fps.get(i) {
                        cache.store(fp, out.cols.view(block).to_cached());
                    }
                }
            }
        }
    }
    let flush_spent = flush_started.elapsed();

    stats.elapsed = start.elapsed();
    // Phase spans only on the committed pass (a fallback's serial rerun
    // emits its own); Selection and Run mirror the replayed `RunStats`.
    tc.phase(PhaseName::Restructure, restructure_spent);
    tc.phase(PhaseName::Enumerate, enumerate_spent);
    tc.phase(PhaseName::Replay, replay_spent);
    tc.phase(PhaseName::CacheFlush, flush_spent);
    tc.phase(PhaseName::Selection, stats.selection_time);
    tc.phase(PhaseName::Run, stats.elapsed);
    // The block records gather into one table; each task's columns stay
    // where its worker wrote them, as one segment of the store.
    let mut blocks = Vec::with_capacity(n);
    let mut segs = Vec::with_capacity(outs.len());
    for out in outs {
        blocks.extend_from_slice(&out.blocks);
        segs.push(out.cols);
    }
    Frontier::from_parts(bin, Store { segs, blocks }, stats, slots).map(Some)
}

/// One worker (0 is the calling thread): claims the next inline task,
/// builds and publishes it, then builds every split join its tasks
/// complete. Returns when nothing is left to claim, or when the run
/// aborts.
fn claim_loop(w: usize, ctx: &WorkerCtx<'_>) {
    let tc = TraceCtx {
        tracer: ctx.tracer,
        worker: w as u32,
    };
    let mut scratch = Scratch::default();
    while !ctx.shared.aborted() {
        // Relaxed: the counter hands out indices and publishes nothing;
        // `roots` is written before any helper starts.
        let Some(&root) = ctx.roots.get(ctx.next.fetch_add(1, Ordering::Relaxed)) else {
            return;
        };
        let mut index = root;
        loop {
            if !run_task(index, ctx, &mut scratch, tc) {
                return;
            }
            // The task is published: release the consuming split join,
            // and build it next if this task was the last it waited on.
            // The decrement releases this task's publication and the
            // last one acquires its sibling's.
            let p = ctx.parent.get(index).copied().unwrap_or(usize::MAX);
            match ctx.deps.get(p) {
                Some(dep) if dep.fetch_sub(1, Ordering::AcqRel) == 1 => index = p,
                _ => break,
            }
        }
    }
}

/// Builds the task rooted at `index` — an inline subtree's whole
/// post-order range, or one split join — and publishes it. `false`
/// means the task was not published and the run is aborting.
fn run_task(index: usize, ctx: &WorkerCtx<'_>, scratch: &mut Scratch, tc: TraceCtx<'_>) -> bool {
    // An inline task executes its whole contiguous subtree range
    // serially in post-order (children always precede parents); a
    // split join's task is the single join node.
    let task_size = ctx.size.get(index).copied().unwrap_or(1);
    let lo = if task_size < ctx.cap {
        if task_size > 1 {
            tc.emit(TraceEvent::SplitInline {
                node: index as u32,
                nodes: task_size as u32,
            });
        }
        index + 1 - task_size
    } else {
        index
    };
    let task = ctx.task_of.get(index).copied().unwrap_or(u32::MAX);
    let Some(slot) = ctx.tasks.get(task as usize) else {
        // Not a task root: a scheduling bug. The serial path still
        // computes the right answer.
        ctx.shared.request_fallback();
        return false;
    };
    let mut out = TaskOut {
        lo,
        cols: Columns::new(task),
        blocks: Vec::with_capacity(index + 1 - lo),
        acc: TaskAcc::default(),
        nodes: Vec::new(),
        hit_degradations: Vec::new(),
    };
    for i in lo..=index {
        if let Err(trip) = build_node(i, ctx, &mut out, scratch, tc) {
            if !is_abort(&trip) {
                if trip.is_rescuable() {
                    // Defensive: workers do not produce rescuable
                    // trips directly, but if one appears, the
                    // serial path owns the rescue ladder.
                    ctx.shared.request_fallback();
                } else {
                    ctx.shared.record_trip(trip, i);
                }
            }
            return false;
        }
    }
    let committed = out.acc.committed;
    if slot.set(out).is_err() {
        // Double-build: a scheduling bug. The serial path still
        // computes the right answer.
        ctx.shared.request_fallback();
        return false;
    }
    ctx.shared.committed.fetch_add(committed, Ordering::Relaxed);
    true
}

/// Builds node `index` of the running task `out` under a per-worker
/// governor: appends its lists to the task's columns, its block record
/// to the task, and folds its replay accounting into the task's.
fn build_node(
    index: usize,
    ctx: &WorkerCtx<'_>,
    out: &mut TaskOut,
    scratch: &mut Scratch,
    tc: TraceCtx<'_>,
) -> Result<(), Trip> {
    ctx.shared.check_realtime(index)?;
    let node = ctx
        .bin
        .node(index)
        .ok_or(Trip::Internal("scheduler node index out of range"))?;
    let mut acc = NodeAcc {
        join: matches!(node, BinNode::Join { .. }),
        ..NodeAcc::default()
    };
    let mut gov = WorkerGov::new(ctx.shared, index, out.acc.committed);
    let block = match node {
        BinNode::Leaf { module, .. } => {
            let list = ctx
                .library
                .get(*module)
                .ok_or(Trip::Internal("leaf module vanished mid-run"))?
                .implementations();
            gov.charge(list.len())?;
            out.cols.push_leaf(list.as_slice())?
        }
        BinNode::Join { op, left, right } => {
            let fp = ctx.fps.and_then(|f| f.get(index)).copied();
            let mut hit = None;
            if let (Some(cache), Some(fp)) = (ctx.cache, fp) {
                acc.looked_up = true;
                // A hit copies the cached lists straight out of the entry
                // the cache lends.
                cache.lookup(fp, &mut |found| {
                    hit = Some(gov.charge(found.len()).and_then(|()| {
                        acc.initial_hit = true;
                        tc.emit(TraceEvent::CacheHit {
                            node: index as u32,
                            len: found.len() as u32,
                        });
                        if !found.degradations.is_empty() {
                            out.hit_degradations
                                .push((index, found.degradations.clone()));
                        }
                        out.cols.push_cached(&found.shapes)
                    }));
                });
                if hit.is_none() {
                    tc.emit(TraceEvent::CacheMiss { node: index as u32 });
                }
            }
            match hit {
                Some(block) => block?,
                None => {
                    let (Some(left), Some(right)) =
                        (operand(ctx, out, *left), operand(ctx, out, *right))
                    else {
                        return Err(Trip::Internal("scheduler dependency not built"));
                    };
                    let mut node_stats = RunStats::default();
                    build_join(
                        *op,
                        left,
                        right,
                        ctx.eff,
                        &mut gov,
                        &mut node_stats,
                        scratch,
                        index as u32,
                        tc,
                    )?;
                    acc.r_reductions = node_stats.r_reductions;
                    acc.l_reductions = node_stats.l_reductions;
                    acc.selection_time = node_stats.selection_time;
                    out.cols.commit(&scratch.out)?
                }
            }
        }
    };
    acc.len = block.len();
    acc.kind = block.kind;
    acc.generated = gov.generated;
    acc.transient_peak = gov.peak;
    out.blocks.push(block);
    out.acc.add(&acc);
    if ctx.cache.is_some() {
        out.nodes.push(acc);
    }
    Ok(())
}

/// The committed lists of join operand `child`: a node of the running
/// task itself, or else the root of a published task (every child of a
/// split join is one), which is that task's last node.
fn operand<'v>(ctx: &'v WorkerCtx<'_>, out: &'v TaskOut, child: usize) -> Option<View<'v>> {
    if child >= out.lo {
        let block = out.blocks.get(child - out.lo)?;
        return Some(out.cols.view(block));
    }
    let task = ctx.tasks.get(*ctx.task_of.get(child)? as usize)?.get()?;
    if task.lo + task.blocks.len() != child + 1 {
        return None;
    }
    Some(task.cols.view(task.blocks.last()?))
}

/// Replays the serial schedule over the workers' accounting in tree
/// order. Returns `None` if the serial run would have tripped the budget
/// or a fault-plan ordinal anywhere — the caller then discards the
/// parallel work. Otherwise returns the exact serial [`RunStats`] (minus
/// `elapsed`, which the caller stamps) and marks which nodes the serial
/// pass would have stored to the cache. A task without per-node records
/// folds in one step; a cached run's tasks walk their nodes, tracking the
/// fingerprints a serial pass would already have stored (within-run
/// self-hits).
fn replay_serial_schedule(
    outs: &mut [TaskOut],
    config: &OptimizeConfig,
    fps: Option<&[Fingerprint]>,
) -> Option<RunStats> {
    let empty: &[u64] = &[];
    let points = config.fault_plan.as_ref().map_or(empty, FaultPlan::points);
    let mut replay = Replay::new(config.memory_limit, points);
    for out in outs {
        if out.nodes.is_empty() {
            replay.fold(&out.acc)?;
            continue;
        }
        let hits = &out.hit_degradations;
        for (i, acc) in (out.lo..).zip(out.nodes.iter_mut()) {
            let fp = fps.and_then(|f| f.get(i)).copied();
            let events = hits
                .iter()
                .find(|&&(node, _)| node == i)
                .map(|(_, events)| events.as_slice());
            replay.node(acc, fp, events)?;
        }
    }
    Some(replay.finish())
}

/// The serial meter's state, advanced over the schedule in tree order.
struct Replay<'a> {
    limit: Option<usize>,
    /// The fault plan's ordinals, ascending; `cursor` skips those passed.
    points: &'a [u64],
    cursor: usize,
    committed: usize,
    generated: u64,
    stored: HashSet<Fingerprint>,
    stats: RunStats,
}

impl<'a> Replay<'a> {
    fn new(limit: Option<usize>, points: &'a [u64]) -> Self {
        Replay {
            limit,
            points,
            cursor: 0,
            committed: 0,
            generated: 0,
            stored: HashSet::new(),
            stats: RunStats::default(),
        }
    }

    /// Advances over one stretch of the schedule; `None` if the serial
    /// meter trips in it. The fold is exact for a stretch of any length:
    /// the meter trips the budget when the committed total plus a node's
    /// in-flight live count exceeds the limit, and the stretch's `peak`
    /// is the largest such sum above the total at its start; a fault
    /// point trips when the generated ordinal crosses it, and the
    /// nodes' generated ranges tile `(generated, generated + G]`.
    fn fold(&mut self, acc: &TaskAcc) -> Option<()> {
        if self.limit.is_some_and(|l| self.committed + acc.peak > l) {
            return None;
        }
        let after = self.generated + acc.generated;
        while let Some(&p) = self.points.get(self.cursor) {
            if p <= self.generated {
                self.cursor += 1;
                continue;
            }
            if p <= after {
                return None;
            }
            break;
        }
        self.generated = after;
        let stats = &mut self.stats;
        stats.peak_impls = stats.peak_impls.max(self.committed + acc.peak);
        self.committed += acc.committed;
        stats.r_reductions += acc.r_reductions;
        stats.l_reductions += acc.l_reductions;
        stats.selection_time += acc.selection_time;
        stats.max_r_block = stats.max_r_block.max(acc.max_r_block);
        stats.max_l_block = stats.max_l_block.max(acc.max_l_block);
        Some(())
    }

    /// Advances over one node of a cached run. The serial pass hits the
    /// cache where the pre-run lookup hit, or where an identical block
    /// earlier in tree order was stored under the same address during
    /// this run; a hit charges the cached list in one go, with no
    /// selection.
    fn node(
        &mut self,
        acc: &mut NodeAcc,
        fp: Option<Fingerprint>,
        hit_events: Option<&[DegradationEvent]>,
    ) -> Option<()> {
        let serial_hit =
            acc.looked_up && (acc.initial_hit || fp.is_some_and(|fp| self.stored.contains(&fp)));
        let mut charged = *acc;
        if serial_hit {
            self.stats.cache_hits += 1;
            self.stats
                .degradations
                .extend(hit_events.into_iter().flatten().cloned());
            charged = NodeAcc {
                generated: acc.len as u64,
                transient_peak: acc.len,
                r_reductions: 0,
                l_reductions: 0,
                selection_time: Duration::ZERO,
                ..charged
            };
        } else if acc.looked_up {
            self.stats.cache_misses += 1;
            acc.store_after_replay = true;
            if let Some(fp) = fp {
                self.stored.insert(fp);
            }
        }
        let mut one = TaskAcc::default();
        one.add(&charged);
        self.fold(&one)
    }

    fn finish(self) -> RunStats {
        RunStats {
            final_impls: self.committed,
            generated: self.generated,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One node as the strategy draws it: `(len, generated, transient
    /// peak)`, a code whose bit 0 makes an L-block and bit 1 a join, and
    /// the R and L reductions.
    type Drawn = ((usize, u64, usize), u8, (usize, usize));

    fn node_acc(&((len, generated, transient_peak), code, (r, l)): &Drawn) -> NodeAcc {
        NodeAcc {
            len,
            kind: if code & 1 == 1 { Kind::L } else { Kind::Rect },
            join: code & 2 == 2,
            generated,
            transient_peak,
            r_reductions: r,
            l_reductions: l,
            selection_time: Duration::from_nanos(generated * 3 + r as u64),
            ..NodeAcc::default()
        }
    }

    /// The serial meter spelled out node by node, independently of
    /// [`Replay`]: a budget trip where the committed total plus a node's
    /// transient peak exceeds the limit, a fault where a plan point lies
    /// in the node's range of generated ordinals.
    fn model(nodes: &[NodeAcc], limit: Option<usize>, points: &[u64]) -> Option<RunStats> {
        let mut stats = RunStats::default();
        for n in nodes {
            let (committed, generated) = (stats.final_impls, stats.generated);
            if limit.is_some_and(|l| committed + n.transient_peak > l) {
                return None;
            }
            if points
                .iter()
                .any(|&p| generated < p && p <= generated + n.generated)
            {
                return None;
            }
            stats.peak_impls = stats.peak_impls.max(committed + n.transient_peak);
            stats.final_impls += n.len;
            stats.generated += n.generated;
            stats.r_reductions += n.r_reductions;
            stats.l_reductions += n.l_reductions;
            stats.selection_time += n.selection_time;
            if n.kind == Kind::L {
                stats.max_l_block = stats.max_l_block.max(n.len);
            } else if n.join {
                stats.max_r_block = stats.max_r_block.max(n.len);
            }
        }
        Some(stats)
    }

    fn per_node(nodes: &[NodeAcc], limit: Option<usize>, points: &[u64]) -> Option<RunStats> {
        let mut replay = Replay::new(limit, points);
        for n in nodes {
            replay.node(&mut n.clone(), None, None)?;
        }
        Some(replay.finish())
    }

    fn per_task(tasks: &[&[NodeAcc]], limit: Option<usize>, points: &[u64]) -> Option<RunStats> {
        let mut replay = Replay::new(limit, points);
        for task in tasks {
            let mut acc = TaskAcc::default();
            for n in *task {
                acc.add(n);
            }
            replay.fold(&acc)?;
        }
        Some(replay.finish())
    }

    proptest! {
        /// Folding each task into one step decides every budget and
        /// fault-plan trip exactly as the node-by-node replay does, and a
        /// clean fold yields the same `RunStats`, for any tiling of the
        /// nodes into tasks. Limits sit at the serial peak and one either
        /// side of it; fault points at task-boundary ordinals and one
        /// either side of them.
        #[test]
        fn task_fold_matches_the_per_node_replay(
            drawn in proptest::collection::vec(
                ((0usize..30, 0u64..40, 0usize..60), 0u8..4, (0usize..3, 0usize..3)),
                1..48,
            ),
            cuts in proptest::collection::vec(1usize..48, 0..12),
            (limit_pick, limit_random) in (0u8..5, 0usize..1500),
            boundary_points in proptest::collection::vec((0usize..13, 0u8..3), 0..4),
            random_points in proptest::collection::vec(0u64..1000, 0..3),
        ) {
            let nodes: Vec<NodeAcc> = drawn.iter().map(node_acc).collect();
            let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c < nodes.len()).collect();
            bounds.push(0);
            bounds.push(nodes.len());
            bounds.sort_unstable();
            bounds.dedup();
            let tasks: Vec<&[NodeAcc]> = bounds.windows(2).map(|w| &nodes[w[0]..w[1]]).collect();

            let clean = model(&nodes, None, &[]).expect("no limit, no faults");
            let peak = clean.peak_impls;
            let limit = match limit_pick {
                0 => Some(peak.saturating_sub(1)),
                1 => Some(peak),
                2 => Some(peak + 1),
                3 => Some(limit_random),
                _ => None,
            };
            // The generated ordinal at every task boundary.
            let ordinals: Vec<u64> = bounds
                .iter()
                .map(|&b| nodes[..b].iter().map(|n| n.generated).sum())
                .collect();
            let mut points = random_points;
            for (at, offset) in boundary_points {
                if let Some(&ordinal) = ordinals.get(at % ordinals.len()) {
                    points.push((ordinal + u64::from(offset)).saturating_sub(1));
                }
            }
            let plan = FaultPlan::at_allocations(&points);

            let expect = model(&nodes, limit, plan.points());
            prop_assert_eq!(&per_node(&nodes, limit, plan.points()), &expect);
            prop_assert_eq!(&per_task(&tasks, limit, plan.points()), &expect);
            if limit.is_some_and(|l| l >= peak) && plan.is_empty() {
                prop_assert_eq!(expect, Some(clean));
            }
        }
    }
}
