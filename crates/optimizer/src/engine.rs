//! The bottom-up optimization engine.

use core::fmt;
use std::time::{Duration, Instant};

use fp_geom::{Area, LShape, Rect};
use fp_select::{LReductionPolicy, RReductionPolicy};
use fp_shape::combine::{combine_with_provenance_scratch, Compose};
use fp_shape::{JoinScratch, LList, LListSet, RList};
use fp_tree::layout::Assignment;
use fp_tree::restructure::{restructure, BinNode, BinOp, BinaryTree};
use fp_tree::{FloorplanTree, ModuleLibrary, TreeError};

use fp_trace::{PhaseName, SolverKind, TraceEvent, Tracer};

use crate::cache::{policy_fingerprint, BlockCache};
use crate::governor::{CancelToken, FaultPlan, Governor, ResourceGovernor, Trip};
use crate::joins;
use crate::store::{Block, Columns, Kind, Staged, Store, View};

/// The engine-internal tracing handle: an optional [`Tracer`] plus the
/// emitting worker's id, threaded by value through the hot path. With
/// no tracer attached every emission is a `None` check; with an
/// unsubscribed tracer it is one more branch — either way cheap enough
/// to instrument unconditionally.
#[derive(Clone, Copy)]
pub(crate) struct TraceCtx<'a> {
    pub(crate) tracer: Option<&'a Tracer>,
    pub(crate) worker: u32,
}

impl<'a> TraceCtx<'a> {
    /// The main-thread context over an optional tracer.
    pub(crate) fn main(tracer: Option<&'a Tracer>) -> Self {
        TraceCtx { tracer, worker: 0 }
    }

    /// Whether events are actually recorded (gates the few emission
    /// sites that must compute extra data, like cache-eviction deltas).
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.tracer.is_some_and(Tracer::is_subscribed)
    }

    #[inline]
    pub(crate) fn emit(&self, event: TraceEvent) {
        if let Some(tracer) = self.tracer {
            tracer.emit(self.worker, event);
        }
    }

    /// Emits a completed [`PhaseName`] span.
    #[inline]
    pub(crate) fn phase(&self, name: PhaseName, dur: Duration) {
        self.emit(TraceEvent::Phase {
            name,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// Saturating nanosecond conversion for event fields.
pub(crate) fn ns(dur: Duration) -> u64 {
    u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)
}

/// What the optimizer minimizes over the root implementation list.
///
/// The bottom-up enumeration is objective-agnostic (it keeps every
/// non-redundant implementation), so the objective only decides which
/// root implementation is traced back — any monotone cost works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize the enveloping rectangle's area (the paper's objective).
    #[default]
    MinArea,
    /// Minimize the half-perimeter `w + h` (favours square floorplans;
    /// a common proxy for wirelength).
    MinHalfPerimeter,
}

impl Objective {
    /// The cost of a candidate envelope (lower is better); ties break
    /// towards smaller width for determinism.
    #[must_use]
    fn cost(self, r: Rect) -> (Area, u64) {
        match self {
            Objective::MinArea => (r.area(), r.w),
            Objective::MinHalfPerimeter => (r.half_perimeter(), r.w),
        }
    }
}

/// Configuration of an optimization run.
///
/// The default runs the plain DAC'90 algorithm (no selection) under a
/// 10-million-implementation budget — large enough for the small and
/// medium benchmarks, and the deterministic stand-in for the paper
/// machine's physical memory on the large ones.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// `R_Selection` policy for rectangular blocks (`K₁`), if any.
    pub r_policy: Option<RReductionPolicy>,
    /// `L_Selection` policy for L-shaped blocks (`K₂`, θ, `S`), if any.
    pub l_policy: Option<LReductionPolicy>,
    /// Implementation budget; `None` is truly unlimited (can exhaust the
    /// host machine on large floorplans — that is the paper's point).
    pub memory_limit: Option<usize>,
    /// What to minimize at the root.
    pub objective: Objective,
    /// Fixed-outline constraint: only root implementations fitting inside
    /// this rectangle qualify. [`OptError::NoFeasibleOutline`] when none
    /// does.
    pub outline: Option<Rect>,
    /// When a budget (or injected fault) trips mid-block, retry the block
    /// under progressively stricter selection policies instead of failing.
    /// Every degradation is recorded in [`RunStats::degradations`].
    pub auto_rescue: bool,
    /// Wall-clock deadline for the whole run; [`OptError::DeadlineExceeded`]
    /// when it passes. Never rescued — time does not come back.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token; [`OptError::Cancelled`] once
    /// triggered. Never rescued.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault-injection plan (testing aid): charges fail at
    /// the configured allocation ordinals as if the budget had tripped.
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads for the tree-level scheduler: `1` runs the classic
    /// serial bottom-up pass, `n > 1` builds independent sibling
    /// subtrees on the calling thread plus `n − 1` scoped helpers, and
    /// `0` resolves to the host's available parallelism. Results are
    /// byte-identical to the serial path at any thread count (a run
    /// whose serial schedule would trip a resource limit is
    /// transparently re-run serially).
    /// Defaults to the `FP_THREADS` environment variable, else `1`.
    pub threads: usize,
    /// Scheduler split granularity, in restructured binary-tree nodes:
    /// the floor of the task size. Subtrees smaller than the task size
    /// ([`OptimizeConfig::task_size_for`], this threshold or a share of
    /// the tree, whichever is larger) run inline as one serial task
    /// instead of being split into per-node tasks, and whole trees
    /// smaller than [`OptimizeConfig::AUTO_SERIAL_FACTOR`] times this
    /// threshold skip the worker pool entirely (auto-serial) even when
    /// `threads > 1`. `0` disables both heuristics: per-node scheduling,
    /// never auto-serial (testing aid — results are identical either
    /// way).
    pub split_threshold: usize,
    /// Extra salt folded into the cache's policy fingerprint. `0` (the
    /// default) leaves the fingerprint byte-identical to earlier
    /// releases; multi-objective runs set it to the netlist fingerprint
    /// so area-only and wirelength-aware results never share cache
    /// addresses.
    pub extra_salt: u128,
}

impl OptimizeConfig {
    /// The default budget used by [`OptimizeConfig::default`].
    pub const DEFAULT_MEMORY_LIMIT: usize = 10_000_000;

    /// The cross-chain pruning threshold: every L-block gets the cheap
    /// same-`w2` prune, and the full (quadratic worst case) 4-D prune
    /// runs while the block holds at most this many implementations.
    pub const DEFAULT_GLOBAL_L_PRUNE: usize = 50_000;

    /// The default scheduler split granularity: the smallest task size,
    /// in binary-tree nodes. It holds on trees too small for
    /// [`OptimizeConfig::TASKS_PER_THREAD`] to cut coarser, so a claimed
    /// task amortizes its fixed cost over a few hundred joins rather
    /// than one.
    pub const DEFAULT_SPLIT_THRESHOLD: usize = 256;

    /// How many inline tasks per worker the scheduler cuts a large tree
    /// into (see [`OptimizeConfig::task_size_for`]). The paper keeps
    /// every list small, so joins average a microsecond or two and a
    /// fixed cost per task adds up: a few hundred tasks leave enough to
    /// even out the workers' loads, while thousands make that cost a
    /// visible share of the run.
    pub const TASKS_PER_THREAD: usize = 16;

    /// Whole trees below `AUTO_SERIAL_FACTOR * split_threshold` binary
    /// nodes resolve to the serial path even when `threads > 1`: at that
    /// size the helper spin-up, restructure-twice fallback risk, and
    /// per-task costs provably cost more than the parallelism returns.
    pub const AUTO_SERIAL_FACTOR: usize = 16;

    /// The cap on run-wide rescue retries: past it, the original trip is
    /// reported anyway. Under a brutally tight budget every join of a
    /// large tree can trip once at the ladder's floor (re-selecting its
    /// operands each time), so the cap must comfortably exceed the
    /// ladder's rung count plus the block count of the paper's
    /// benchmarks.
    pub const DEFAULT_MAX_RESCUE_ATTEMPTS: u32 = 256;

    /// Plain run (no selection) with the default budget.
    #[must_use]
    pub fn plain() -> Self {
        OptimizeConfig {
            r_policy: None,
            l_policy: None,
            memory_limit: Some(Self::DEFAULT_MEMORY_LIMIT),
            objective: Objective::MinArea,
            outline: None,
            auto_rescue: false,
            deadline: None,
            cancel: None,
            fault_plan: None,
            threads: default_threads(),
            split_threshold: Self::DEFAULT_SPLIT_THRESHOLD,
            extra_salt: 0,
        }
    }

    /// Sets the scheduler thread count (`0` = available parallelism, `1`
    /// = serial). The thread count never changes results — only how the
    /// tree's independent subtrees are scheduled.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective worker count this configuration runs with: `0`
    /// resolves to the host's available parallelism at call time.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// Overrides the scheduler split granularity, the floor of the task
    /// size (see [`OptimizeConfig::split_threshold`]). `0` disables
    /// inline batching and the auto-serial fallback — every node becomes
    /// its own task, exactly the pre-granularity scheduler.
    #[must_use]
    pub fn with_split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = threshold;
        self
    }

    /// `true` when a tree with `modules` leaf modules resolves to the
    /// serial path despite `threads > 1`: its restructured binary tree
    /// (`2·modules − 1` nodes) is below the auto-serial bound, where
    /// pool overhead cannot pay off. The decision never changes results
    /// — parallel and serial runs are byte-identical by contract.
    #[must_use]
    pub fn auto_serial_for(&self, modules: usize) -> bool {
        let bin_nodes = 2 * modules.max(1) - 1;
        self.resolved_threads() > 1
            && self.split_threshold > 0
            && bin_nodes
                < self
                    .split_threshold
                    .saturating_mul(Self::AUTO_SERIAL_FACTOR)
    }

    /// The scheduler's task size for a tree with `modules` leaf modules,
    /// in restructured binary-tree nodes (`2·modules − 1` in all): the
    /// maximal subtrees below it run inline as one task each, and every
    /// join above it is a task of its own. It is `split_threshold` or
    /// the tree's nodes over `threads ×`
    /// [`OptimizeConfig::TASKS_PER_THREAD`], whichever is larger, so a
    /// large tree becomes a few hundred tasks whatever its size. `1`
    /// (per-node tasks) when `split_threshold` is `0`. The size never
    /// changes results, only how the work is cut.
    #[must_use]
    pub fn task_size_for(&self, modules: usize) -> usize {
        if self.split_threshold == 0 {
            return 1;
        }
        let bin_nodes = 2 * modules.max(1) - 1;
        let share = bin_nodes
            / self
                .resolved_threads()
                .saturating_mul(Self::TASKS_PER_THREAD);
        self.split_threshold.max(share)
    }

    /// Sets the root objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Constrains the floorplan to fit inside `outline`.
    #[must_use]
    pub fn with_outline(mut self, outline: Rect) -> Self {
        self.outline = Some(outline);
        self
    }

    /// Run with `R_Selection` at limit `k1`.
    #[must_use]
    pub fn with_r_selection(mut self, k1: usize) -> Self {
        self.r_policy = Some(RReductionPolicy::new(k1));
        self
    }

    /// Run with `L_Selection` under the given policy.
    #[must_use]
    pub fn with_l_selection(mut self, policy: LReductionPolicy) -> Self {
        self.l_policy = Some(policy);
        self
    }

    /// Overrides the implementation budget.
    #[must_use]
    pub fn with_memory_limit(mut self, limit: Option<usize>) -> Self {
        self.memory_limit = limit;
        self
    }

    /// Enables (or disables) the degrade-and-retry rescue ladder.
    #[must_use]
    pub fn with_auto_rescue(mut self, enabled: bool) -> Self {
        self.auto_rescue = enabled;
        self
    }

    /// Sets a wall-clock deadline for the run.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a deterministic fault-injection plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Folds `salt` into the cache's policy fingerprint (see
    /// [`OptimizeConfig::extra_salt`]). `0` restores the default,
    /// salt-free fingerprint.
    #[must_use]
    pub fn with_extra_salt(mut self, salt: u128) -> Self {
        self.extra_salt = salt;
        self
    }

    /// Resolves the environment-sensitive thread count to the concrete
    /// value the run will actually execute with. This is the **one
    /// documented precedence order** for configuration:
    ///
    /// 1. **explicit builder values** — [`OptimizeConfig::with_threads`]
    ///    always wins;
    /// 2. **environment variables** — `$FP_THREADS` seeds the scheduler
    ///    default (read once per process);
    /// 3. **defaults** — a serial scheduler.
    ///
    /// In the returned config `threads` is never `0` (available
    /// parallelism is resolved at call time). Binaries, the batch
    /// server, and trace metadata echo this resolved config instead of
    /// re-deriving the precedence themselves. Resolution never changes
    /// results — only scheduling.
    #[must_use]
    pub fn resolve(&self) -> OptimizeConfig {
        let mut resolved = self.clone();
        resolved.threads = self.resolved_threads();
        resolved
    }

    /// [`OptimizeConfig::resolve`] plus the tree-aware scheduling
    /// decision: when [`OptimizeConfig::auto_serial_for`] fires for
    /// `tree`'s module count, the returned config's `threads` is
    /// clamped to `1` — the worker count the run actually executes
    /// with. Binaries and the batch server echo this resolved view so
    /// "why didn't it parallelize?" is answerable from a reply alone.
    #[must_use]
    pub fn resolve_for(&self, tree: &FloorplanTree) -> OptimizeConfig {
        let mut resolved = self.resolve();
        if self.auto_serial_for(tree.module_count()) {
            resolved.threads = 1;
        }
        resolved
    }
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig::plain()
    }
}

/// The process-wide default scheduler thread count: the `FP_THREADS`
/// environment variable when set to a valid `usize` (`0` = available
/// parallelism), else `1` (serial). Read once and cached — the CI matrix
/// uses this to run the whole test suite through the parallel scheduler
/// without touching every call site.
fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1)
    })
}

/// Errors reported by an [`Optimizer`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The floorplan tree is structurally invalid.
    Tree(TreeError),
    /// The tree has no modules.
    EmptyFloorplan,
    /// A leaf references a module that is missing from the library.
    MissingModule {
        /// The module id.
        module: usize,
    },
    /// A module has an empty implementation list.
    NoImplementations {
        /// The module id.
        module: usize,
    },
    /// No root implementation fits inside the requested fixed outline.
    NoFeasibleOutline {
        /// The requested outline.
        outline: Rect,
        /// The smallest-area implementation that was available.
        best_available: Rect,
    },
    /// The implementation budget was exhausted — the reproduction of the
    /// paper's "\[9\] failed to run due to insufficient memory space".
    OutOfMemory {
        /// Implementations live at failure.
        live: usize,
        /// The configured budget.
        limit: usize,
        /// Peak live count reached before failing (the `> M` the paper
        /// reports for failed runs).
        peak: usize,
        /// The binary-tree block under construction when the budget
        /// tripped (an index into the restructured tree's node order).
        block: usize,
    },
    /// An injected fault point fired (deterministic stand-in for memory
    /// pressure; only produced under a configured [`FaultPlan`]).
    FaultInjected {
        /// The allocation ordinal that tripped.
        allocation: u64,
        /// The block under construction at the trip.
        block: usize,
        /// Implementations live at the trip.
        live: usize,
        /// Peak live count reached before the trip.
        peak: usize,
    },
    /// The wall-clock deadline passed before the run finished.
    DeadlineExceeded {
        /// Time elapsed when the trip was detected.
        elapsed: Duration,
        /// The configured deadline.
        deadline: Duration,
        /// The block under construction at the trip.
        block: usize,
    },
    /// The run's [`CancelToken`] was cancelled.
    Cancelled {
        /// The block under construction at the trip.
        block: usize,
    },
    /// An engine invariant was violated (a bug, not a user error).
    Internal {
        /// Which invariant broke.
        what: &'static str,
        /// The block under construction when it broke.
        block: usize,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Tree(e) => write!(f, "invalid floorplan tree: {e}"),
            OptError::EmptyFloorplan => write!(f, "floorplan has no modules"),
            OptError::MissingModule { module } => write!(f, "module {module} missing from library"),
            OptError::NoImplementations { module } => {
                write!(f, "module {module} has no implementations")
            }
            OptError::NoFeasibleOutline {
                outline,
                best_available,
            } => write!(
                f,
                "no implementation fits the {outline} outline (best available: {best_available})"
            ),
            OptError::OutOfMemory {
                live,
                limit,
                peak,
                block,
            } => write!(
                f,
                "out of memory at block {block}: {live} implementations live (budget {limit}, peak {peak})"
            ),
            OptError::FaultInjected {
                allocation,
                block,
                live,
                peak,
            } => write!(
                f,
                "injected fault at allocation {allocation} (block {block}, {live} live, peak {peak})"
            ),
            OptError::DeadlineExceeded {
                elapsed,
                deadline,
                block,
            } => write!(
                f,
                "deadline exceeded at block {block}: {elapsed:?} elapsed (deadline {deadline:?})"
            ),
            OptError::Cancelled { block } => write!(f, "cancelled at block {block}"),
            OptError::Internal { what, block } => {
                write!(f, "internal invariant violated at block {block}: {what}")
            }
        }
    }
}

impl std::error::Error for OptError {}

impl From<TreeError> for OptError {
    fn from(e: TreeError) -> Self {
        OptError::Tree(e)
    }
}

/// Instrumentation of a run (the quantities of the paper's tables).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// `M`: the peak number of implementations stored at once.
    pub peak_impls: usize,
    /// Implementations still stored at the end of the run.
    pub final_impls: usize,
    /// Total candidates ever generated (pre-pruning).
    pub generated: u64,
    /// How many times `R_Selection` fired.
    pub r_reductions: usize,
    /// How many times the L-block reduction fired.
    pub l_reductions: usize,
    /// The largest rectangular block's final implementation count.
    pub max_r_block: usize,
    /// The largest L-shaped block's final implementation count — the
    /// paper's §5 observation is that this dwarfs [`RunStats::max_r_block`]
    /// on wheel-rich floorplans, which is why `L_Selection` exists.
    pub max_l_block: usize,
    /// Wall-clock time of the optimization proper.
    pub elapsed: Duration,
    /// Wall-clock spent inside the R/L selection kernels (a subset of
    /// [`RunStats::elapsed`]; on parallel runs it is the *sum* across
    /// workers and can exceed the wall-clock).
    pub selection_time: Duration,
    /// Every policy degradation the rescue ladder applied, in order.
    /// Empty when the run never tripped (or rescue was off).
    pub degradations: Vec<DegradationEvent>,
    /// Rescue retries spent (equals `degradations.len()` on success).
    pub rescue_attempts: u32,
    /// Join blocks reconstituted from a [`BlockCache`] instead of being
    /// rebuilt (always 0 on uncached runs). A cached block's candidates
    /// are never generated, so `generated`/`peak_impls` on warm runs
    /// undercount what a cold run would report.
    pub cache_hits: usize,
    /// Join blocks looked up in a [`BlockCache`] but rebuilt from scratch
    /// (always 0 on uncached runs). After `update_module` on one leaf,
    /// this equals the number of joins on the leaf's root path — the
    /// instrumented proof that incremental re-optimization rebuilds
    /// `O(depth)` blocks, not `O(n)`.
    pub cache_misses: usize,
}

/// Why the rescue ladder fired for one degradation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescueReason {
    /// The real implementation budget tripped.
    Budget {
        /// Implementations live at the trip.
        live: usize,
        /// The configured budget.
        limit: usize,
    },
    /// An injected fault point fired.
    Fault {
        /// The allocation ordinal that tripped.
        allocation: u64,
    },
}

impl fmt::Display for RescueReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescueReason::Budget { live, limit } => {
                write!(f, "budget exhausted ({live} live > {limit})")
            }
            RescueReason::Fault { allocation } => {
                write!(f, "injected fault at allocation {allocation}")
            }
        }
    }
}

/// One rung of the rescue ladder: the policies the run degraded *to*
/// after a trip. The sequence across a run is monotone — `k1`/`k2` never
/// grow, θ never shrinks — so the report reads as a tightening schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The block whose construction tripped.
    pub block: usize,
    /// 1-based attempt number across the whole run.
    pub attempt: u32,
    /// What tripped.
    pub reason: RescueReason,
    /// Implementations live at the moment of the trip (before rollback).
    pub live_at_trip: usize,
    /// `R_Selection` limit `K₁` now in force, if any.
    pub k1: Option<usize>,
    /// `L_Selection` limit `K₂` now in force, if any.
    pub k2: Option<usize>,
    /// `L_Selection` trigger θ now in force, in thousandths (1000 = 1.0).
    pub theta_millis: u32,
    /// `L_Selection` heuristic prefilter `S` now in force, if any.
    pub prefilter: Option<usize>,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {} attempt {}: {} -> K1={}, K2={}, theta={}.{:03}, prefilter {}",
            self.block,
            self.attempt,
            self.reason,
            self.k1.map_or_else(|| "off".into(), |k| k.to_string()),
            self.k2.map_or_else(|| "off".into(), |k| k.to_string()),
            self.theta_millis / 1000,
            self.theta_millis % 1000,
            self.prefilter
                .map_or_else(|| "off".into(), |s| s.to_string()),
        )
    }
}

/// A successful run plus its fault-tolerance report: whether the rescue
/// ladder fired and what it degraded. Returned by [`Optimizer::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The optimization result (its `stats.degradations` carries the
    /// full degradation log).
    pub outcome: Outcome,
    /// Whether the rescue ladder fired at least once.
    pub rescued: bool,
}

impl RunOutcome {
    /// The degradation log, in the order the ladder applied it.
    #[must_use]
    pub fn degradations(&self) -> &[DegradationEvent] {
        &self.outcome.stats.degradations
    }
}

/// The result of a successful optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The minimal floorplan area found.
    pub area: Area,
    /// The enveloping rectangle realizing it.
    pub root_impl: Rect,
    /// One implementation choice per module (in
    /// [`FloorplanTree::leaves_in_order`] order), realizable via
    /// [`fp_tree::layout::realize`].
    pub assignment: Assignment,
    /// Run instrumentation.
    pub stats: RunStats,
}

/// The full solution frontier of an optimization run: every non-redundant
/// implementation of the whole floorplan, each traceable to a realizable
/// per-module assignment.
///
/// The root R-list is the floorplan's *feasible-envelope trade-off curve*
/// (every width/height compromise the topology admits); a [`Frontier`]
/// lets callers query it repeatedly — different objectives, different
/// fixed outlines — without re-running the bottom-up enumeration.
///
/// # Example
///
/// ```
/// use fp_geom::Rect;
/// use fp_optimizer::{Objective, OptimizeConfig, Optimizer};
/// use fp_tree::generators;
///
/// let bench = generators::fig1();
/// let lib = generators::module_library(&bench.tree, 4, 2);
/// let frontier = Optimizer::new(&bench.tree, &lib)
///     .config(&OptimizeConfig::default())
///     .run_frontier()?;
/// let free = frontier.best(Objective::MinArea, None)?;
/// // Any envelope on the frontier traces back to a concrete assignment.
/// for i in 0..frontier.envelopes().len() {
///     let out = frontier.outcome(i);
///     assert_eq!(out.root_impl, frontier.envelopes()[i]);
/// }
/// assert!(frontier.best(Objective::MinArea, Some(Rect::new(1, 1))).is_err());
/// # drop(free);
/// # Ok::<(), fp_optimizer::OptError>(())
/// ```
pub struct Frontier {
    bin: BinaryTree,
    store: Store,
    /// The root block's list, the one every query reads.
    envelopes: RList,
    stats: RunStats,
    /// Maps tree leaf ids to assignment slots.
    slot_of: Vec<usize>,
    leaves: usize,
}

impl Frontier {
    /// Assembles a frontier from a finished run's parts (same crate only;
    /// the public constructors are [`Optimizer::run_frontier`] and
    /// friends).
    ///
    /// # Errors
    ///
    /// [`OptError::Internal`] unless the root block is a rectangular
    /// staircase.
    pub(crate) fn from_parts(
        bin: BinaryTree,
        store: Store,
        stats: RunStats,
        (slot_of, leaves): (Vec<usize>, usize),
    ) -> Result<Self, OptError> {
        let root = match store.view(bin.root()) {
            Some(View::Rect { rects, .. }) => RList::from_sorted(rects.to_vec()).ok(),
            _ => None,
        };
        let Some(envelopes) = root else {
            return Err(OptError::Internal {
                what: "root block is not rectangular",
                block: bin.root(),
            });
        };
        Ok(Frontier {
            bin,
            store,
            envelopes,
            stats,
            slot_of,
            leaves,
        })
    }

    /// The non-redundant envelope implementations of the whole floorplan
    /// (width descending).
    #[must_use]
    pub fn envelopes(&self) -> &RList {
        &self.envelopes
    }

    /// Run statistics of the enumeration that built this frontier.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Traces the `index`-th envelope back to a full outcome.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for [`Frontier::envelopes`].
    #[must_use]
    pub fn outcome(&self, index: usize) -> Outcome {
        let envelope = self.envelopes()[index];
        let assignment = trace_back_with(&self.bin, &self.store, index, &self.slot_of, self.leaves);
        Outcome {
            area: envelope.area(),
            root_impl: envelope,
            assignment,
            stats: self.stats.clone(),
        }
    }

    /// The best outcome under `objective`, optionally constrained to fit
    /// `outline`.
    ///
    /// # Errors
    ///
    /// [`OptError::NoFeasibleOutline`] when no envelope fits `outline`.
    pub fn best(&self, objective: Objective, outline: Option<Rect>) -> Result<Outcome, OptError> {
        let list = self.envelopes();
        let pick = list
            .iter()
            .enumerate()
            .filter(|(_, r)| outline.is_none_or(|o| r.fits_in(o)))
            .min_by_key(|(_, r)| objective.cost(**r))
            .map(|(i, _)| i);
        match pick {
            Some(i) => Ok(self.outcome(i)),
            None => {
                // Only the outline filter can empty a non-empty list, and
                // joins of non-empty lists are non-empty — but report a
                // typed internal error rather than panic if either fails.
                let best_available = list.iter().copied().min_by_key(|r| r.area());
                match (outline, best_available) {
                    (Some(outline), Some(best_available)) => Err(OptError::NoFeasibleOutline {
                        outline,
                        best_available,
                    }),
                    _ => Err(OptError::Internal {
                        what: "solution frontier is empty",
                        block: self.bin.root(),
                    }),
                }
            }
        }
    }
}

/// The unified optimizer facade: one builder over every execution
/// regime — serial, tree-parallel, content-addressed caching,
/// and structured tracing — replacing the historical `optimize*`
/// entry-point family.
///
/// ```
/// use fp_optimizer::{Optimizer, OptimizeConfig};
/// use fp_tree::generators;
///
/// let bench = generators::fp1();
/// let library = generators::module_library(&bench.tree, 4, 1);
/// let outcome = Optimizer::new(&bench.tree, &library)
///     .config(&OptimizeConfig::default())
///     .run_best()?;
/// assert!(outcome.area > 0);
/// # Ok::<(), fp_optimizer::OptError>(())
/// ```
///
/// Attach a cache ([`Optimizer::cache`]) to memoize committed join
/// blocks across runs, and a tracer ([`Optimizer::tracer`]) to collect
/// the structured event stream (joins, selections with solver kinds,
/// cache traffic, inline tasks, rescues) for JSON-lines export,
/// metrics, or the per-phase profiler. Neither changes results: every
/// combination is byte-identical to the plain serial run.
#[derive(Clone)]
pub struct Optimizer<'a> {
    pub(crate) tree: &'a FloorplanTree,
    pub(crate) library: &'a ModuleLibrary,
    pub(crate) config: OptimizeConfig,
    pub(crate) cache: Option<&'a (dyn BlockCache + Sync)>,
    pub(crate) tracer: Option<&'a Tracer>,
}

impl<'a> Optimizer<'a> {
    /// A facade over `tree`/`library` with the default configuration,
    /// no cache, and no tracer.
    #[must_use]
    pub fn new(tree: &'a FloorplanTree, library: &'a ModuleLibrary) -> Self {
        Optimizer {
            tree,
            library,
            config: OptimizeConfig::default(),
            cache: None,
            tracer: None,
        }
    }

    /// Sets the run configuration (cloned; the builder owns its copy).
    #[must_use]
    pub fn config(mut self, config: &OptimizeConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Attaches a content-addressed [`BlockCache`], consulted before —
    /// and populated after — every join block build. Every join block
    /// of the restructured tree is addressed by its canonical
    /// fingerprint (child fingerprints + combining op + module lists +
    /// [`policy_fingerprint`]); a hit short-circuits the block's
    /// enumeration, pruning, and selection entirely. Caching is
    /// disabled for the remainder of a run at the first resource trip:
    /// rescued blocks are built under tightened policies that no longer
    /// match the address salt.
    #[must_use]
    pub fn cache(mut self, cache: &'a (dyn BlockCache + Sync)) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a [`Tracer`]: the run emits the structured event
    /// vocabulary (`join_start`/`join_done`, `selection` with the CSPP
    /// solver kind, `cache_hit`/`miss`/`evict`, `split_inline`,
    /// `replay_discard`, `rescue`, `deadline_trip`, phase spans) into
    /// its ring buffers. An unsubscribed tracer costs one branch per
    /// emission site; tracing never changes results.
    #[must_use]
    pub fn tracer(mut self, tracer: &'a Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs the bottom-up enumeration and returns the whole solution
    /// [`Frontier`] (every non-redundant root implementation), for
    /// querying several objectives/outlines from one enumeration.
    ///
    /// # Errors
    ///
    /// See [`OptError`]; outline infeasibility is deferred to
    /// [`Frontier::best`].
    pub fn run_frontier(self) -> Result<Frontier, OptError> {
        optimize_frontier_impl(
            self.tree,
            self.library,
            &self.config,
            self.cache,
            self.tracer,
        )
    }

    /// Runs the optimizer and returns the best implementation under the
    /// configured objective and outline (exact when no selection policy
    /// is configured; near-optimal under selection), together with a
    /// realizable per-module assignment and run statistics.
    ///
    /// # Errors
    ///
    /// See [`OptError`]; in particular [`OptError::OutOfMemory`]
    /// reproduces the paper's memory-exhaustion failures
    /// deterministically.
    pub fn run_best(self) -> Result<Outcome, OptError> {
        let objective = self.config.objective;
        let outline = self.config.outline;
        let tc = TraceCtx::main(self.tracer);
        let frontier = self.run_frontier()?;
        let started = Instant::now();
        let best = frontier.best(objective, outline);
        tc.phase(PhaseName::TraceBack, started.elapsed());
        best
    }

    /// Like [`Optimizer::run_best`], wrapped in a [`RunOutcome`]
    /// carrying the fault-tolerance report (whether the rescue ladder
    /// fired, and the full degradation log in
    /// `outcome.stats.degradations`).
    ///
    /// # Errors
    ///
    /// Same as [`Optimizer::run_best`].
    pub fn run(self) -> Result<RunOutcome, OptError> {
        let outcome = self.run_best()?;
        let rescued = !outcome.stats.degradations.is_empty();
        Ok(RunOutcome { outcome, rescued })
    }
}

fn optimize_frontier_impl(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    cache: Option<&(dyn BlockCache + Sync)>,
    tracer: Option<&Tracer>,
) -> Result<Frontier, OptError> {
    let start = Instant::now();
    if config.resolved_threads() > 1 && !config.auto_serial_for(tree.module_count()) {
        // The scheduler returns `None` whenever the serial path must run
        // instead — tiny trees, invalid inputs (whose error order the
        // serial loop defines), or a run whose serial schedule would trip
        // a resource limit (the rescue ladder is inherently sequential).
        if let Some(frontier) =
            crate::sched::try_parallel(tree, library, config, cache, start, tracer)?
        {
            return Ok(frontier);
        }
    }
    serial_frontier(tree, library, config, cache, start, TraceCtx::main(tracer))
}

/// The classic serial bottom-up pass. `start` is the run's epoch: the
/// parallel scheduler backdates it when falling back so deadlines keep
/// their original budget.
pub(crate) fn serial_frontier(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    cache: Option<&(dyn BlockCache + Sync)>,
    start: Instant,
    tc: TraceCtx<'_>,
) -> Result<Frontier, OptError> {
    let restructure_started = Instant::now();
    let bin = restructure(tree)?;
    tc.phase(PhaseName::Restructure, restructure_started.elapsed());
    if bin.is_empty() {
        return Err(OptError::EmptyFloorplan);
    }

    // Canonical block addresses, only when a cache is wired in. The salt
    // folds in every configuration knob that can change committed block
    // content, so differently configured runs never alias.
    let fps = cache.map(|_| {
        fp_tree::fingerprint::block_fingerprints(&bin, library, policy_fingerprint(config))
    });
    // Lookups and stores stop at the first resource trip: blocks rebuilt
    // by the rescue ladder deviate from the salt's policies.
    let mut caching = cache.is_some();

    let mut gov = ResourceGovernor::new(config.memory_limit)
        .with_start(start)
        .with_deadline(config.deadline)
        .with_cancel(config.cancel.clone())
        .with_faults(config.fault_plan.clone());
    let mut stats = RunStats::default();
    let mut scratch = Scratch::default();
    // The policies actually in force; the rescue ladder tightens these.
    let mut eff = EffectivePolicies {
        r: config.r_policy,
        l: config.l_policy.clone(),
    };

    // Each block's consuming join (usize::MAX for the root): blocks whose
    // parent has not been built yet form the committed *frontier*, the
    // set the rescue ladder may legally re-select (consumed blocks must
    // keep their lists — their parents' provenance indexes into them).
    let mut parent = vec![usize::MAX; bin.len()];
    for (i, n) in bin.nodes().iter().enumerate() {
        if let BinNode::Join { left, right, .. } = n {
            parent[*left] = i;
            parent[*right] = i;
        }
    }

    // Bottom-up evaluation over the topologically ordered binary nodes.
    let enumerate_started = Instant::now();
    // Eviction counts are only observable as deltas of the cache's own
    // stats, and only worth polling when someone is listening.
    let mut last_evictions = if tc.on() {
        cache.and_then(BlockCache::stats).map(|s| s.evictions)
    } else {
        None
    };
    let mut cols = Columns::new(0);
    let mut blocks: Vec<Block> = Vec::with_capacity(bin.len());
    for (index, node) in bin.nodes().iter().enumerate() {
        // Input validation happens once, outside the retry loop: these
        // errors are not resource trips and are never rescued.
        if let BinNode::Leaf { module, .. } = node {
            let m = library
                .get(*module)
                .ok_or(OptError::MissingModule { module: *module })?;
            if m.implementations().is_empty() {
                return Err(OptError::NoImplementations { module: *module });
            }
        }

        let node_fp = fps.as_ref().and_then(|f| f.get(index)).copied();
        let block = loop {
            let result = gov.poll().and_then(|()| {
                // Per-block cache hook: a hit replaces the whole
                // build/prune/select pipeline with a reconstitution of
                // the committed list (still charged against the budget —
                // cached implementations are as live as built ones).
                if caching && matches!(node, BinNode::Join { .. }) {
                    if let (Some(cache), Some(fp)) = (cache, node_fp) {
                        // A hit copies the cached lists straight out of
                        // the entry the cache lends.
                        let mut reconstituted = None;
                        cache.lookup(fp, &mut |hit| {
                            reconstituted = Some(gov.charge(hit.len()).and_then(|()| {
                                stats.cache_hits += 1;
                                tc.emit(TraceEvent::CacheHit {
                                    node: index as u32,
                                    len: hit.len() as u32,
                                });
                                stats.degradations.extend(hit.degradations.iter().cloned());
                                cols.push_cached(&hit.shapes)
                            }));
                        });
                        if let Some(block) = reconstituted {
                            return block;
                        }
                        stats.cache_misses += 1;
                        tc.emit(TraceEvent::CacheMiss { node: index as u32 });
                    }
                }
                match node {
                    BinNode::Leaf { module, .. } => {
                        // Validated above; re-fetch to keep the borrow local.
                        let list = library
                            .get(*module)
                            .ok_or(Trip::Internal("leaf module vanished mid-run"))?
                            .implementations();
                        gov.charge(list.len())?;
                        cols.push_leaf(list.as_slice())
                    }
                    BinNode::Join { op, left, right } => {
                        let (Some(l), Some(r)) = (blocks.get(*left), blocks.get(*right)) else {
                            return Err(Trip::Internal("join operand not built"));
                        };
                        build_join(
                            *op,
                            cols.view(l),
                            cols.view(r),
                            &eff,
                            &mut gov,
                            &mut stats,
                            &mut scratch,
                            index as u32,
                            tc,
                        )?;
                        let block = cols.commit(&scratch.out)?;
                        if caching {
                            if let (Some(cache), Some(fp)) = (cache, node_fp) {
                                cache.store(fp, cols.view(&block).to_cached());
                                if let Some(last) = last_evictions.as_mut() {
                                    let now = cache.stats().map_or(*last, |s| s.evictions);
                                    if now > *last {
                                        tc.emit(TraceEvent::CacheEvict { count: now - *last });
                                        *last = now;
                                    }
                                }
                            }
                        }
                        Ok(block)
                    }
                }
            });
            match result {
                Ok(block) => break block,
                Err(trip) => {
                    caching = false;
                    let live_at_trip = gov.live();
                    gov.abort_block();
                    if matches!(trip, Trip::Deadline { .. }) {
                        tc.emit(TraceEvent::DeadlineTrip {
                            block: index as u32,
                            elapsed_ns: ns(start.elapsed()),
                        });
                    }
                    let exhausted =
                        stats.rescue_attempts >= OptimizeConfig::DEFAULT_MAX_RESCUE_ATTEMPTS;
                    if !(config.auto_rescue && trip.is_rescuable()) || exhausted {
                        return Err(trip_error(trip, index, live_at_trip, gov.peak()));
                    }
                    let tightened = tighten(&mut eff);
                    // Post-hoc selection on the retried block cannot avoid
                    // a mid-generation trip (candidates are charged before
                    // policies fire), so shrink the *inputs*: re-select
                    // every frontier block (this join's operands and all
                    // committed blocks awaiting a future join) under the
                    // tightened policies. Shrinking list+prov in place
                    // keeps the grandchild provenance indices valid.
                    let live_before = gov.live();
                    for (b, block) in blocks.iter_mut().enumerate() {
                        if parent.get(b).is_none_or(|&p| p < index) {
                            continue; // consumed: its parent's prov needs it
                        }
                        reselect_committed(
                            &mut cols,
                            block,
                            &eff,
                            &mut gov,
                            &mut stats,
                            &mut scratch,
                            b as u32,
                            tc,
                        )
                        .map_err(|t| trip_error(t, b, gov.live(), gov.peak()))?;
                    }
                    // Progress requires a new rung on the ladder or freed
                    // capacity from the operand re-selection; with neither,
                    // the retry would trip identically — give up.
                    if !tightened && gov.live() >= live_before {
                        return Err(trip_error(trip, index, live_at_trip, gov.peak()));
                    }
                    stats.rescue_attempts += 1;
                    let reason = match &trip {
                        Trip::Budget(e) => RescueReason::Budget {
                            live: e.live,
                            limit: e.limit,
                        },
                        Trip::Fault { allocation } => RescueReason::Fault {
                            allocation: *allocation,
                        },
                        // Unreachable: non-rescuable trips returned above.
                        _ => RescueReason::Budget {
                            live: live_at_trip,
                            limit: gov.limit().unwrap_or(0),
                        },
                    };
                    tc.emit(TraceEvent::Rescue {
                        block: index as u32,
                        attempt: stats.rescue_attempts,
                        live: live_at_trip as u64,
                    });
                    stats.degradations.push(DegradationEvent {
                        block: index,
                        attempt: stats.rescue_attempts,
                        reason,
                        live_at_trip,
                        k1: eff.r.as_ref().map(RReductionPolicy::limit),
                        k2: eff.l.as_ref().map(LReductionPolicy::k2),
                        theta_millis: eff.l.as_ref().map_or(1000, |l| theta_millis(l.theta())),
                        prefilter: eff.l.as_ref().and_then(LReductionPolicy::prefilter),
                    });
                }
            }
        };

        match block.kind {
            Kind::Rect => {
                if !matches!(node, BinNode::Leaf { .. }) {
                    stats.max_r_block = stats.max_r_block.max(block.len());
                }
            }
            Kind::L => stats.max_l_block = stats.max_l_block.max(block.len()),
        }
        gov.commit(block.len());
        blocks.push(block);
    }

    stats.peak_impls = gov.peak();
    stats.final_impls = gov.live();
    stats.generated = gov.generated();
    stats.elapsed = start.elapsed();
    // Enumerate covers the whole bottom-up pass; Selection (accumulated
    // by `select_shapes`) and Run mirror `RunStats` exactly so the
    // profile reconciles with the stats report to the nanosecond.
    tc.phase(PhaseName::Enumerate, enumerate_started.elapsed());
    tc.phase(PhaseName::Selection, stats.selection_time);
    tc.phase(PhaseName::Run, stats.elapsed);

    // `from_parts` verifies that the root block is rectangular, so
    // `Frontier::envelopes` stays panic-free.
    let store = Store {
        segs: vec![cols],
        blocks,
    };
    Frontier::from_parts(bin, store, stats, leaf_slots(tree))
}

/// Maps tree leaf node ids to assignment slots (their positions in
/// [`FloorplanTree::leaves_in_order`]) once, for all trace-backs; returns
/// the map and the slot count.
pub(crate) fn leaf_slots(tree: &FloorplanTree) -> (Vec<usize>, usize) {
    let leaves = tree.leaves_in_order();
    let mut slot_of = vec![usize::MAX; tree.len()];
    for (slot, &leaf) in leaves.iter().enumerate() {
        if let Some(s) = slot_of.get_mut(leaf) {
            *s = slot;
        }
    }
    (slot_of, leaves.len())
}

/// The selection policies currently in force — starts as the configured
/// pair and only ever tightens (the rescue ladder's state).
#[derive(Clone)]
pub(crate) struct EffectivePolicies {
    pub(crate) r: Option<RReductionPolicy>,
    pub(crate) l: Option<LReductionPolicy>,
}

/// θ as thousandths, for the integer-only degradation report.
fn theta_millis(theta: f64) -> u32 {
    (theta * 1000.0).round() as u32
}

/// Floor below which the ladder refuses to halve a selection limit.
const POLICY_FLOOR: usize = 2;
/// `K₁` introduced by the first rung when `R_Selection` was off.
const RESCUE_SEED_K1: usize = 32;
/// `K₂` introduced by the first rung when `L_Selection` was off.
const RESCUE_SEED_K2: usize = 128;
/// Prefilter `S` introduced alongside [`RESCUE_SEED_K2`].
const RESCUE_SEED_PREFILTER: usize = 256;

/// One rung down the rescue ladder: tightens the effective policies
/// monotonically. Returns `false` when already at the floor (the ladder
/// is out of rungs and the trip must be reported).
fn tighten(eff: &mut EffectivePolicies) -> bool {
    let mut changed = false;
    match &mut eff.r {
        None => {
            eff.r = Some(RReductionPolicy::new(RESCUE_SEED_K1));
            changed = true;
        }
        Some(r) => {
            let k1 = r.limit();
            if k1 > POLICY_FLOOR {
                *r = RReductionPolicy::new((k1 / 2).max(POLICY_FLOOR));
                changed = true;
            }
        }
    }
    match &mut eff.l {
        None => {
            eff.l =
                Some(LReductionPolicy::new(RESCUE_SEED_K2).with_prefilter(RESCUE_SEED_PREFILTER));
            changed = true;
        }
        Some(l) => {
            let mut k2 = l.k2();
            let mut theta = l.theta();
            let mut prefilter = l.prefilter();
            let metric = l.metric();
            // Tighten the trigger and the heuristic first, then the limit.
            if theta < 1.0 {
                theta = 1.0;
                changed = true;
            } else if prefilter.is_none() {
                prefilter = Some(2 * k2.max(POLICY_FLOOR));
                changed = true;
            } else if k2 > POLICY_FLOOR {
                k2 = (k2 / 2).max(POLICY_FLOOR);
                changed = true;
            }
            let mut next = LReductionPolicy::new(k2)
                .with_theta(theta)
                .with_metric(metric);
            if let Some(s) = prefilter {
                next = next.with_prefilter(s.max(k2));
            }
            *l = next;
        }
    }
    changed
}

/// Maps a governor [`Trip`] to the public error for the block it stopped.
pub(crate) fn trip_error(trip: Trip, block: usize, live: usize, peak: usize) -> OptError {
    match trip {
        Trip::Budget(e) => OptError::OutOfMemory {
            live: e.live,
            limit: e.limit,
            peak,
            block,
        },
        Trip::Fault { allocation } => OptError::FaultInjected {
            allocation,
            block,
            live,
            peak,
        },
        Trip::Deadline { elapsed, deadline } => OptError::DeadlineExceeded {
            elapsed,
            deadline,
            block,
        },
        Trip::Cancelled => OptError::Cancelled { block },
        Trip::Internal(what) => OptError::Internal { what, block },
    }
}

/// A worker's reusable join arena: the shape kernels' buffers plus the
/// staged block a join builds before its survivors are committed. The
/// serial pass owns one; the scheduler gives one to each worker.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) join: JoinScratch,
    pub(crate) out: Staged,
}

/// Builds one join block under the governor into `scratch.out`: dispatch
/// to the join kind, then global pruning and the effective selection
/// policies. The caller commits the staged result to its columns.
/// Generic over [`Governor`] so the serial loop and the scheduler's
/// per-worker governors share one copy of the join machinery; `scratch`
/// is the caller's reusable join arena (one per worker).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_join<G: Governor>(
    op: BinOp,
    left: View<'_>,
    right: View<'_>,
    eff: &EffectivePolicies,
    gov: &mut G,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    node: u32,
    tc: TraceCtx<'_>,
) -> Result<(), Trip> {
    tc.emit(TraceEvent::JoinStart {
        node,
        left_len: left.len() as u32,
        right_len: right.len() as u32,
    });
    let started = tc.on().then(Instant::now);
    let Scratch { join, out } = scratch;
    match op {
        BinOp::Slice(how) => slice_join(left, right, how, gov, join, out)?,
        BinOp::WheelS1 => wheel_s1(left, right, out, gov)?,
        BinOp::WheelS2 => wheel_s23(left, right, joins::stage2, out, gov)?,
        BinOp::WheelS3 => wheel_s3(left, right, out, gov)?,
        BinOp::WheelS4 => wheel_s4(left, right, out, gov)?,
    }
    global_l_prune(out, OptimizeConfig::DEFAULT_GLOBAL_L_PRUNE, gov, join);
    let dropped = select_staged(out, eff, stats, join, node, tc)?;
    gov.discard(dropped);
    if let Some(started) = started {
        tc.emit(TraceEvent::JoinDone {
            node,
            out_len: out.len() as u32,
            dur_ns: ns(started.elapsed()),
        });
    }
    Ok(())
}

/// Checks that a staged R-list is an irreducible staircase (the check
/// [`RList::from_sorted`] makes) without giving up its buffer.
fn check_staircase(rects: &mut Vec<Rect>, what: &'static str) -> Result<(), Trip> {
    match RList::from_sorted(std::mem::take(rects)) {
        Ok(list) => {
            *rects = list.into_vec();
            Ok(())
        }
        Err(back) => {
            *rects = back;
            Err(Trip::Internal(what))
        }
    }
}

/// Slicing combination of two rectangular blocks (Stockmeyer merge).
fn slice_join<G: Governor>(
    left: View<'_>,
    right: View<'_>,
    how: Compose,
    meter: &mut G,
    scratch: &mut JoinScratch,
    out: &mut Staged,
) -> Result<(), Trip> {
    let a = left.as_rect()?;
    let b = right.as_rect()?;
    let combined = combine_with_provenance_scratch(a, b, how, scratch);
    meter.charge(combined.len())?;
    out.begin(Kind::Rect);
    out.rects.extend(combined.iter().map(|c| c.rect));
    out.prov
        .extend(combined.iter().map(|c| (c.left as u32, c.right as u32)));
    check_staircase(&mut out.rects, "Stockmeyer merge output is not a staircase")
}

/// Incremental within-chain dominance pruning for L-shape chains whose
/// candidates arrive with `w1` non-increasing, `w2` constant, and
/// `(h1, h2)` non-decreasing: a tie in `w1` makes the newcomer redundant;
/// a tie in both heights makes the previous element redundant.
fn push_l_chain<G: Governor>(
    shapes: &mut Vec<LShape>,
    prov: &mut Vec<(u32, u32)>,
    chain_start: usize,
    cand: LShape,
    p: (u32, u32),
    meter: &mut G,
) -> Result<(), Trip> {
    meter.charge(1)?;
    if shapes.len() > chain_start {
        let last = shapes[shapes.len() - 1];
        debug_assert_eq!(last.w2, cand.w2);
        debug_assert!(cand.w1 <= last.w1 && cand.h1 >= last.h1 && cand.h2 >= last.h2);
        if cand.w1 == last.w1 {
            meter.discard(1);
            return Ok(()); // cand dominates last: redundant
        }
        if cand.h1 == last.h1 && cand.h2 == last.h2 {
            shapes.pop();
            prov.pop();
            meter.discard(1); // last dominated cand: last redundant
        }
    }
    shapes.push(cand);
    prov.push(p);
    Ok(())
}

/// Same pruning discipline for rectangle chains (`w` non-increasing,
/// `h` non-decreasing).
fn push_rect_chain<G: Governor>(
    out: &mut Vec<(Rect, (u32, u32))>,
    chain_start: usize,
    cand: Rect,
    p: (u32, u32),
    meter: &mut G,
) -> Result<(), Trip> {
    meter.charge(1)?;
    if out.len() > chain_start {
        let (last, _) = out[out.len() - 1];
        debug_assert!(cand.w <= last.w && cand.h >= last.h);
        if cand.w == last.w {
            meter.discard(1);
            return Ok(());
        }
        if cand.h == last.h {
            out.pop();
            meter.discard(1);
        }
    }
    out.push((cand, p));
    Ok(())
}

/// Closes the chain that started at `start`, if it kept anything.
fn close_chain(out: &mut Staged, start: usize) {
    if out.shapes.len() > start {
        out.chains.push((start as u32, out.shapes.len() as u32));
    }
}

/// Wheel stage 1: `A × E → L`. One chain per `A` implementation.
fn wheel_s1<G: Governor>(
    left: View<'_>,
    right: View<'_>,
    out: &mut Staged,
    meter: &mut G,
) -> Result<(), Trip> {
    let a_list = left.as_rect()?;
    let e_list = right.as_rect()?;
    out.begin(Kind::L);
    for (ai, &a) in a_list.iter().enumerate() {
        let start = out.shapes.len();
        for (ei, &e) in e_list.iter().enumerate() {
            push_l_chain(
                &mut out.shapes,
                &mut out.prov,
                start,
                joins::stage1(a, e),
                (ai as u32, ei as u32),
                meter,
            )?;
        }
        close_chain(out, start);
    }
    Ok(())
}

/// Wheel stage 2 (and the shared machinery): for each stored L
/// implementation, a chain over the attached arm's R-list.
fn wheel_s23<G: Governor>(
    left: View<'_>,
    right: View<'_>,
    stage: fn(LShape, Rect) -> LShape,
    out: &mut Staged,
    meter: &mut G,
) -> Result<(), Trip> {
    let (l_shapes, _) = left.as_l()?;
    let r_list = right.as_rect()?;
    out.begin(Kind::L);
    for (li, &l) in l_shapes.iter().enumerate() {
        let start = out.shapes.len();
        for (ri, &r) in r_list.iter().enumerate() {
            push_l_chain(
                &mut out.shapes,
                &mut out.prov,
                start,
                stage(l, r),
                (li as u32, ri as u32),
                meter,
            )?;
        }
        close_chain(out, start);
    }
    Ok(())
}

/// Wheel stage 3: chains run over the *parent chain* for each fixed `C`
/// implementation (that orientation keeps `w2 = w_C` constant and the
/// monotonicity the chain prune needs).
fn wheel_s3<G: Governor>(
    left: View<'_>,
    right: View<'_>,
    out: &mut Staged,
    meter: &mut G,
) -> Result<(), Trip> {
    let (l_shapes, l_chains) = left.as_l()?;
    let c_list = right.as_rect()?;
    out.begin(Kind::L);
    for &(cs, ce) in l_chains {
        for (ci, &c) in c_list.iter().enumerate() {
            let start = out.shapes.len();
            for li in cs..ce {
                let cand = joins::stage3(l_shapes[li as usize], c);
                push_l_chain(
                    &mut out.shapes,
                    &mut out.prov,
                    start,
                    cand,
                    (li, ci as u32),
                    meter,
                )?;
            }
            close_chain(out, start);
        }
    }
    Ok(())
}

/// Wheel stage 4: `L × D → R`, with per-chain pruning then a global
/// staircase prune.
fn wheel_s4<G: Governor>(
    left: View<'_>,
    right: View<'_>,
    out: &mut Staged,
    meter: &mut G,
) -> Result<(), Trip> {
    let (l_shapes, _) = left.as_l()?;
    let d_list = right.as_rect()?;
    out.begin(Kind::Rect);
    for (li, &l) in l_shapes.iter().enumerate() {
        let start = out.pairs.len();
        for (di, &d) in d_list.iter().enumerate() {
            push_rect_chain(
                &mut out.pairs,
                start,
                joins::stage4(l, d),
                (li as u32, di as u32),
                meter,
            )?;
        }
    }
    let before = out.pairs.len();
    fp_shape::prune::pareto_min_rects_in_place(&mut out.pairs, |&(r, _)| r);
    meter.discard(before - out.pairs.len());
    out.rects.extend(out.pairs.iter().map(|&(r, _)| r));
    out.prov.extend(out.pairs.iter().map(|&(_, p)| p));
    check_staircase(&mut out.rects, "pruned stage-4 output is not a staircase")
}

/// Cross-chain dominance pruning of an L-block: the per-chain discipline
/// leaves implementations that a *different* chain dominates (e.g. a wider
/// `A` arm whose heights bring no benefit). The full 4-D prune removes
/// them and re-chains the survivors — this is what keeps the plain
/// algorithm's non-redundant counts at \[9\]'s scale. The cross-`w2`
/// pass is skipped above `cross_limit` implementations
/// ([`fp_shape::prune::prune_l_block`] documents both passes); the
/// engine passes [`OptimizeConfig::DEFAULT_GLOBAL_L_PRUNE`].
fn global_l_prune<G: Governor>(
    out: &mut Staged,
    cross_limit: usize,
    meter: &mut G,
    scratch: &mut JoinScratch,
) {
    if out.kind != Kind::L {
        return;
    }
    let Staged {
        shapes,
        prov,
        chains,
        ..
    } = out;
    let removed =
        fp_shape::prune::prune_l_block(shapes, prov, chains, cross_limit, &mut scratch.lprune);
    meter.discard(removed);
}

/// Keeps the items at the strictly increasing `positions`, in place.
fn compact<T: Copy>(items: &mut Vec<T>, positions: &[usize]) {
    for (k, &i) in positions.iter().enumerate() {
        items[k] = items[i];
    }
    items.truncate(positions.len());
}

/// Applies the effective selection policies to a staged block in place,
/// returning how many implementations were dropped (for the caller to
/// account against the governor as `discard` or `release`).
fn select_staged(
    out: &mut Staged,
    eff: &EffectivePolicies,
    stats: &mut RunStats,
    scratch: &mut JoinScratch,
    node: u32,
    tc: TraceCtx<'_>,
) -> Result<usize, Trip> {
    match out.kind {
        Kind::Rect => {
            let Some(policy) = &eff.r else {
                return Ok(0);
            };
            let n = out.rects.len();
            // The policy reads an `RList`: lend it the staged buffer.
            let list = RList::from_sorted(std::mem::take(&mut out.rects))
                .map_err(|_| Trip::Internal("staged rectangular block is not a staircase"))?;
            let before = scratch.cspp.int.counters();
            let started = Instant::now();
            let sel = policy.apply_scratch(&list, &mut scratch.cspp.int);
            let spent = started.elapsed();
            stats.selection_time += spent;
            let delta = scratch.cspp.int.counters().since(before);
            out.rects = list.into_vec();
            let Some(sel) = sel else {
                return Ok(0);
            };
            emit_selection(tc, node, delta, policy.limit(), n, spent);
            let dropped = n - sel.positions.len();
            compact(&mut out.rects, &sel.positions);
            if !out.prov.is_empty() {
                compact(&mut out.prov, &sel.positions);
            }
            stats.r_reductions += 1;
            Ok(dropped)
        }
        Kind::L => {
            let Some(policy) = &eff.l else {
                return Ok(0);
            };
            // View the chains as an LListSet for the policy layer.
            let mut lists = Vec::with_capacity(out.chains.len());
            for &(s, e) in &out.chains {
                let list = LList::from_sorted(out.shapes[s as usize..e as usize].to_vec())
                    .map_err(|_| Trip::Internal("engine chain is not an irreducible L-list"))?;
                lists.push(list);
            }
            let set = LListSet::from_lists(lists);
            let n = out.shapes.len();
            let before = scratch.cspp.counters();
            let started = Instant::now();
            let kept = policy.apply_scratch(&set, &mut scratch.cspp);
            let spent = started.elapsed();
            stats.selection_time += spent;
            let delta = scratch.cspp.counters().since(before);
            let Some(kept) = kept else {
                return Ok(0);
            };
            emit_selection(tc, node, delta, policy.k2(), n, spent);
            // Compact the survivors forward in place: every chain's
            // survivors land at or before its old start.
            let (mut write, mut chains) = (0, 0);
            for (c, positions) in kept.iter().enumerate() {
                let Some(&(s, _)) = out.chains.get(c) else {
                    break;
                };
                let start = write;
                for &p in positions {
                    let global = s as usize + p;
                    out.shapes[write] = out.shapes[global];
                    out.prov[write] = out.prov[global];
                    write += 1;
                }
                if write > start {
                    out.chains[chains] = (start as u32, write as u32);
                    chains += 1;
                }
            }
            out.shapes.truncate(write);
            out.prov.truncate(write);
            out.chains.truncate(chains);
            stats.l_reductions += 1;
            Ok(n - write)
        }
    }
}

/// Emits the `selection` (and, when any solves fell back, the
/// `monge_fallback`) event for one *effective* policy application —
/// declined applications (the block already fits) stay silent, so the
/// event count equals `RunStats::{r,l}_reductions`. The dominant solver
/// kind is classified from the arena's dispatch-counter delta; a zero
/// delta reports as the legacy kind.
fn emit_selection(
    tc: TraceCtx<'_>,
    node: u32,
    delta: fp_cspp::SolveCounters,
    k: usize,
    n: usize,
    dur: Duration,
) {
    if !tc.on() {
        return;
    }
    let solver = if delta.divide_conquer > 0 {
        SolverKind::Monge
    } else if delta.dense > 0 {
        SolverKind::Dense
    } else {
        SolverKind::Legacy
    };
    tc.emit(TraceEvent::Selection {
        node,
        solver,
        legacy: delta.legacy as u32,
        dense: delta.dense as u32,
        monge: delta.divide_conquer as u32,
        k: k as u32,
        n: n as u32,
        dur_ns: ns(dur),
    });
    if delta.monge_fallbacks > 0 {
        tc.emit(TraceEvent::MongeFallback {
            node,
            count: delta.monge_fallbacks as u32,
        });
    }
}

/// Rescue-ladder shrink of an already *committed* block: re-applies the
/// tightened policies to its list, shrinks its spans in place, and
/// releases the dropped storage.
///
/// Leaf blocks are built with empty provenance (their implementation
/// index *is* the module choice), so before subsetting one we seed the
/// identity provenance — trace-back then maps the surviving indices back
/// to original module choices through it.
#[allow(clippy::too_many_arguments)]
fn reselect_committed(
    cols: &mut Columns,
    block: &mut Block,
    eff: &EffectivePolicies,
    gov: &mut ResourceGovernor,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    node: u32,
    tc: TraceCtx<'_>,
) -> Result<(), Trip> {
    let Scratch { join, out } = scratch;
    out.load(cols.view(block));
    if out.kind == Kind::Rect && out.prov.is_empty() {
        out.prov.extend((0..out.rects.len() as u32).map(|i| (i, 0)));
    }
    let dropped = select_staged(out, eff, stats, join, node, tc)?;
    if dropped > 0 {
        cols.overwrite(block, out)?;
    }
    gov.release(dropped);
    Ok(())
}

/// Traces the chosen root implementation back to per-module choices.
fn trace_back_with(
    bin: &BinaryTree,
    store: &Store,
    root_idx: usize,
    slot_of: &[usize],
    leaves: usize,
) -> Assignment {
    let mut choices = vec![0usize; leaves];
    let mut stack = vec![(bin.root(), root_idx)];
    while let Some((node, idx)) = stack.pop() {
        let Some(bin_node) = bin.node(node) else {
            debug_assert!(false, "trace-back reached an out-of-range node");
            continue;
        };
        match bin_node {
            BinNode::Leaf { tree_leaf, .. } => {
                // A leaf re-selected by the rescue ladder carries identity
                // provenance mapping surviving indices to module choices;
                // an untouched leaf's index is the choice itself.
                let choice = match store.prov(node) {
                    Some(prov) if !prov.is_empty() => prov.get(idx).map_or(idx, |p| p.0 as usize),
                    _ => idx,
                };
                if let Some(slot) = slot_of.get(*tree_leaf).copied() {
                    if let Some(c) = choices.get_mut(slot) {
                        *c = choice;
                    }
                }
            }
            BinNode::Join { left, right, .. } => {
                let Some(prov) = store.prov(node) else {
                    debug_assert!(false, "trace-back reached an unbuilt block");
                    continue;
                };
                let Some(&(li, ri)) = prov.get(idx) else {
                    debug_assert!(false, "provenance index out of range");
                    continue;
                };
                stack.push((*left, li as usize));
                stack.push((*right, ri as usize));
            }
        }
    }
    Assignment::new(choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_select::Metric;
    use fp_tree::layout::{realize, Assignment as LayoutAssignment};
    use fp_tree::{generators, Chirality, CutDir, Module};
    use proptest::prelude::*;

    /// Facade shorthand keeping this suite's call sites compact.
    fn optimize(
        tree: &FloorplanTree,
        lib: &ModuleLibrary,
        config: &OptimizeConfig,
    ) -> Result<Outcome, OptError> {
        Optimizer::new(tree, lib).config(config).run_best()
    }

    /// Facade shorthand keeping this suite's call sites compact.
    fn optimize_frontier(
        tree: &FloorplanTree,
        lib: &ModuleLibrary,
        config: &OptimizeConfig,
    ) -> Result<Frontier, OptError> {
        Optimizer::new(tree, lib).config(config).run_frontier()
    }

    fn run(tree: &FloorplanTree, lib: &ModuleLibrary, config: &OptimizeConfig) -> Outcome {
        optimize(tree, lib, config).expect("optimization succeeds")
    }

    #[test]
    fn single_leaf_floorplan() {
        let mut t = FloorplanTree::new();
        t.leaf(0);
        let lib: ModuleLibrary = [Module::new("m", vec![Rect::new(4, 2), Rect::new(2, 3)])]
            .into_iter()
            .collect();
        let out = run(&t, &lib, &OptimizeConfig::default());
        assert_eq!(out.area, 6);
        assert_eq!(out.root_impl, Rect::new(2, 3));
        assert_eq!(out.assignment, LayoutAssignment::new(vec![1]));
    }

    #[test]
    fn two_module_stack_picks_best_pairing() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::new("a", vec![Rect::new(4, 2), Rect::new(2, 4)]),
            Module::new("b", vec![Rect::new(4, 1), Rect::new(1, 4)]),
        ]
        .into_iter()
        .collect();
        let out = run(&t, &lib, &OptimizeConfig::default());
        // Best stack: (4,2)+(4,1) => 4x3 = 12.
        assert_eq!(out.area, 12);
        let layout = realize(&t, &lib, &out.assignment).expect("valid");
        assert_eq!(layout.area(), 12);
        assert_eq!(layout.validate(), None);
    }

    #[test]
    fn domino_wheel_is_tight() {
        let mut t = FloorplanTree::new();
        let ids: Vec<_> = (0..5).map(|m| t.leaf(m)).collect();
        t.wheel(
            Chirality::Clockwise,
            [ids[0], ids[1], ids[2], ids[3], ids[4]],
        );
        let lib: ModuleLibrary = [
            Module::hard("a", Rect::new(1, 2), true),
            Module::hard("b", Rect::new(2, 1), true),
            Module::hard("c", Rect::new(1, 2), true),
            Module::hard("d", Rect::new(2, 1), true),
            Module::hard("e", Rect::new(1, 1), false),
        ]
        .into_iter()
        .collect();
        let out = run(&t, &lib, &OptimizeConfig::default());
        assert_eq!(out.area, 9);
        let layout = realize(&t, &lib, &out.assignment).expect("valid");
        assert_eq!(layout.area(), 9);
        assert_eq!(layout.dead_space(), 0);
    }

    #[test]
    fn reported_area_matches_realized_layout_on_benchmarks() {
        for bench in [generators::fig1(), generators::fp1()] {
            let lib = generators::module_library(&bench.tree, 3, 5);
            let out = run(&bench.tree, &lib, &OptimizeConfig::default());
            let layout = realize(&bench.tree, &lib, &out.assignment).expect("valid");
            assert_eq!(layout.area(), out.area, "{}", bench.name);
            assert_eq!(layout.validate(), None, "{}", bench.name);
        }
    }

    #[test]
    fn selection_trades_area_for_memory() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 6, 3);
        let plain = run(&bench.tree, &lib, &OptimizeConfig::default());
        let reduced_cfg = OptimizeConfig::default().with_r_selection(8);
        let reduced = run(&bench.tree, &lib, &reduced_cfg);
        assert!(reduced.stats.peak_impls <= plain.stats.peak_impls);
        assert!(reduced.stats.r_reductions > 0);
        assert!(reduced.area >= plain.area);
        // Still realizable.
        let layout = realize(&bench.tree, &lib, &reduced.assignment).expect("valid");
        assert_eq!(layout.area(), reduced.area);
    }

    #[test]
    fn l_selection_reduces_wheel_blocks() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 6, 3);
        let cfg = OptimizeConfig::default()
            .with_r_selection(10)
            .with_l_selection(LReductionPolicy::new(30).with_metric(Metric::L1));
        let out = run(&bench.tree, &lib, &cfg);
        assert!(out.stats.l_reductions > 0);
        let layout = realize(&bench.tree, &lib, &out.assignment).expect("valid");
        assert_eq!(layout.area(), out.area);
        assert_eq!(layout.validate(), None);
    }

    #[test]
    fn memory_budget_reproduces_paper_failures() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 6, 3);
        // Find the plain run's peak, then set the budget just under it:
        // the plain run dies the way the paper's SPARCstation memory did.
        let plain = run(&bench.tree, &lib, &OptimizeConfig::default());
        let budget = plain.stats.peak_impls * 3 / 4;
        let tiny = OptimizeConfig::default().with_memory_limit(Some(budget));
        match optimize(&bench.tree, &lib, &tiny) {
            Err(OptError::OutOfMemory {
                live, limit, peak, ..
            }) => {
                assert_eq!(limit, budget);
                assert!(live > budget);
                assert!(peak >= budget);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // The same run with selection squeezes under the budget.
        let rescued = OptimizeConfig::default()
            .with_memory_limit(Some(budget))
            .with_r_selection(3)
            .with_l_selection(LReductionPolicy::new(30));
        let out = optimize(&bench.tree, &lib, &rescued).expect("selection rescues the run");
        assert!(out.stats.peak_impls <= budget);
    }

    #[test]
    fn frontier_outcomes_all_realize() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 4, 9);
        let frontier =
            optimize_frontier(&bench.tree, &lib, &OptimizeConfig::default()).expect("runs");
        let n = frontier.envelopes().len();
        assert!(n >= 2, "wheel floorplans have several envelope compromises");
        for i in 0..n {
            let out = frontier.outcome(i);
            let layout = realize(&bench.tree, &lib, &out.assignment).expect("valid");
            assert_eq!(layout.area(), out.area, "frontier entry {i}");
            assert_eq!(layout.validate(), None, "frontier entry {i}");
        }
        // best() agrees with the one-shot API.
        let one_shot = run(&bench.tree, &lib, &OptimizeConfig::default());
        let via_frontier = frontier
            .best(Objective::MinArea, None)
            .expect("unconstrained is feasible");
        assert_eq!(one_shot.area, via_frontier.area);
        assert_eq!(one_shot.assignment, via_frontier.assignment);
    }

    #[test]
    fn frontier_outline_queries_are_consistent() {
        let bench = generators::fig1();
        let lib = generators::module_library(&bench.tree, 5, 4);
        let frontier =
            optimize_frontier(&bench.tree, &lib, &OptimizeConfig::default()).expect("runs");
        for &env in frontier.envelopes().iter() {
            // Constraining to exactly this envelope must return it (it is
            // non-redundant, so nothing else fits strictly inside).
            let out = frontier
                .best(Objective::MinArea, Some(env))
                .expect("feasible");
            assert!(out.root_impl.fits_in(env));
        }
    }

    #[test]
    fn census_records_block_extremes() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 6, 3);
        let out = run(&bench.tree, &lib, &OptimizeConfig::default());
        // The paper's §5 observation: L-blocks dwarf rectangular blocks.
        assert!(out.stats.max_l_block > out.stats.max_r_block);
        assert!(out.stats.max_r_block > 0);
        // A slicing-only floorplan has no L-blocks at all.
        let slicing = generators::fig1();
        let slib = generators::module_library(&slicing.tree, 4, 3);
        let sout = run(&slicing.tree, &slib, &OptimizeConfig::default());
        assert_eq!(sout.stats.max_l_block, 0);
        assert!(sout.stats.max_r_block > 0);
    }

    #[test]
    fn objective_half_perimeter_prefers_square() {
        // Two implementations with equal area but different shapes after a
        // stack: MinArea ties on cost and picks by width; MinHalfPerimeter
        // must pick the squarer envelope.
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::new("a", vec![Rect::new(8, 2), Rect::new(4, 4)]),
            Module::new("b", vec![Rect::new(8, 2), Rect::new(4, 4)]),
        ]
        .into_iter()
        .collect();
        // Candidates: 8x4 (area 32, hp 12) and 4x8 (area 32, hp 12)... and
        // mixed 8x6 (48, 14). Area optimum = 32 either way.
        let area_out = run(
            &t,
            &lib,
            &OptimizeConfig::default().with_objective(Objective::MinArea),
        );
        assert_eq!(area_out.area, 32);
        let hp = OptimizeConfig::default().with_objective(Objective::MinHalfPerimeter);
        let hp_out = run(&t, &lib, &hp);
        assert_eq!(hp_out.root_impl.half_perimeter(), 12);
        // Realizes under either objective.
        let layout = realize(&t, &lib, &hp_out.assignment).expect("valid");
        assert_eq!(layout.area(), hp_out.area);
    }

    #[test]
    fn outline_constraint_filters_and_errors() {
        let mut t = FloorplanTree::new();
        let a = t.leaf(0);
        let b = t.leaf(1);
        t.slice(CutDir::Horizontal, vec![a, b]);
        let lib: ModuleLibrary = [
            Module::new("a", vec![Rect::new(8, 2), Rect::new(2, 8)]),
            Module::new("b", vec![Rect::new(8, 2), Rect::new(2, 8)]),
        ]
        .into_iter()
        .collect();
        // Unconstrained best: 8x4 = 32.
        let free = run(&t, &lib, &OptimizeConfig::default());
        assert_eq!(free.area, 32);
        // A narrow outline forces the tall stacking (2..x16 = 32? no:
        // stacking 2x8 + 2x8 = 2x16, area 32).
        let narrow = OptimizeConfig::default().with_outline(Rect::new(3, 20));
        let out = run(&t, &lib, &narrow);
        assert!(out.root_impl.fits_in(Rect::new(3, 20)));
        assert_eq!(out.root_impl, Rect::new(2, 16));
        // An impossible outline reports the best available implementation.
        let impossible = OptimizeConfig::default().with_outline(Rect::new(3, 3));
        match optimize(&t, &lib, &impossible) {
            Err(OptError::NoFeasibleOutline {
                outline,
                best_available,
            }) => {
                assert_eq!(outline, Rect::new(3, 3));
                assert!(best_available.area() >= 32);
            }
            other => panic!("expected NoFeasibleOutline, got {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        let empty = FloorplanTree::new();
        assert_eq!(
            optimize(&empty, &ModuleLibrary::new(), &OptimizeConfig::default()),
            Err(OptError::EmptyFloorplan)
        );
        let mut t = FloorplanTree::new();
        t.leaf(3);
        assert_eq!(
            optimize(&t, &ModuleLibrary::new(), &OptimizeConfig::default()),
            Err(OptError::MissingModule { module: 3 })
        );
        let mut t2 = FloorplanTree::new();
        t2.leaf(0);
        let lib: ModuleLibrary = [Module::new("empty", vec![])].into_iter().collect();
        assert_eq!(
            optimize(&t2, &lib, &OptimizeConfig::default()),
            Err(OptError::NoImplementations { module: 0 })
        );
    }

    /// A foreign cache whose L-blocks break paper Definition 3: every
    /// chain of two or more members comes back with its first two
    /// swapped, so `w1` rises inside it.
    struct ScrambledChains(crate::cache::SharedBlockCache);

    impl BlockCache for ScrambledChains {
        fn lookup(
            &self,
            key: fp_memo::Fingerprint,
            visit: &mut dyn FnMut(&crate::cache::CachedBlock),
        ) -> bool {
            self.0.lookup(key, &mut |hit| {
                let mut block = hit.clone();
                if let crate::cache::CachedShapes::L { shapes, chains, .. } = &mut block.shapes {
                    for &(s, e) in chains.iter() {
                        if e - s >= 2 {
                            shapes.swap(s as usize, s as usize + 1);
                        }
                    }
                }
                visit(&block);
            })
        }

        fn store(&self, key: fp_memo::Fingerprint, value: crate::cache::CachedBlock) {
            self.0.store(key, value);
        }
    }

    /// A reconstituted L-block is checked for the chain structure the
    /// wheel kernels and the L-block prune rely on: a foreign cache that
    /// serves broken chains gets a typed internal error on the serial and
    /// the parallel path alike, never a panic or a wrong answer.
    #[test]
    fn foreign_cache_with_broken_chains_is_an_internal_error() {
        let bench = generators::fp1();
        let lib = generators::module_library(&bench.tree, 4, 2);
        let warm = crate::cache::SharedBlockCache::new(1 << 24);
        let serial = OptimizeConfig::default().with_threads(1);
        Optimizer::new(&bench.tree, &lib)
            .config(&serial)
            .cache(&warm)
            .run_best()
            .expect("cold run fills the cache");
        let scrambled = ScrambledChains(warm);
        let parallel = OptimizeConfig::default()
            .with_threads(2)
            .with_split_threshold(0);
        for config in [serial, parallel] {
            match Optimizer::new(&bench.tree, &lib)
                .config(&config)
                .cache(&scrambled)
                .run_best()
            {
                Err(OptError::Internal { what, .. }) => {
                    assert!(what.contains("Definition 3"), "{what}");
                }
                other => panic!("expected an internal error, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// On random floorplans the optimizer's reported area always equals
        /// the realized layout's area, and the layout is physically valid.
        #[test]
        fn outcome_is_always_realizable(tree_seed in 0u64..40, lib_seed in 0u64..20,
                                        leaves in 2usize..14) {
            let bench = generators::random_floorplan(leaves, 0.5, tree_seed);
            let lib = generators::module_library(&bench.tree, 3, lib_seed);
            let out = run(&bench.tree, &lib, &OptimizeConfig::default());
            let layout = realize(&bench.tree, &lib, &out.assignment).expect("valid");
            prop_assert_eq!(layout.area(), out.area);
            prop_assert_eq!(layout.validate(), None);
        }

        /// Selection never improves on the plain optimum and always stays
        /// realizable.
        #[test]
        fn selection_is_sound(tree_seed in 0u64..20, leaves in 5usize..12) {
            let bench = generators::random_floorplan(leaves, 0.6, tree_seed);
            let lib = generators::module_library(&bench.tree, 4, 77);
            let plain = run(&bench.tree, &lib, &OptimizeConfig::default());
            let cfg = OptimizeConfig::default()
                .with_r_selection(5)
                .with_l_selection(LReductionPolicy::new(12));
            let sel = run(&bench.tree, &lib, &cfg);
            prop_assert!(sel.area >= plain.area);
            let layout = realize(&bench.tree, &lib, &sel.assignment).expect("valid");
            prop_assert_eq!(layout.area(), sel.area);
        }
    }
}

/// The chain-structured L-block prune against the reference kernels and
/// the pre-arena prune, on blocks built the way the wheel stages build
/// them.
#[cfg(test)]
mod l_prune_tests {
    use super::*;
    use proptest::prelude::*;

    /// An L-block: shapes, provenance, chain spans.
    type Block = (Vec<LShape>, Vec<(u32, u32)>, Vec<(u32, u32)>);

    /// The pre-arena cross-chain prune [`global_l_prune`] replaced, kept
    /// as an oracle: a fresh `collect` per block, a stable four-key sort
    /// for the same-`w2` pass and the reference kernel for the cross-`w2`
    /// pass above `limit`, blind to the chain structure. Its survivors,
    /// provenance and chains must equal [`global_l_prune`]'s.
    fn global_l_prune_legacy(block: &mut Block, limit: usize) {
        let (l_shapes, prov, chains) = block;
        let before = l_shapes.len();
        let mut pruned: Vec<(LShape, (u32, u32))> =
            l_shapes.iter().copied().zip(prov.iter().copied()).collect();

        pruned = fp_shape::prune::pareto_min_lshapes_within_w2_by(pruned, |&(l, _)| l);

        if pruned.len() <= limit {
            pruned = fp_shape::prune::pareto_min_lshapes_by(pruned, |&(l, _)| l);
        }

        if pruned.len() == before {
            return;
        }
        let survivors: Vec<LShape> = pruned.iter().map(|&(l, _)| l).collect();
        let idx_chains = fp_shape::chain_indices(&survivors);
        let mut new_shapes = Vec::with_capacity(survivors.len());
        let mut new_prov = Vec::with_capacity(survivors.len());
        let mut new_chains = Vec::with_capacity(idx_chains.len());
        for chain in idx_chains {
            let start = new_shapes.len();
            for i in chain {
                new_shapes.push(pruned[i].0);
                new_prov.push(pruned[i].1);
            }
            new_chains.push((start as u32, new_shapes.len() as u32));
        }
        *l_shapes = new_shapes;
        *prov = new_prov;
        *chains = new_chains;
    }

    /// Takes the staged L-block out of `out`.
    fn into_block(out: &mut Staged) -> Block {
        assert_eq!(out.kind, Kind::L, "expected an L-block");
        (
            std::mem::take(&mut out.shapes),
            std::mem::take(&mut out.prov),
            std::mem::take(&mut out.chains),
        )
    }

    fn rect_block(rects: Vec<Rect>) -> Vec<Rect> {
        RList::from_candidates(rects).into_vec()
    }

    fn rect_view(rects: &[Rect]) -> View<'_> {
        View::Rect { rects, prov: &[] }
    }

    fn l_view(block: &Block) -> View<'_> {
        View::L {
            shapes: &block.0,
            prov: &block.1,
            chains: &block.2,
        }
    }

    /// Prunes `block` with [`global_l_prune`] and asserts:
    /// * survivor shapes, their order and the chain spans equal the
    ///   reference — [`fp_shape::prune::pareto_min_lshapes_by`] (or the
    ///   within-`w2` kernel alone above `limit`) re-chained by
    ///   [`fp_shape::chain_indices`] — or, when nothing is redundant,
    ///   the untouched block;
    /// * everything, provenance included, equals
    ///   [`global_l_prune_legacy`].
    ///
    /// Returns the pruned block.
    fn check(block: &Block, limit: usize) -> Block {
        let mut gov = ResourceGovernor::new(None);
        let mut current = Staged::default();
        current.begin(Kind::L);
        (current.shapes, current.prov, current.chains) = block.clone();
        global_l_prune(&mut current, limit, &mut gov, &mut JoinScratch::new());
        let current = into_block(&mut current);

        let zipped: Vec<(LShape, (u32, u32))> = block
            .0
            .iter()
            .copied()
            .zip(block.1.iter().copied())
            .collect();
        let pass1 = fp_shape::prune::pareto_min_lshapes_within_w2_by(zipped.clone(), |&(l, _)| l);
        let reference = if pass1.len() <= limit {
            fp_shape::prune::pareto_min_lshapes_by(zipped, |&(l, _)| l)
        } else {
            pass1
        };
        if reference.len() == block.0.len() {
            assert_eq!(&current, block, "nothing redundant: block untouched");
        } else {
            let survivors: Vec<LShape> = reference.iter().map(|&(l, _)| l).collect();
            let (mut shapes, mut chains) = (Vec::new(), Vec::new());
            for chain in fp_shape::chain_indices(&survivors) {
                let start = shapes.len() as u32;
                shapes.extend(chain.iter().map(|&i| survivors[i]));
                chains.push((start, shapes.len() as u32));
            }
            assert_eq!(current.0, shapes, "survivor shapes and order");
            assert_eq!(current.2, chains, "chain spans");
        }

        let mut legacy = block.clone();
        global_l_prune_legacy(&mut legacy, limit);
        assert_eq!(current, legacy, "pre-arena prune");
        current
    }

    /// A deterministic Definition 3 chain from `seed`: `w1` strictly
    /// falling, heights never falling and one of them rising each step.
    fn chain(w2: u64, len: usize, seed: u64) -> Vec<LShape> {
        let mut rng = fp_prng::SplitMix64::new(seed);
        let mut w1 = w2 + 3 * len as u64 + rng.next_u64() % 6;
        let mut h2 = 1 + rng.next_u64() % 5;
        let mut h1 = h2 + rng.next_u64() % 4;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(LShape::new_canonical(w1, w2, h1, h2));
            w1 -= 1 + rng.next_u64() % 3;
            let (d1, d2) = (rng.next_u64() % 3, rng.next_u64() % 3);
            h2 += if d1 == 0 && d2 == 0 { 1 } else { d2 };
            h1 = (h1 + d1).max(h2);
        }
        out
    }

    /// Limits that run the cross-`w2` pass on every block, on none, or on
    /// some, depending on the pass-1 survivor count.
    const LIMITS: [usize; 4] = [OptimizeConfig::DEFAULT_GLOBAL_L_PRUNE, 0, 60, 200];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Stage 1, 2 and 3 blocks from random child R-lists. Small
        /// coordinates give several chains per `w2` and exact duplicates
        /// with distinct provenance; stage-2 blocks run to a few thousand
        /// implementations, across the index crossover.
        #[test]
        fn l_prune_matches_reference_on_wheel_blocks(
            arms in proptest::collection::vec(
                proptest::collection::vec((1u64..4, 1u64..4), 1..20),
                4..5,
            ),
            pick in 0usize..4,
        ) {
            let limit = LIMITS[pick];
            // Child i as an irreducible R-list: widths falling, heights
            // rising by the sampled steps.
            let rects = |i: usize| -> Vec<Rect> {
                let (mut w, mut h) = (4 + 4 * arms[i].len() as u64, 1);
                arms[i]
                    .iter()
                    .map(|&(dw, dh)| {
                        let r = Rect::new(w, h);
                        (w, h) = (w - dw, h + dh);
                        r
                    })
                    .collect()
            };
            let mut gov = ResourceGovernor::new(None);
            let mut out = Staged::default();
            let (r0, r1) = (rect_block(rects(0)), rect_block(rects(1)));
            wheel_s1(rect_view(&r0), rect_view(&r1), &mut out, &mut gov).expect("stage 1");
            let parent = check(&into_block(&mut out), limit);
            let r2 = rect_block(rects(2));
            wheel_s23(l_view(&parent), rect_view(&r2), joins::stage2, &mut out, &mut gov)
                .expect("stage 2");
            let parent = check(&into_block(&mut out), limit);
            let r3 = rect_block(rects(3));
            wheel_s3(l_view(&parent), rect_view(&r3), &mut out, &mut gov).expect("stage 3");
            check(&into_block(&mut out), limit);
        }

        /// Random chain blocks: up to 150 chains over eight `w2` values, a
        /// quarter of them exact copies of the chain before (same shapes,
        /// other provenance).
        #[test]
        fn l_prune_matches_reference_on_chain_blocks(
            specs in proptest::collection::vec((0u64..8, 1usize..16, 0u64..1_000_000, 0u8..4), 1..150),
            pick in 0usize..4,
        ) {
            let mut block: Block = (Vec::new(), Vec::new(), Vec::new());
            let mut previous: Vec<LShape> = Vec::new();
            for (c, &(w2, len, seed, copy)) in specs.iter().enumerate() {
                let shapes = if copy == 0 && !previous.is_empty() {
                    previous.clone()
                } else {
                    chain(4 + 2 * w2, len, seed)
                };
                let start = block.0.len() as u32;
                block.1.extend((0..shapes.len() as u32).map(|k| (c as u32, k)));
                block.0.extend_from_slice(&shapes);
                block.2.push((start, block.0.len() as u32));
                previous = shapes;
            }
            check(&block, LIMITS[pick]);
        }
    }

    /// Above the default threshold the cross-`w2` pass is skipped: 9 000
    /// `w2` values with two chains each, the second repeating or
    /// dominating the first, leave 54 000 pass-1 survivors.
    #[test]
    fn l_prune_above_threshold_matches_legacy() {
        let mut block: Block = (Vec::new(), Vec::new(), Vec::new());
        for w2 in 1..=9_000u64 {
            for c in 0..2u64 {
                let start = block.0.len() as u32;
                for k in 0..6u64 {
                    let h2 = 5 + 2 * k + c * (k % 2);
                    block
                        .0
                        .push(LShape::new_canonical(w2 + 20 - 3 * k, w2, 10 + 2 * k, h2));
                    block.1.push((c as u32, k as u32));
                }
                block.2.push((start, block.0.len() as u32));
            }
        }
        let pruned = check(&block, OptimizeConfig::DEFAULT_GLOBAL_L_PRUNE);
        assert_eq!(pruned.0.len(), 54_000);
    }
}
