//! Floorplan area optimization: a reconstruction of the Wang–Wong DAC'90
//! optimal algorithm ("\[9\]" in the DAC'92 paper) with the DAC'92
//! implementation-selection algorithms wired in as policies.
//!
//! The optimizer walks the restructured binary tree `T'` bottom-up,
//! maintaining every block's set of non-redundant implementations:
//! irreducible R-lists at rectangular blocks (slicing joins use the
//! Stockmeyer merge) and sets of irreducible L-lists at the partial-wheel
//! L-shaped blocks (the [`joins`] algebra). Whenever a block's set exceeds
//! the configured limits, `R_Selection` / `L_Selection` optimally shrink it
//! (paper §3); a configurable memory budget reproduces the "\[9\] failed to
//! run" behaviour of the paper's Tables 3–4 deterministically.
//!
//! # Example
//!
//! ```
//! use fp_optimizer::{Optimizer, OptimizeConfig};
//! use fp_tree::generators;
//!
//! let bench = generators::fp1();
//! let lib = generators::module_library(&bench.tree, 3, 1);
//! let outcome = Optimizer::new(&bench.tree, &lib)
//!     .config(&OptimizeConfig::default())
//!     .run_best()?;
//! assert!(outcome.area > 0);
//! // The assignment realizes to a layout with exactly the reported area.
//! let layout = fp_tree::layout::realize(&bench.tree, &lib, &outcome.assignment)
//!     .expect("assignment is valid");
//! assert_eq!(layout.area(), outcome.area);
//! assert_eq!(layout.validate(), None);
//! # Ok::<(), fp_optimizer::OptError>(())
//! ```
//!
//! # Observability
//!
//! Attach an [`fp_trace::Tracer`] via [`Optimizer::tracer`] to collect
//! the structured event stream (joins, CSPP solver selections, cache
//! traffic, inline tasks, rescues, phase spans). Drain it into a
//! [`fp_trace::Trace`] for JSON-lines export, a [`TraceSummary`] of
//! counters, or a [`ProfileReport`] per-phase wall-time breakdown.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod direct;
mod engine;
pub mod exec;
pub mod governor;
pub mod joins;
mod meter;
mod multi;
pub mod oracle;
mod sched;
pub mod serve;
pub mod stockmeyer;
mod store;

pub use cache::{
    policy_fingerprint, shared_cache, shared_cache_stats, BlockCache, CachedBlock, CachedShapes,
    SharedBlockCache,
};
pub use engine::{
    DegradationEvent, Frontier, Objective, OptError, OptimizeConfig, Optimizer, Outcome,
    RescueReason, RunOutcome, RunStats,
};
pub use exec::{Executor, JobHandle, Lease};
pub use governor::{CancelToken, FaultPlan, ResourceGovernor, Trip};
pub use multi::{CompositeObjective, MultiOutcome, ParetoSet};
// Re-exported so wirelength-aware callers (CLIs, the batch server, the
// annealer) don't need a direct `fp-netlist` dependency.
pub use fp_netlist::{
    hypervolume, netlist_fingerprint, parse_netlist, random_netlist, BoundNetlist, HpwlEvaluator,
    Netlist, ParetoPoint,
};
pub use meter::{BudgetExhausted, MemoryMeter};
// Persistence vocabulary re-exported so cache users (CLIs, the session
// layer, fpserved) don't need a direct `fp-memo` dependency.
pub use fp_memo::{IoFaultPlan, PersistError, PersistOptions, PersistStats, RecoveryReport};
// Re-exported so downstream users of the facade's tracing hooks don't
// need a direct `fp-trace` dependency.
pub use fp_trace::{
    JobClass, MetricsRegistry, MetricsSnapshot, PhaseName, ProfileReport, SolverKind, Trace,
    TraceEvent, TraceSummary, Tracer,
};

/// The one-stop import for typical callers.
///
/// `use fp_optimizer::prelude::*;` brings in the [`Optimizer`] facade
/// with its configuration and result vocabulary, the shared block
/// cache, tracing hooks, and the typed serve protocol — everything a
/// CLI, server, or test harness needs to run the optimizer and speak
/// its wire format. The legacy free-function entry points
/// (`optimize`, `optimize_cached`, …) are gone; the facade is the only
/// way in.
///
/// # Example
///
/// ```
/// use fp_optimizer::prelude::*;
/// use fp_tree::generators;
///
/// let bench = generators::fp1();
/// let lib = generators::module_library(&bench.tree, 3, 1);
/// let outcome = Optimizer::new(&bench.tree, &lib)
///     .config(&OptimizeConfig::default())
///     .run_best()?;
/// assert!(outcome.area > 0);
/// # Ok::<(), fp_optimizer::OptError>(())
/// ```
pub mod prelude {
    pub use crate::cache::{BlockCache, SharedBlockCache};
    pub use crate::engine::{
        Frontier, Objective, OptError, OptimizeConfig, Optimizer, Outcome, RunOutcome, RunStats,
    };
    pub use crate::multi::{CompositeObjective, MultiOutcome, ParetoSet};
    pub use crate::serve::{
        handle_line, parse_request, Method, Reply, Request, RequestError, RequestId, ServeState,
        PROTO_VERSION,
    };
    pub use fp_trace::{Trace, TraceSummary, Tracer};
}
