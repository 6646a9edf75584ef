//! Long-lived optimization sessions over one floorplan instance.
//!
//! A [`Session`] keeps the restructured tree, the module library, and a
//! content-addressed block cache alive between optimization calls, so a
//! sequence of *edit → re-optimize* steps pays only for what changed:
//!
//! * [`Session::update_module`] replaces one module's implementation
//!   list. Content addressing re-fingerprints exactly the edited leaf
//!   and its root-path ancestors, so the next [`Session::optimize`]
//!   rebuilds `O(depth)` join blocks and reconstitutes every other
//!   subtree from cache.
//! * [`Session::update_policy`] swaps the selection policies. The
//!   policy fingerprint salts every block address, so this implicitly
//!   invalidates the whole cache (stale entries age out via LRU).
//! * [`Session::optimize`] is a plain cached run; repeating it without
//!   edits is a full-tree cache hit.
//!
//! ```
//! use fp_optimizer::OptimizeConfig;
//! use fp_session::Session;
//! use fp_tree::generators;
//!
//! let bench = generators::fp1();
//! let library = generators::module_library(&bench.tree, 4, 1);
//! let mut session = Session::open(
//!     bench.tree,
//!     library,
//!     OptimizeConfig::default(),
//!     16 << 20,
//! );
//! let cold = session.optimize()?;
//! let warm = session.optimize()?;
//! assert_eq!(cold.outcome.area, warm.outcome.area);
//! assert_eq!(warm.outcome.stats.cache_misses, 0);
//! # Ok::<(), fp_optimizer::OptError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use std::path::Path;

use fp_memo::CacheStats;
use fp_optimizer::{
    shared_cache, OptError, OptimizeConfig, Optimizer, PersistError, RecoveryReport, RunOutcome,
    SharedBlockCache, Tracer,
};
use fp_tree::{FloorplanTree, Module, ModuleId, ModuleLibrary};

/// Why a session mutation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The module id does not exist in the session's library.
    UnknownModule {
        /// The offending id.
        id: ModuleId,
        /// Number of modules in the library.
        modules: usize,
    },
    /// The replacement module has no implementations.
    EmptyModule {
        /// The offending id.
        id: ModuleId,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownModule { id, modules } => {
                write!(f, "unknown module id {id} (library has {modules} modules)")
            }
            SessionError::EmptyModule { id } => {
                write!(f, "module {id} would have no implementations")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Counter snapshot of a session: run totals, the cache's lifetime
/// counters, and the split of the most recent run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Optimization runs executed (successful or tripped).
    pub runs: u64,
    /// Module edits applied via [`Session::update_module`].
    pub module_edits: u64,
    /// Policy swaps applied via [`Session::update_policy`].
    pub policy_edits: u64,
    /// Lifetime cache counters (hits/misses/evictions/insertions).
    pub cache: CacheStats,
    /// Entries currently resident in the cache.
    pub cache_entries: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: usize,
    /// The cache's byte budget.
    pub cache_budget_bytes: usize,
    /// Join blocks served from cache in the most recent run.
    pub last_run_hits: usize,
    /// Join blocks rebuilt in the most recent run.
    pub last_run_misses: usize,
}

/// A kept-warm optimization session: one instance, one policy
/// configuration, one block cache shared by every run.
pub struct Session {
    tree: FloorplanTree,
    library: ModuleLibrary,
    config: OptimizeConfig,
    cache: SharedBlockCache,
    tracer: Option<Tracer>,
    runs: u64,
    module_edits: u64,
    policy_edits: u64,
    last_run_hits: usize,
    last_run_misses: usize,
}

impl Session {
    /// Opens a session over `tree`/`library` with a block cache of
    /// `cache_bytes`.
    #[must_use]
    pub fn open(
        tree: FloorplanTree,
        library: ModuleLibrary,
        config: OptimizeConfig,
        cache_bytes: usize,
    ) -> Self {
        Session {
            tree,
            library,
            config,
            cache: shared_cache(cache_bytes),
            tracer: None,
            runs: 0,
            module_edits: 0,
            policy_edits: 0,
            last_run_hits: 0,
            last_run_misses: 0,
        }
    }

    /// Opens a session whose block cache is backed by the append-only
    /// segment store in `dir`: entries flushed by previous sessions are
    /// replayed (a torn tail from a crash is truncated to the verified
    /// prefix), and [`Session::flush_cache`] / [`Session::close`] make
    /// new work durable. The store is salted with the *opening* policy
    /// fingerprint, so a session opened under different policies
    /// cold-starts rather than replaying mismatched entries.
    /// ([`Session::update_policy`] after open keeps working — block
    /// addresses themselves are policy-salted — but only entries are
    /// replayed whose store matched at open.)
    ///
    /// # Errors
    ///
    /// [`PersistError`] when `dir` cannot be created, locked, or read.
    pub fn open_persistent(
        tree: FloorplanTree,
        library: ModuleLibrary,
        config: OptimizeConfig,
        cache_bytes: usize,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        let salt = fp_optimizer::policy_fingerprint(&config);
        let cache = SharedBlockCache::open_persistent(dir, cache_bytes, salt)?;
        Ok(Session {
            tree,
            library,
            config,
            cache,
            tracer: None,
            runs: 0,
            module_edits: 0,
            policy_edits: 0,
            last_run_hits: 0,
            last_run_misses: 0,
        })
    }

    /// What startup replay recovered (all zeros for in-memory sessions).
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.cache.recovery()
    }

    /// `true` when the session's cache is backed by a segment store.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.cache.is_persistent()
    }

    /// Drains the write-behind flusher and syncs the segment store, so
    /// every block committed so far survives a crash. A no-op for
    /// in-memory sessions.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the store's writer has wedged (disk full,
    /// I/O error); the in-memory cache keeps serving regardless.
    pub fn flush_cache(&self) -> Result<(), PersistError> {
        if self.cache.is_persistent() {
            self.cache.flush()
        } else {
            Ok(())
        }
    }

    /// Flushes and consumes the session — the explicit, checkable form
    /// of drop for persistent sessions.
    ///
    /// # Errors
    ///
    /// [`PersistError`] as for [`Session::flush_cache`].
    pub fn close(self) -> Result<(), PersistError> {
        self.flush_cache()
    }

    /// The session's floorplan topology.
    #[must_use]
    pub fn tree(&self) -> &FloorplanTree {
        &self.tree
    }

    /// The session's module library (edit via [`Session::update_module`]).
    #[must_use]
    pub fn library(&self) -> &ModuleLibrary {
        &self.library
    }

    /// The policy configuration in force.
    #[must_use]
    pub fn config(&self) -> &OptimizeConfig {
        &self.config
    }

    /// The session's block cache (shareable with a server).
    #[must_use]
    pub fn cache(&self) -> &SharedBlockCache {
        &self.cache
    }

    /// Attaches a [`Tracer`]: every subsequent [`Session::optimize`]
    /// emits its structured event stream (joins, selections, cache
    /// traffic, phase spans) there. The tracer is shared — keep a clone
    /// and drain it between runs. Pass-through tracing never changes
    /// results.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detaches the tracer installed by [`Session::set_tracer`], if any.
    pub fn clear_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Optimizes the current instance under the current policies,
    /// reusing every cleanly committed block from previous runs.
    ///
    /// # Errors
    ///
    /// Any [`OptError`] the engine reports (bad instance, budget trip,
    /// deadline, infeasible outline, …). A tripped run leaves the cache
    /// intact: blocks committed before the trip remain reusable.
    pub fn optimize(&mut self) -> Result<RunOutcome, OptError> {
        self.runs += 1;
        let mut optimizer = Optimizer::new(&self.tree, &self.library)
            .config(&self.config)
            .cache(&self.cache);
        if let Some(tracer) = &self.tracer {
            optimizer = optimizer.tracer(tracer);
        }
        let report = optimizer.run();
        if let Ok(report) = &report {
            self.last_run_hits = report.outcome.stats.cache_hits;
            self.last_run_misses = report.outcome.stats.cache_misses;
        }
        report
    }

    /// Replaces module `id`'s implementation list, returning the module
    /// it displaced. Only the edited leaf and its root-path ancestors
    /// change content address; the next [`Session::optimize`] rebuilds
    /// exactly those blocks.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownModule`] when `id` is out of range,
    /// [`SessionError::EmptyModule`] when `module` has no candidates.
    pub fn update_module(&mut self, id: ModuleId, module: Module) -> Result<Module, SessionError> {
        if module.implementations().is_empty() {
            return Err(SessionError::EmptyModule { id });
        }
        match self.library.set(id, module) {
            Ok(old) => {
                self.module_edits += 1;
                Ok(old)
            }
            Err(_) => Err(SessionError::UnknownModule {
                id,
                modules: self.library.len(),
            }),
        }
    }

    /// Swaps the policy configuration. Every block address is salted
    /// with the policy fingerprint, so entries built under the old
    /// policies simply stop matching (and age out via LRU); switching
    /// back to a previous configuration re-hits its surviving entries.
    pub fn update_policy(&mut self, config: OptimizeConfig) {
        self.policy_edits += 1;
        self.config = config;
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let (cache_entries, cache_bytes, cache_budget_bytes) = (
            self.cache.len(),
            self.cache.bytes(),
            self.cache.budget_bytes(),
        );
        SessionStats {
            runs: self.runs,
            module_edits: self.module_edits,
            policy_edits: self.policy_edits,
            cache: self.cache.stats(),
            cache_entries,
            cache_bytes,
            cache_budget_bytes,
            last_run_hits: self.last_run_hits,
            last_run_misses: self.last_run_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geom::Rect;
    use fp_tree::generators;

    fn open_fp1(n: usize) -> Session {
        let bench = generators::fp1();
        let library = generators::module_library(&bench.tree, n, 1);
        Session::open(bench.tree, library, OptimizeConfig::default(), 16 << 20)
    }

    #[test]
    fn repeat_run_is_all_hits() {
        let mut session = open_fp1(4);
        let cold = session.optimize().expect("cold run");
        assert_eq!(cold.outcome.stats.cache_hits, 0);
        let warm = session.optimize().expect("warm run");
        assert_eq!(warm.outcome.stats.cache_misses, 0);
        assert!(warm.outcome.stats.cache_hits > 0);
        assert_eq!(cold.outcome.area, warm.outcome.area);
        let stats = session.stats();
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.last_run_misses, 0);
        assert!(stats.cache_entries > 0);
        assert!(stats.cache_bytes > 0);
    }

    #[test]
    fn update_module_rejects_bad_edits() {
        let mut session = open_fp1(2);
        let err = session
            .update_module(10_000, Module::new("m", vec![Rect::new(1, 2)]))
            .expect_err("out of range");
        assert!(matches!(err, SessionError::UnknownModule { .. }));
        let err = session
            .update_module(0, Module::new("m", vec![]))
            .expect_err("empty");
        assert!(matches!(err, SessionError::EmptyModule { id: 0 }));
        assert_eq!(session.stats().module_edits, 0);
    }

    #[test]
    fn persistent_session_warm_restarts() {
        let dir = std::env::temp_dir().join(format!("fp-session-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let bench = generators::fp1();
            let library = generators::module_library(&bench.tree, 4, 1);
            Session::open_persistent(
                bench.tree,
                library,
                OptimizeConfig::default(),
                16 << 20,
                &dir,
            )
            .expect("open persistent session")
        };

        let mut first = open();
        assert!(first.is_persistent());
        assert_eq!(first.recovery().recovered_entries, 0);
        let cold = first.optimize().expect("cold run");
        assert!(cold.outcome.stats.cache_misses > 0);
        first.close().expect("clean close");

        // A brand-new session over the same store starts warm: the
        // repeat run rebuilds nothing and agrees exactly.
        let mut second = open();
        assert!(second.recovery().recovered_entries > 0);
        let warm = second.optimize().expect("warm run");
        assert_eq!(warm.outcome.stats.cache_misses, 0);
        assert_eq!(warm.outcome.area, cold.outcome.area);
        assert_eq!(warm.outcome.assignment, cold.outcome.assignment);

        // A different policy at open cold-starts instead of replaying.
        let bench = generators::fp1();
        let library = generators::module_library(&bench.tree, 4, 1);
        let other = Session::open_persistent(
            bench.tree,
            library,
            OptimizeConfig::default().with_r_selection(64),
            16 << 20,
            &dir,
        )
        .expect("open under other policy");
        assert_eq!(other.recovery().recovered_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_policy_re_salts_the_address_space() {
        let mut session = open_fp1(3);
        session.optimize().expect("cold");
        session.update_policy(OptimizeConfig::default().with_r_selection(64));
        let swapped = session.optimize().expect("after policy swap");
        // New salt: nothing from the old policy's address space matches.
        assert_eq!(swapped.outcome.stats.cache_hits, 0);
        // Switching back re-hits the original entries.
        session.update_policy(OptimizeConfig::default());
        let back = session.optimize().expect("back to default");
        assert_eq!(back.outcome.stats.cache_misses, 0);
        assert_eq!(session.stats().policy_edits, 2);
    }
}
