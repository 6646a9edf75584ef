//! Bench-only ablation switch for the pruning kernels.
//!
//! The mega-scale benchmark (`mega_bench`) quantifies the speedup of the
//! staircase-aware combine path and the chain-structured L-block prune
//! by re-running with the pre-SoA kernels. Production code never
//! flips this; it exists so the comparison can run inside one process on
//! the same instance data.

use core::sync::atomic::{AtomicBool, Ordering};

static LEGACY_KERNELS: AtomicBool = AtomicBool::new(false);

/// Selects the pre-SoA pruning kernels (sort-based combine prune, scalar
/// per-candidate L-shape dominance scan). Benchmarks only: results are
/// identical either way, only the speed differs.
#[doc(hidden)]
pub fn set_legacy_kernels(enabled: bool) {
    LEGACY_KERNELS.store(enabled, Ordering::Relaxed);
}

/// `true` while the pre-SoA kernels are selected.
#[doc(hidden)]
#[must_use]
pub fn legacy_kernels() -> bool {
    LEGACY_KERNELS.load(Ordering::Relaxed)
}
