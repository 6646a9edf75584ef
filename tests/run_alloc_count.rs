//! Allocation accounting for whole optimization runs: the committed lists
//! of a run share a handful of typed columns instead of owning vectors per
//! tree node, so the heap allocations of a serial exact run must not grow
//! with the size of the tree. A counting `#[global_allocator]` whose armed
//! flag is per thread (allocations of other test threads never land in a
//! measured window) makes that a hard assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fp_optimizer::{OptimizeConfig, Optimizer};
use fp_tree::mega::{mega_floorplan, mega_library, MegaConfig};

/// Counts allocations made by a thread whose `ARMED` flag is set. Frees
/// are always forwarded.
struct CountingAlloc;

thread_local! {
    // `const`-initialized and without a destructor: reading it never
    // allocates, so the allocator itself may consult it.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measures the allocations this thread makes during `f`. Windows are
/// kept disjoint by a lock, since they share one counter.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = match WINDOW.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    let count = ALLOCATIONS.load(Ordering::SeqCst);
    drop(guard);
    (count, out)
}

/// Allocations of one serial exact `run_best` on a `modules`-module mega
/// design (the design is generated outside the window).
fn run_allocations(modules: usize) -> u64 {
    let cfg = MegaConfig::new(modules);
    let bench = mega_floorplan(&cfg);
    let lib = mega_library(&bench.tree, &cfg);
    let config = OptimizeConfig::default().with_threads(1);
    let (count, outcome) =
        count_allocations(|| Optimizer::new(&bench.tree, &lib).config(&config).run_best());
    let outcome = outcome.expect("exact run succeeds");
    assert!(outcome.area > 0);
    eprintln!("{modules} modules: {count} allocations");
    count
}

/// Four times the modules may cost a few more doublings of the run's
/// columns and of the scratch buffers, which grow with the largest block
/// rather than with the tree, but no allocation per node: per-node
/// vectors (about two allocations per binary-tree node) would make the
/// larger run allocate about four times as often.
#[test]
fn serial_run_allocations_do_not_grow_with_the_tree() {
    let small = run_allocations(2_000);
    let large = run_allocations(8_000);
    assert!(
        large < 2 * small,
        "allocations grew with the tree: {small} at 2 000 modules, {large} at 8 000"
    );
}
