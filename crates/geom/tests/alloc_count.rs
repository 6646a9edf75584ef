//! Allocation bound for layout polygonization: one `polygonize` call
//! works in a few flat buffers plus the rectangles and rings it returns,
//! so its allocation count must not grow with the number of strips or
//! boundary pieces. A counting `#[global_allocator]` makes that a hard
//! assertion. The armed flag is per thread, so allocations made by other
//! test threads never land in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fp_geom::PlacedRect;
use fp_optimizer::{OptimizeConfig, Optimizer};
use fp_tree::generators;
use fp_tree::layout::realize;

/// Allocations and reallocations allowed for one `polygonize` call on
/// the FP4 layout below (the per-strip polygonizer made ~3,200).
const BOUND: u64 = 300;

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

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting reads a const-initialized
// thread-local and bumps an atomic, neither of which allocates or touches
// the memory being managed.
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

/// Measures the allocations this thread makes during `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

/// FP4 at eight implementations per module, optimally placed: the
/// layout a served edit polygonizes.
#[test]
fn fp4_polygonize_allocations_are_bounded() {
    let bench = generators::fp4();
    let library = generators::module_library(&bench.tree, 8, 7);
    let outcome = Optimizer::new(&bench.tree, &library)
        .config(&OptimizeConfig::default())
        .run_best()
        .expect("FP4 solves");
    let layout = realize(&bench.tree, &library, &outcome.assignment).expect("FP4 realizes");
    let blocks: Vec<PlacedRect> = layout.placed.iter().map(|&(_, r)| r).collect();

    let (count, poly) = count_allocations(|| fp_geom::polygonize(layout.envelope, &blocks));
    println!(
        "polygonize allocations on FP4: {count} ({} regions, {} rings)",
        poly.whitespace.count(),
        poly.outlines.len()
    );
    assert_eq!(poly.whitespace.total, layout.dead_space());
    assert!(
        count <= BOUND,
        "one polygonize call made {count} allocations (bound {BOUND})"
    );
}
