//! Allocation accounting for the scratch-arena join paths: once a
//! [`JoinScratch`] is warmed (its vectors have grown to the working-set
//! size), repeated combines, selections and L-block prunes must not touch
//! the global allocator at all. A counting `#[global_allocator]` makes
//! that a hard assertion in debug builds. The armed flag is per thread,
//! so allocations made by other test threads never land in a measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fp_geom::{LShape, Rect};
use fp_shape::combine::{combine_with_provenance, combine_with_provenance_scratch, Compose};
use fp_shape::prune::prune_l_block;
use fp_shape::{JoinScratch, RList};

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

fn rlist(seed: u64, n: u64) -> RList {
    let rects = (0..n)
        .map(|i| {
            let w = 2 + (seed.wrapping_mul(31).wrapping_add(i * 7)) % 40 + i * 3;
            let h = 2 + (seed.wrapping_mul(17).wrapping_add(i * 13)) % 40 + (n - i) * 3;
            Rect::new(w, h)
        })
        .collect();
    RList::from_candidates(rects)
}

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

/// A warmed scratch arena combines without allocating. Debug-only as an
/// assertion (release builds may inline differently), but the count is
/// printed either way so regressions show up in logs.
#[test]
fn warmed_scratch_combine_does_not_allocate() {
    let a = rlist(3, 24);
    let b = rlist(11, 20);
    let mut scratch = JoinScratch::new();

    // Warm-up: grow every scratch vector to the working-set size.
    for how in [Compose::Beside, Compose::Stack] {
        let _ = combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch);
    }

    let (count, total) = count_allocations(|| {
        let mut total = 0usize;
        for _ in 0..8 {
            for how in [Compose::Beside, Compose::Stack] {
                total +=
                    combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch)
                        .len();
            }
        }
        total
    });
    assert!(total > 0, "combines produced output");
    println!("warmed-scratch allocations over 16 combines: {count}");
    if cfg!(debug_assertions) {
        assert_eq!(count, 0, "warmed scratch arena must not allocate");
    }
}

/// A warmed CSPP arena solves selections — flat kernel, D&C kernel, and
/// the legacy `Dag` DP — without touching the allocator. This is the
/// gate for the selection hot path: `JoinScratch` now carries these
/// arenas (`JoinScratch::cspp`), so every warmed join worker inherits
/// the same guarantee.
#[test]
fn warmed_cspp_solvers_do_not_allocate() {
    use fp_cspp::{
        constrained_shortest_path_scratch, solve_selection, solve_selection_dense, CsppScratch, Dag,
    };

    let n = 48usize;
    // Convex span cost: certified Monge, so the auto path exercises the
    // divide-and-conquer kernel; the dense call pins the exhaustive one.
    let w = |i: usize, j: usize| ((j - i) * (j - i) + i) as u64;
    let g: Dag<u64> = Dag::complete(n, w);
    let mut scratch = CsppScratch::new();

    // Warm-up at the largest k each path will see.
    let _ = solve_selection(n, 8, w, &mut scratch).expect("solvable");
    let _ = solve_selection_dense(n, 8, w, &mut scratch).expect("solvable");
    let _ = constrained_shortest_path_scratch(&g, 0, n - 1, 8, &mut scratch).expect("solvable");

    let (count, total) = count_allocations(|| {
        let mut total = 0u64;
        for k in [4usize, 6, 8] {
            total += solve_selection(n, k, w, &mut scratch)
                .expect("solvable")
                .weight;
            total += solve_selection_dense(n, k, w, &mut scratch)
                .expect("solvable")
                .weight;
            total +=
                constrained_shortest_path_scratch(&g, 0, n - 1, k, &mut scratch).expect("solvable");
        }
        total
    });
    assert!(total > 0, "solves produced weights");
    println!("warmed-scratch allocations over 9 CSPP solves: {count}");
    if cfg!(debug_assertions) {
        assert_eq!(count, 0, "warmed CSPP arena must not allocate");
    }
}

/// The allocating path and the scratch path agree bit for bit, and the
/// scratch path allocates strictly less once warmed.
#[test]
fn scratch_combine_matches_allocating_combine() {
    let a = rlist(5, 16);
    let b = rlist(9, 18);
    let mut scratch = JoinScratch::new();
    for how in [Compose::Beside, Compose::Stack] {
        let plain = combine_with_provenance(&a, &b, how);
        let via_scratch =
            combine_with_provenance_scratch(a.as_slice(), b.as_slice(), how, &mut scratch).to_vec();
        assert_eq!(plain, via_scratch, "{how:?}: scratch path diverges");
    }

    let (plain_allocs, _) = count_allocations(|| combine_with_provenance(&a, &b, Compose::Beside));
    let (scratch_allocs, _) = count_allocations(|| {
        combine_with_provenance_scratch(a.as_slice(), b.as_slice(), Compose::Beside, &mut scratch)
            .len()
    });
    println!("allocating path: {plain_allocs}, scratch path: {scratch_allocs}");
    if cfg!(debug_assertions) {
        assert!(
            scratch_allocs < plain_allocs.max(1),
            "scratch path must allocate less than the allocating path"
        );
    }
}

/// An L-block: shapes, provenance, chain spans.
type LBlock = (Vec<LShape>, Vec<(u32, u32)>, Vec<(u32, u32)>);

/// A chain-structured L-block the way the wheel stages build one: several
/// chains share each `w2` (as in stage 3), every chain has `w1` strictly
/// falling and both heights rising, and chains `c` and `c + 9` repeat
/// each other's shapes, so the prune drops exact duplicates as well as
/// dominated implementations.
fn chain_block(chains_per_w2: u64, widths: u64) -> LBlock {
    let (mut shapes, mut prov, mut chains) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..chains_per_w2 {
        let v = c % 9;
        for w2 in (1..=widths).rev() {
            let start = shapes.len() as u32;
            for k in 0..6 {
                let w1 = w2 + 60 - 6 * k - v % 5;
                let h2 = 2 + 3 * k + (v * 5 + w2) % 7;
                let h1 = h2 + 2 + (v * 3 + k) % 4;
                shapes.push(LShape::new_canonical(w1, w2, h1, h2));
                prov.push((c as u32, k as u32));
            }
            chains.push((start, shapes.len() as u32));
        }
    }
    (shapes, prov, chains)
}

/// A warmed L-prune arena prunes a block — both passes, indexed and flat,
/// plus the re-chaining — without allocating.
#[test]
fn warmed_l_block_prune_does_not_allocate() {
    // 326 pass-1 survivors take the indexed pass 2, 35 the flat one.
    let blocks = [chain_block(12, 20), chain_block(3, 4)];
    let mut scratch = JoinScratch::new();
    let (mut shapes, mut prov, mut chains) = (Vec::new(), Vec::new(), Vec::new());
    let mut run = |scratch: &mut JoinScratch| {
        let mut removed = 0;
        for (s, p, c) in &blocks {
            shapes.clear();
            shapes.extend_from_slice(s);
            prov.clear();
            prov.extend_from_slice(p);
            chains.clear();
            chains.extend_from_slice(c);
            removed += prune_l_block(
                &mut shapes,
                &mut prov,
                &mut chains,
                50_000,
                &mut scratch.lprune,
            );
        }
        removed
    };
    // Warm-up: grow every prune buffer (and the block copies) to size.
    let warm = run(&mut scratch);
    let (count, removed) = count_allocations(|| run(&mut scratch));
    assert_eq!(removed, warm, "the prune is deterministic");
    assert!(removed > 0, "the blocks hold redundant implementations");
    println!("warmed-scratch allocations over 2 L-block prunes: {count}");
    if cfg!(debug_assertions) {
        assert_eq!(count, 0, "warmed L-prune arena must not allocate");
    }
}
