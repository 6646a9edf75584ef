//! Concurrency tests for the sharded cache: many threads hammering the
//! same keys (including keys that collide onto one shard) must leave
//! the merged counters exactly consistent — every lookup accounted as a
//! hit or a miss, every store as an insertion — and the byte accounting
//! within budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use fp_memo::{CacheStats, Fingerprint, ShardedMemoCache, Weigh, ENTRY_OVERHEAD_BYTES};

#[derive(Clone)]
struct Blob(Vec<u8>);

impl Weigh for Blob {
    fn weight_bytes(&self) -> usize {
        self.0.len()
    }
}

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 4_000;

/// Hammers a generously-budgeted cache from many threads with a small
/// key universe and checks the merged counters add up exactly: with no
/// evictions possible, hits + misses == lookups and insertions == stores.
#[test]
fn shard_hammering_keeps_exact_counter_totals() {
    let blob = || Blob(vec![7u8; 32]);
    let weight = blob().weight_bytes() + ENTRY_OVERHEAD_BYTES;
    // 64 keys, room for all of them in every shard: nothing ever evicts.
    let keys: Vec<Fingerprint> = (0..64u128).map(|k| k.wrapping_mul(0x9e37)).collect();
    let cache = ShardedMemoCache::new(64 * weight * 16, 16);
    let lookups = AtomicU64::new(0);
    let stores = AtomicU64::new(0);

    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let keys = &keys;
            let lookups = &lookups;
            let stores = &stores;
            scope.spawn(move || {
                // Deterministic per-thread op mix, no shared RNG needed.
                let mut state = (t as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
                for _ in 0..OPS_PER_THREAD {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = keys[(state >> 33) as usize % keys.len()];
                    if state & 3 == 0 {
                        cache.insert(key, blob());
                        stores.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let _ = cache.get(&key, Clone::clone);
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let stats: CacheStats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups.load(Ordering::Relaxed),
        "every lookup is exactly one hit or one miss"
    );
    assert_eq!(
        stats.insertions,
        stores.load(Ordering::Relaxed),
        "every store is exactly one insertion"
    );
    assert_eq!(stats.evictions, 0, "budget never forces an eviction");
    assert!(cache.len() <= keys.len());
    assert!(cache.bytes() <= cache.budget_bytes());
}

/// Forces every key onto a single shard (shards = 1) under a tiny
/// budget: the LRU churns constantly but the counters and the byte
/// accounting stay exact.
#[test]
fn single_shard_churn_stays_consistent() {
    let blob = || Blob(vec![3u8; 64]);
    let weight = blob().weight_bytes() + ENTRY_OVERHEAD_BYTES;
    // Room for only 4 of the 64 keys: heavy eviction traffic.
    let cache = ShardedMemoCache::new(4 * weight, 1);
    let stores = AtomicU64::new(0);

    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let stores = &stores;
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let key = ((t * OPS_PER_THREAD + i) % 64) as Fingerprint;
                    if i % 2 == 0 {
                        cache.insert(key, blob());
                        stores.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let _ = cache.get(&key, Clone::clone);
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.insertions, stores.load(Ordering::Relaxed));
    assert!(
        stats.evictions <= stats.insertions,
        "cannot evict more than was ever inserted"
    );
    assert!(cache.bytes() <= cache.budget_bytes(), "budget respected");
    assert!(
        cache.len() <= 4,
        "never more resident than the budget holds"
    );
}

/// A panic inside a `get_or_insert_with` closure poisons the shard
/// lock mid-operation; the cache must recover — subsequent hits,
/// inserts, and stats on that same shard keep working with exact
/// counters, and entries present before the panic stay readable.
#[test]
fn poisoned_shard_recovers_with_stats_intact() {
    let cache: ShardedMemoCache<Blob> = ShardedMemoCache::new(1 << 20, 4);
    // Key 0 and key 1<<64... route to different shards only if upper
    // bits differ; use the same upper bits to hit ONE shard for both
    // the pre-poison entry and the panicking call.
    let survivor: Fingerprint = 5; // upper 64 bits zero → shard 0
    let victim: Fingerprint = 9; // shard 0 as well
    cache.insert(survivor, Blob(vec![1u8; 16]));
    let before = cache.stats();
    assert_eq!(before.insertions, 1);

    // Panic while holding the shard lock (inside the build closure).
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_insert_with(victim, || panic!("tenant panicked mid-build"))
    }));
    assert!(panicked.is_err(), "the panic must propagate to the caller");

    // The shard keeps serving: the pre-panic entry is still a hit...
    assert!(
        cache.get(&survivor, Clone::clone).is_some(),
        "pre-panic entry must survive a poisoned shard"
    );
    // ...new inserts land...
    cache.insert(victim, Blob(vec![2u8; 16]));
    assert!(cache.get(&victim, Clone::clone).is_some());
    // ...and counters stay exact, not zeroed-out for the shard. The
    // panicking get_or_insert_with accounted its lookup as a miss
    // before the closure ran.
    let after = cache.stats();
    assert_eq!(after.insertions, 2, "both successful inserts counted");
    assert_eq!(after.hits, before.hits + 2);
    assert_eq!(after.misses, before.misses + 1);
    assert!(cache.bytes() <= cache.budget_bytes());

    // get_or_insert_with itself still works on the recovered shard.
    let built = cache.get_or_insert_with(77, || Blob(vec![3u8; 8]));
    assert_eq!(built.0, vec![3u8; 8]);
    assert!(cache.contains(&77));
}

/// Readers observe whole values, never torn ones: concurrent writers
/// store self-describing blobs and every read must round-trip.
#[test]
fn concurrent_reads_always_see_whole_values() {
    let cache: ShardedMemoCache<Blob> = ShardedMemoCache::new(1 << 20, 8);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let key = (i % 16) as Fingerprint;
                    // Each value is a run of one byte: a torn read would
                    // show a mix.
                    let fill = ((t * 31 + i) % 251) as u8;
                    cache.insert(key, Blob(vec![fill; 48]));
                    if let Some(got) = cache.get(&key, Clone::clone) {
                        let first = got.0.first().copied().unwrap_or(0);
                        assert!(
                            got.0.iter().all(|&b| b == first),
                            "torn value observed at key {key}"
                        );
                    }
                }
            });
        }
    });
}
