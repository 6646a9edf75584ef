//! Content-addressed memoization for sub-floorplan results.
//!
//! The paper's whole pitch is avoiding recomputation of sub-floorplan
//! implementation lists; this crate provides the two pieces a persistent
//! session layer needs to make that literal across *runs*:
//!
//! * [`Fingerprinter`] — a dependency-free 128-bit content hash (two
//!   independently seeded FNV-1a lanes, each finished with a SplitMix64
//!   avalanche) for building canonical subtree fingerprints. Not
//!   cryptographic; collisions across 128 bits are negligible for the
//!   non-adversarial content-addressing done here.
//! * [`MemoCache`] — a byte-budgeted LRU map from fingerprints to cached
//!   values, with hit/miss/eviction/rejection counters. The cache is
//!   value-generic: the optimizer stores committed block lists, the
//!   `fpcompress` CLI stores per-module selection results.
//!
//! The crate is deliberately free of workspace dependencies so that any
//! layer (tree, optimizer, session, CLIs) can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use persist::{
    crc32, scan_store, Codec, IoFaultPlan, PersistError, PersistOptions, PersistStats,
    PersistentCache, RecoveryReport, SegmentHealth, SegmentScan, StoreScan, HEADER_BYTES,
    RECORD_FRAME_BYTES, SEGMENT_MAGIC, SEGMENT_VERSION,
};

/// Acquires `mutex`, recovering the guard from a poisoned lock.
///
/// Poisoning only means *some* thread panicked while holding the lock;
/// every [`MemoCache`] method leaves the cache structurally consistent
/// between calls (byte accounting, map/queue agreement), so the data is
/// safe to keep using. Recovering — rather than treating the shard as
/// lost — preserves hits and exact counters after a panicking tenant.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 128-bit content fingerprint.
pub type Fingerprint = u128;

/// FNV-1a offset basis (lane A) and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Lane-B offset basis: an arbitrary odd constant far from lane A's.
const FNV_OFFSET_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a fast avalanche that decorrelates the two FNV
/// lanes and spreads low-entropy inputs (small integers) over all bits.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An incremental 128-bit content hasher.
///
/// ```
/// use fp_memo::Fingerprinter;
///
/// let mut h = Fingerprinter::new();
/// h.write_u64(42);
/// h.write_str("wheel");
/// let a = h.finish();
/// assert_ne!(a, Fingerprinter::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    a: u64,
    b: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Fingerprinter {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u128` (little-endian) — e.g. a child [`Fingerprint`].
    pub fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` portably (as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit fingerprint of everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

/// Byte cost of a cached value, used against the cache budget.
pub trait Weigh {
    /// Approximate heap + inline size of the value, in bytes.
    fn weight_bytes(&self) -> usize;
}

/// Per-entry bookkeeping overhead charged on top of the value's own
/// weight (map slot, recency queue slot, key).
pub const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
    /// Values stored (including re-stores over an existing key).
    pub insertions: u64,
    /// Values rejected because they alone exceed the whole budget.
    pub rejected: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self` (used to merge shard stats).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.rejected += other.rejected;
    }
}

struct Entry<V> {
    value: V,
    weight: usize,
    /// Recency stamp; matches at most one live queue slot.
    stamp: u64,
}

/// A content-addressed LRU cache under a byte budget.
///
/// Recency is maintained lazily: every touch pushes a fresh
/// `(key, stamp)` pair onto a queue and bumps the entry's stamp; eviction
/// pops from the front, skipping pairs whose stamp is stale. Stale pairs
/// are also compacted away once they outnumber live entries, so the
/// queue stays O(live entries) even on hit-only workloads that never
/// evict. Amortized O(1) per operation, no unsafe, no intrusive lists.
///
/// ```
/// use fp_memo::{MemoCache, Weigh};
///
/// struct Blob(usize);
/// impl Weigh for Blob {
///     fn weight_bytes(&self) -> usize {
///         self.0
///     }
/// }
///
/// let mut cache: MemoCache<Blob> = MemoCache::new(1 << 20);
/// cache.insert(1, Blob(100));
/// assert!(cache.get(&1).is_some());
/// assert!(cache.get(&2).is_none());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct MemoCache<V> {
    budget: usize,
    bytes: usize,
    clock: u64,
    map: HashMap<Fingerprint, Entry<V>>,
    recency: VecDeque<(Fingerprint, u64)>,
    stats: CacheStats,
}

impl<V: Weigh> MemoCache<V> {
    /// An empty cache that will hold at most `budget_bytes` of weighed
    /// content (plus [`ENTRY_OVERHEAD_BYTES`] per entry).
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        MemoCache {
            budget: budget_bytes,
            bytes: 0,
            clock: 0,
            map: HashMap::new(),
            recency: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Bytes currently accounted against the budget.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` is live, without touching recency or counters.
    #[must_use]
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &Fingerprint) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.map.get_mut(key) {
            entry.stamp = clock;
        } else {
            self.stats.misses += 1;
            return None;
        }
        self.recency.push_back((*key, clock));
        self.maybe_compact();
        self.stats.hits += 1;
        self.map.get(key).map(|entry| &entry.value)
    }

    /// Stores `value` under `key`, evicting least-recently-used entries
    /// until the budget holds it. A value too large for the whole budget
    /// is rejected (counted in [`CacheStats::rejected`]) — the cache never
    /// empties itself for one oversized entry.
    pub fn insert(&mut self, key: Fingerprint, value: V) {
        let weight = value.weight_bytes().saturating_add(ENTRY_OVERHEAD_BYTES);
        if weight > self.budget {
            self.stats.rejected += 1;
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.weight;
        }
        while self.bytes + weight > self.budget {
            if !self.evict_one() {
                break;
            }
        }
        self.clock += 1;
        self.bytes += weight;
        self.map.insert(
            key,
            Entry {
                value,
                weight,
                stamp: self.clock,
            },
        );
        self.recency.push_back((key, self.clock));
        self.maybe_compact();
        self.stats.insertions += 1;
    }

    /// Drops every entry (counters survive).
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    /// Drops stale recency pairs once they outnumber live entries 2:1.
    ///
    /// Lazy LRU leaves one stale pair behind per touch, and a cache
    /// under budget never evicts — so without compaction a
    /// high-hit-rate workload (a long-running server) grows the queue
    /// without bound. The sweep is O(queue) but runs only after O(live)
    /// pushes, so touches stay amortized O(1); afterwards exactly one
    /// pair per live entry remains, in recency order.
    fn maybe_compact(&mut self) {
        if self.recency.len() > 2 * self.map.len() + 16 {
            let map = &self.map;
            self.recency
                .retain(|(key, stamp)| map.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }

    /// Evicts the least-recently-used entry; `false` when empty.
    fn evict_one(&mut self) -> bool {
        while let Some((key, stamp)) = self.recency.pop_front() {
            let live = self.map.get(&key).is_some_and(|e| e.stamp == stamp);
            if live {
                if let Some(entry) = self.map.remove(&key) {
                    self.bytes -= entry.weight;
                    self.stats.evictions += 1;
                    return true;
                }
            }
        }
        false
    }
}

/// Default shard count for [`ShardedMemoCache`]: enough to keep a
/// handful of worker threads from serializing on one lock, small enough
/// that per-shard budgets stay meaningful.
pub const DEFAULT_SHARDS: usize = 16;

/// A thread-safe [`MemoCache`] sharded behind per-shard locks.
///
/// The byte budget is split evenly across shards; a fingerprint is
/// routed to a shard by its (already avalanched) upper bits, so the
/// low bits remain free for the shard's internal hash map. Counters
/// are kept per shard and merged on read, so totals are exact even
/// under concurrent hammering — each lookup/insert bumps exactly one
/// shard's counters under that shard's lock.
///
/// A poisoned shard lock (a panicking thread mid-operation) is
/// *recovered*, not abandoned: every [`MemoCache`] method leaves the
/// shard structurally consistent between calls, so after a tenant
/// panics — e.g. inside a [`ShardedMemoCache::get_or_insert_with`]
/// closure — subsequent hits, inserts, and counter reads all keep
/// working with exact totals. The cache is an accelerator, never a
/// correctness dependency, and it must not shrink because a caller
/// panicked.
///
/// ```
/// use fp_memo::{ShardedMemoCache, Weigh};
///
/// struct Blob(usize);
/// impl Weigh for Blob {
///     fn weight_bytes(&self) -> usize {
///         self.0
///     }
/// }
///
/// let cache: ShardedMemoCache<Blob> = ShardedMemoCache::new(1 << 20, 4);
/// cache.insert(1, Blob(100));
/// assert!(cache.contains(&1));
/// assert_eq!(cache.stats().insertions, 1);
/// ```
pub struct ShardedMemoCache<V> {
    shards: Vec<Mutex<MemoCache<V>>>,
    mask: u64,
}

impl<V: Weigh> ShardedMemoCache<V> {
    /// A cache of `budget_bytes` total, split over `shards` (rounded up
    /// to a power of two, minimum 1) independently locked shards.
    #[must_use]
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let per_shard = budget_bytes / count;
        let shards = (0..count)
            .map(|_| Mutex::new(MemoCache::new(per_shard)))
            .collect();
        ShardedMemoCache {
            shards,
            mask: (count - 1) as u64,
        }
    }

    /// A cache with the [`DEFAULT_SHARDS`] shard count.
    #[must_use]
    pub fn with_default_shards(budget_bytes: usize) -> Self {
        ShardedMemoCache::new(budget_bytes, DEFAULT_SHARDS)
    }

    /// Number of shards (always a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &Fingerprint) -> &Mutex<MemoCache<V>> {
        // Route by the upper 64 bits: both lanes are avalanched, and
        // this leaves the lower bits uncorrelated with shard choice for
        // the shard's own HashMap.
        let idx = ((key >> 64) as u64) & self.mask;
        &self.shards[idx as usize]
    }

    /// Looks up `key` and, on a hit, bumps its recency and lends the
    /// value to `read` under the shard lock, returning what `read`
    /// returns. Pass `Clone::clone` for an owned copy; a caller that only
    /// needs to copy parts of the value out reads them in place.
    pub fn get<R>(&self, key: &Fingerprint, read: impl FnOnce(&V) -> R) -> Option<R> {
        lock_recovering(self.shard(key)).get(key).map(read)
    }

    /// Stores `value` under `key` in its shard, evicting that shard's
    /// least-recently-used entries to fit the per-shard budget.
    pub fn insert(&self, key: Fingerprint, value: V) {
        lock_recovering(self.shard(&key)).insert(key, value);
    }

    /// Looks up `key`; on a miss, computes the value with `build` and
    /// stores it — all under the shard lock, so concurrent callers of
    /// the same key never duplicate the computation.
    ///
    /// `build` runs *before* any cache mutation, so a panic inside it
    /// poisons the shard lock without corrupting the shard; the poison
    /// is recovered on the next acquisition and the cache keeps serving
    /// (see the type-level docs).
    pub fn get_or_insert_with<F>(&self, key: Fingerprint, build: F) -> V
    where
        V: Clone,
        F: FnOnce() -> V,
    {
        let mut shard = lock_recovering(self.shard(&key));
        if let Some(value) = shard.get(&key) {
            return value.clone();
        }
        let value = build();
        shard.insert(key, value.clone());
        value
    }

    /// Whether `key` is live, without touching recency or counters.
    #[must_use]
    pub fn contains(&self, key: &Fingerprint) -> bool {
        lock_recovering(self.shard(key)).contains(key)
    }

    /// Visits every live entry, shard by shard, holding one shard lock
    /// at a time. Recency and counters are untouched; inserts into a
    /// shard currently being visited block until that shard is done.
    /// Used by the persistence layer's compactor to snapshot the live
    /// set.
    pub fn for_each<F>(&self, mut visit: F)
    where
        F: FnMut(Fingerprint, &V),
    {
        for shard in &self.shards {
            let shard = lock_recovering(shard);
            for (key, entry) in &shard.map {
                visit(*key, &entry.value);
            }
        }
    }

    /// Merged counter snapshot across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.absorb(lock_recovering(shard).stats());
        }
        total
    }

    /// Total live entries across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recovering(s).len()).sum()
    }

    /// `true` when no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently accounted across shards.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| lock_recovering(s).bytes()).sum()
    }

    /// The summed per-shard byte budgets (≤ the requested budget due to
    /// integer division).
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recovering(s).budget_bytes())
            .sum()
    }

    /// Drops every entry in every shard (counters survive).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_recovering(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Blob(usize);
    impl Weigh for Blob {
        fn weight_bytes(&self) -> usize {
            self.0
        }
    }

    /// An entry's total budget footprint.
    fn w(payload: usize) -> usize {
        payload + ENTRY_OVERHEAD_BYTES
    }

    #[test]
    fn fingerprints_are_deterministic_and_input_sensitive() {
        let fp = |f: &dyn Fn(&mut Fingerprinter)| {
            let mut h = Fingerprinter::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(fp(&|h| h.write_u64(7)), fp(&|h| h.write_u64(7)));
        assert_ne!(fp(&|h| h.write_u64(7)), fp(&|h| h.write_u64(8)));
        assert_ne!(fp(&|h| h.write_str("ab")), fp(&|h| h.write_str("ba")));
        // Length prefixing: ("a","bc") never collides with ("ab","c").
        assert_ne!(
            fp(&|h| {
                h.write_str("a");
                h.write_str("bc");
            }),
            fp(&|h| {
                h.write_str("ab");
                h.write_str("c");
            })
        );
        // Order sensitivity of child fingerprints.
        assert_ne!(
            fp(&|h| {
                h.write_u128(1);
                h.write_u128(2);
            }),
            fp(&|h| {
                h.write_u128(2);
                h.write_u128(1);
            })
        );
    }

    #[test]
    fn hit_miss_counters() {
        let mut c: MemoCache<Blob> = MemoCache::new(w(10) * 4);
        c.insert(1, Blob(10));
        assert_eq!(c.get(&1), Some(&Blob(10)));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order_is_least_recent_first() {
        // Room for exactly three entries.
        let mut c: MemoCache<Blob> = MemoCache::new(3 * w(10));
        c.insert(1, Blob(10));
        c.insert(2, Blob(10));
        c.insert(3, Blob(10));
        // Touch 1 so 2 becomes the least recently used.
        assert!(c.get(&1).is_some());
        c.insert(4, Blob(10));
        assert!(!c.contains(&2), "LRU entry 2 must be evicted first");
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
        c.insert(5, Blob(10));
        assert!(!c.contains(&3), "then 3, the next least recent");
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn byte_accounting_tracks_insert_replace_evict() {
        let mut c: MemoCache<Blob> = MemoCache::new(10 * w(10));
        c.insert(1, Blob(10));
        assert_eq!(c.bytes(), w(10));
        c.insert(1, Blob(20)); // replace: old weight released
        assert_eq!(c.bytes(), w(20));
        assert_eq!(c.len(), 1);
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_values_are_rejected_not_thrashing() {
        let mut c: MemoCache<Blob> = MemoCache::new(w(10));
        c.insert(1, Blob(10));
        c.insert(2, Blob(1_000_000));
        assert!(c.contains(&1), "oversized insert must not purge the cache");
        assert!(!c.contains(&2));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn recency_queue_stays_bounded_on_hit_only_workloads() {
        // A cache under budget never evicts, so only compaction keeps
        // the lazy-LRU queue from growing per lookup.
        let mut c: MemoCache<Blob> = MemoCache::new(4 * w(10));
        for k in 0..3 {
            c.insert(k, Blob(10));
        }
        for i in 0..10_000u64 {
            assert!(c.get(&(u128::from(i) % 3)).is_some());
        }
        assert!(
            c.recency.len() <= 2 * c.len() + 16,
            "queue grew to {} pairs for {} entries",
            c.recency.len(),
            c.len()
        );
        // Compaction must preserve LRU order: make 0 the coldest key,
        // then force an eviction.
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_some());
        c.insert(3, Blob(10));
        c.insert(4, Blob(10)); // budget forces one eviction
        assert!(!c.contains(&0), "0, least recently touched, is evicted");
        assert!(c.contains(&1) && c.contains(&2) && c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn sharded_cache_routes_and_merges() {
        #[derive(Clone)]
        struct Small;
        impl Weigh for Small {
            fn weight_bytes(&self) -> usize {
                8
            }
        }
        let cache: ShardedMemoCache<Small> = ShardedMemoCache::new(1 << 20, 4);
        assert_eq!(cache.shard_count(), 4);
        for k in 0..64u128 {
            cache.insert(k << 64, Small); // distinct upper bits → all shards
        }
        assert_eq!(cache.len(), 64);
        for k in 0..64u128 {
            assert!(cache.get(&(k << 64), Clone::clone).is_some());
        }
        assert!(cache.get(&(999u128 << 64), Clone::clone).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (64, 1, 64));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn sharded_shard_count_rounds_to_power_of_two() {
        #[derive(Clone)]
        struct Small;
        impl Weigh for Small {
            fn weight_bytes(&self) -> usize {
                8
            }
        }
        let cache: ShardedMemoCache<Small> = ShardedMemoCache::new(1 << 20, 5);
        assert_eq!(cache.shard_count(), 8);
        let one: ShardedMemoCache<Small> = ShardedMemoCache::new(1 << 20, 0);
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn eviction_respects_budget_for_larger_values() {
        let mut c: MemoCache<Blob> = MemoCache::new(4 * w(10));
        for k in 0..4 {
            c.insert(k, Blob(10));
        }
        // A value weighing as much as three small ones evicts 0, 1, 2.
        c.insert(9, Blob(3 * w(10) - ENTRY_OVERHEAD_BYTES));
        assert!(c.contains(&9) && c.contains(&3));
        assert!(!c.contains(&0) && !c.contains(&1) && !c.contains(&2));
        assert!(c.bytes() <= c.budget_bytes());
    }
}
