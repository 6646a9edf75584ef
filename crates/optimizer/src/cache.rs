//! Content-addressed caching of committed blocks across runs.
//!
//! The paper avoids recomputing sub-floorplan implementation lists
//! *within* one bottom-up pass; this module makes the same reuse work
//! *across* passes. Every join block of the restructured tree gets a
//! canonical 128-bit content address ([`fp_tree::fingerprint`]): the
//! child fingerprints, the combining operation (cut type / wheel stage
//! and arity), the module implementation lists at the leaves below, and
//! the [`policy_fingerprint`] of the selection configuration in force.
//! A [`BlockCache`] maps those addresses to the committed non-redundant
//! list (and the selection [`DegradationEvent`]s recorded when it was
//! built), so a re-optimization after a single-module edit rebuilds only
//! the `O(depth)` blocks on the touched leaf's root path — every sibling
//! subtree is reconstituted from cache.
//!
//! # Invalidation rules
//!
//! Content addressing makes invalidation implicit — nothing is ever
//! *marked* stale; a changed input simply hashes to a new address:
//!
//! * editing a module's implementation list re-addresses its leaf and all
//!   root-path ancestors (siblings keep their addresses → cache hits);
//! * changing a selection policy (`K₁`, `K₂`, θ, `S`, metric) changes
//!   the salt, re-addressing everything;
//! * the memory budget, deadline, cancellation, fault plans, objective,
//!   fixed outline and thread count do **not** participate: they never
//!   change the *content* of a cleanly committed block, only whether/when
//!   a run trips or which root implementation is traced back.
//!
//! Runs on which the rescue ladder fires stop consulting *and* stop
//! populating the cache at the first trip: rescued blocks are built
//! under policies that deviate from the salt, so memoizing them would
//! let a later run observe degraded lists under a clean-policy address.

use std::path::Path;

use fp_geom::{LShape, Rect};
use fp_memo::{
    CacheStats, Codec, Fingerprint, Fingerprinter, PersistError, PersistOptions, PersistStats,
    PersistentCache, RecoveryReport, Weigh, DEFAULT_SHARDS,
};
use fp_select::Metric;

use crate::engine::{DegradationEvent, OptimizeConfig, RescueReason};

/// The shape payload of a cached block, mirroring one block of the
/// engine's run storage: either a rectangular implementation list or an
/// L-shaped list with its irreducible chain segmentation, each entry
/// carrying the provenance pair that traces it to child implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedShapes {
    /// A rectangular block (slice join or wheel stage 4).
    Rect {
        /// The non-redundant envelope list, width-descending.
        rects: Vec<Rect>,
        /// Child implementation indices per entry.
        prov: Vec<(u32, u32)>,
    },
    /// An L-shaped block (wheel stages 1–3).
    L {
        /// The non-redundant L-implementations.
        shapes: Vec<LShape>,
        /// Child implementation indices per entry.
        prov: Vec<(u32, u32)>,
        /// Contiguous `(start, end)` irreducible chain segments.
        chains: Vec<(u32, u32)>,
    },
}

/// A committed block result: the non-redundant list plus the selection
/// degradations recorded while building it (empty for blocks committed
/// without any rescue, which is the only kind the engine memoizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedBlock {
    /// The committed non-redundant list.
    pub shapes: CachedShapes,
    /// Selection [`DegradationEvent`]s replayed into a hitting run's
    /// degradation log.
    pub degradations: Vec<DegradationEvent>,
}

impl CachedBlock {
    /// Number of implementations in the cached list.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.shapes {
            CachedShapes::Rect { rects, .. } => rects.len(),
            CachedShapes::L { shapes, .. } => shapes.len(),
        }
    }

    /// `true` when the cached list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Weigh for CachedBlock {
    fn weight_bytes(&self) -> usize {
        let payload = match &self.shapes {
            CachedShapes::Rect { rects, prov } => {
                rects.len() * core::mem::size_of::<Rect>()
                    + prov.len() * core::mem::size_of::<(u32, u32)>()
            }
            CachedShapes::L {
                shapes,
                prov,
                chains,
            } => {
                shapes.len() * core::mem::size_of::<LShape>()
                    + (prov.len() + chains.len()) * core::mem::size_of::<(u32, u32)>()
            }
        };
        payload + self.degradations.len() * core::mem::size_of::<DegradationEvent>()
    }
}

/// A bounds-checked little-endian reader over persisted block bytes:
/// the decode half of the [`Codec`], where every read can fail.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A length prefix for `per_item`-byte elements, rejected unless the
    /// remaining input can actually hold that many (so a corrupt length
    /// cannot trigger a huge allocation).
    fn len(&mut self, per_item: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(per_item)? > self.bytes.len() - self.pos {
            return None;
        }
        Some(n)
    }

    fn opt_usize(&mut self) -> Option<Option<usize>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(usize::try_from(self.u64()?).ok()?)),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_opt_usize(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
    }
}

fn encode_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(a, b) in pairs {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn decode_pairs(r: &mut ByteReader<'_>) -> Option<Vec<(u32, u32)>> {
    let n = r.len(8)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((r.u32()?, r.u32()?));
    }
    Some(pairs)
}

const SHAPES_RECT_TAG: u8 = 0;
const SHAPES_L_TAG: u8 = 1;
const REASON_BUDGET_TAG: u8 = 0;
const REASON_FAULT_TAG: u8 = 1;

/// The persisted wire format of a committed block (`fp-memo` segment
/// record payloads; see `fp_memo::persist`). Everything is
/// little-endian and length-prefixed; `decode` is the trust boundary
/// for bytes read back from disk — structural invariants (provenance
/// arity, canonical L-shapes, L-blocks made of paper Definition 3 chains
/// that cover the block in order) are revalidated here, and the engine's
/// reconstitution path re-checks the staircase and chain invariants on
/// top, for caches that never went through the codec.
impl Codec for CachedBlock {
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.shapes {
            CachedShapes::Rect { rects, prov } => {
                out.push(SHAPES_RECT_TAG);
                out.extend_from_slice(&(rects.len() as u32).to_le_bytes());
                for r in rects {
                    out.extend_from_slice(&r.w.to_le_bytes());
                    out.extend_from_slice(&r.h.to_le_bytes());
                }
                encode_pairs(out, prov);
            }
            CachedShapes::L {
                shapes,
                prov,
                chains,
            } => {
                out.push(SHAPES_L_TAG);
                out.extend_from_slice(&(shapes.len() as u32).to_le_bytes());
                for l in shapes {
                    out.extend_from_slice(&l.w1.to_le_bytes());
                    out.extend_from_slice(&l.w2.to_le_bytes());
                    out.extend_from_slice(&l.h1.to_le_bytes());
                    out.extend_from_slice(&l.h2.to_le_bytes());
                }
                encode_pairs(out, prov);
                encode_pairs(out, chains);
            }
        }
        out.extend_from_slice(&(self.degradations.len() as u32).to_le_bytes());
        for d in &self.degradations {
            out.extend_from_slice(&(d.block as u64).to_le_bytes());
            out.extend_from_slice(&d.attempt.to_le_bytes());
            match d.reason {
                RescueReason::Budget { live, limit } => {
                    out.push(REASON_BUDGET_TAG);
                    out.extend_from_slice(&(live as u64).to_le_bytes());
                    out.extend_from_slice(&(limit as u64).to_le_bytes());
                }
                RescueReason::Fault { allocation } => {
                    out.push(REASON_FAULT_TAG);
                    out.extend_from_slice(&allocation.to_le_bytes());
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
            }
            out.extend_from_slice(&(d.live_at_trip as u64).to_le_bytes());
            encode_opt_usize(out, d.k1);
            encode_opt_usize(out, d.k2);
            out.extend_from_slice(&d.theta_millis.to_le_bytes());
            encode_opt_usize(out, d.prefilter);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let shapes = match r.u8()? {
            SHAPES_RECT_TAG => {
                let n = r.len(16)?;
                let mut rects = Vec::with_capacity(n);
                for _ in 0..n {
                    rects.push(Rect::new(r.u64()?, r.u64()?));
                }
                let prov = decode_pairs(&mut r)?;
                if prov.len() != rects.len() {
                    return None;
                }
                CachedShapes::Rect { rects, prov }
            }
            SHAPES_L_TAG => {
                let n = r.len(32)?;
                let mut shapes = Vec::with_capacity(n);
                for _ in 0..n {
                    let (w1, w2, h1, h2) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                    // `LShape::new` rejects non-canonical tuples, so a
                    // decoded L can never violate the type's invariant.
                    shapes.push(LShape::new(w1, w2, h1, h2).ok()?);
                }
                let prov = decode_pairs(&mut r)?;
                let chains = decode_pairs(&mut r)?;
                // The wheel kernels and the L-block prune rely on the
                // chain structure, so a record without it recomputes.
                if prov.len() != shapes.len() || !fp_shape::prune::is_chain_block(&shapes, &chains)
                {
                    return None;
                }
                CachedShapes::L {
                    shapes,
                    prov,
                    chains,
                }
            }
            _ => return None,
        };
        // 44 = the minimum encoded size of one degradation event.
        let n = r.len(44)?;
        let mut degradations = Vec::with_capacity(n);
        for _ in 0..n {
            let block = usize::try_from(r.u64()?).ok()?;
            let attempt = r.u32()?;
            let reason = match r.u8()? {
                REASON_BUDGET_TAG => RescueReason::Budget {
                    live: usize::try_from(r.u64()?).ok()?,
                    limit: usize::try_from(r.u64()?).ok()?,
                },
                REASON_FAULT_TAG => {
                    let allocation = r.u64()?;
                    let _pad = r.u64()?;
                    RescueReason::Fault { allocation }
                }
                _ => return None,
            };
            degradations.push(DegradationEvent {
                block,
                attempt,
                reason,
                live_at_trip: usize::try_from(r.u64()?).ok()?,
                k1: r.opt_usize()?,
                k2: r.opt_usize()?,
                theta_millis: r.u32()?,
                prefilter: r.opt_usize()?,
            });
        }
        if !r.done() {
            return None; // trailing bytes: not a canonical encoding
        }
        Some(CachedBlock {
            shapes,
            degradations,
        })
    }
}

/// The engine's per-block cache hooks: `lookup` may short-circuit a
/// block's `build`/re-select entirely; `store` commits a cleanly built
/// block for future runs. Implementations take `&self` so one cache can
/// be shared by concurrently optimizing threads (the `fpserved` workers).
pub trait BlockCache {
    /// Lends the cached block at `key`, if any, to `visit` and returns
    /// whether there was one (a hit must bump recency). The entry is
    /// borrowed for the duration of the call, so a hit copies the lists
    /// straight into the run that reads them, without an owned clone.
    fn lookup(&self, key: Fingerprint, visit: &mut dyn FnMut(&CachedBlock)) -> bool;
    /// Stores a committed block under `key`.
    fn store(&self, key: Fingerprint, value: CachedBlock);
    /// Lifetime counters, when the implementation tracks them. The
    /// engine's tracer snapshots these around stores to attribute
    /// evictions to the run that caused them; `None` (the default)
    /// simply disables eviction events.
    fn stats(&self) -> Option<CacheStats> {
        None
    }
}

/// The standard shared cache: a byte-budgeted LRU sharded across
/// fingerprint-routed per-shard locks ([`fp_memo::ShardedMemoCache`]),
/// usable from one session, many server workers, or the tree-level
/// scheduler's worker pool alike. Sharding keeps concurrent lookups from
/// convoying on one mutex: fingerprints are uniform, so threads
/// hammering the cache spread across [`DEFAULT_SHARDS`] independent
/// locks.
pub struct SharedBlockCache {
    inner: PersistentCache<CachedBlock>,
}

impl core::fmt::Debug for SharedBlockCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SharedBlockCache")
            .field("shards", &self.shard_count())
            .field("budget_bytes", &self.budget_bytes())
            .field("persistent", &self.is_persistent())
            .finish_non_exhaustive()
    }
}

impl SharedBlockCache {
    /// A cache with the given byte budget, split across the default
    /// shard count.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        SharedBlockCache {
            inner: PersistentCache::in_memory(budget_bytes, DEFAULT_SHARDS),
        }
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two; `1` degenerates to the old single-mutex behavior).
    #[must_use]
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        SharedBlockCache {
            inner: PersistentCache::in_memory(budget_bytes, shards),
        }
    }

    /// A crash-consistent persistent cache backed by the segment store
    /// at `dir` (created if absent): verified records whose store salt
    /// matches `salt` are replayed into memory, and every subsequent
    /// store is appended to the log by a write-behind flusher. Pass the
    /// run's [`policy_fingerprint`] as `salt` for single-policy CLI use
    /// (a policy change then cold-starts the store), or a fixed salt
    /// for multi-policy servers whose block addresses are already
    /// policy-salted.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the store directory cannot be created or
    /// the active segment cannot be opened. Corrupt store *content*
    /// never errors — recovery degrades to a cold start or a verified
    /// prefix (see [`SharedBlockCache::recovery`]).
    pub fn open_persistent(
        dir: &Path,
        budget_bytes: usize,
        salt: u128,
    ) -> Result<Self, PersistError> {
        Self::open_persistent_with(dir, budget_bytes, salt, PersistOptions::default())
    }

    /// [`SharedBlockCache::open_persistent`] with explicit
    /// [`PersistOptions`] (segment sizing, compaction threshold, I/O
    /// fault injection for chaos tests).
    ///
    /// # Errors
    ///
    /// See [`SharedBlockCache::open_persistent`].
    pub fn open_persistent_with(
        dir: &Path,
        budget_bytes: usize,
        salt: u128,
        options: PersistOptions,
    ) -> Result<Self, PersistError> {
        Ok(SharedBlockCache {
            inner: PersistentCache::open(dir, budget_bytes, salt, options)?,
        })
    }

    /// Whether stores are persisted to a segment log.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }

    /// The segment store directory, when persistent.
    #[must_use]
    pub fn store_dir(&self) -> Option<&Path> {
        self.inner.store_dir()
    }

    /// What recovery found on disk at open (all zeros for in-memory
    /// caches).
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.inner.recovery()
    }

    /// Write-behind flusher counters, when persistent.
    #[must_use]
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.inner.persist_stats()
    }

    /// Blocks until every store so far is appended and synced to the
    /// segment log (no-op in memory-only mode). Called by servers and
    /// CLIs on graceful drain so a restart warm-starts from everything
    /// this process computed.
    ///
    /// # Errors
    ///
    /// [`PersistError::FlusherGone`] when the log writer wedged on an
    /// unrecoverable I/O fault; the in-memory cache is unaffected.
    pub fn flush(&self) -> Result<(), PersistError> {
        self.inner.flush()
    }

    /// Merged counter snapshot across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Total cached blocks across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when no shard holds any block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Total weighed bytes across all shards.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    /// Total byte budget across all shards.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    /// Number of independent shards (and locks).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Drops every cached block (counters survive).
    pub fn clear(&self) {
        self.inner.clear();
    }
}

/// A [`SharedBlockCache`] with the given byte budget.
#[must_use]
pub fn shared_cache(budget_bytes: usize) -> SharedBlockCache {
    SharedBlockCache::new(budget_bytes)
}

impl BlockCache for SharedBlockCache {
    fn lookup(&self, key: Fingerprint, visit: &mut dyn FnMut(&CachedBlock)) -> bool {
        // A poisoned shard (a worker panicked mid-access) degrades to a
        // cache miss inside `ShardedMemoCache` rather than panicking.
        self.inner.get(&key, visit).is_some()
    }

    fn store(&self, key: Fingerprint, value: CachedBlock) {
        self.inner.insert(key, value);
    }

    fn stats(&self) -> Option<CacheStats> {
        Some(SharedBlockCache::stats(self))
    }
}

/// The policy/limit fingerprint mixed into every block address as the
/// salt: everything in an [`OptimizeConfig`] that can change the
/// *content* of a cleanly committed block. See the module docs for what
/// is deliberately excluded and why.
#[must_use]
pub fn policy_fingerprint(config: &OptimizeConfig) -> Fingerprint {
    let mut h = Fingerprinter::new();
    h.write_str("fp-optimizer/policy/v1");
    match &config.r_policy {
        None => h.write_u64(0),
        Some(r) => {
            h.write_u64(1);
            h.write_usize(r.limit());
        }
    }
    match &config.l_policy {
        None => h.write_u64(0),
        Some(l) => {
            h.write_u64(1);
            h.write_usize(l.k2());
            h.write_u64(l.theta().to_bits());
            match l.prefilter() {
                None => h.write_u64(0),
                Some(s) => {
                    h.write_u64(1);
                    h.write_usize(s);
                }
            }
            match l.metric() {
                Metric::L1 => h.write_u64(1),
                Metric::L2 => h.write_u64(2),
                Metric::Linf => h.write_u64(3),
                Metric::Lp(p) => {
                    h.write_u64(4);
                    h.write_u64(p.to_bits());
                }
            }
        }
    }
    // The cross-chain prune threshold: a constant now, still hashed as
    // the `Some(threshold)` it was when it was an option, so persisted
    // stores keep their addresses.
    h.write_u64(1);
    h.write_usize(OptimizeConfig::DEFAULT_GLOBAL_L_PRUNE);
    // Appended only when set, so salt-free fingerprints (and every
    // cache written before the salt existed) stay byte-identical.
    if config.extra_salt != 0 {
        h.write_u64(1);
        h.write_u128(config.extra_salt);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Objective;
    use fp_select::LReductionPolicy;

    #[test]
    fn policy_fingerprint_covers_selection_knobs() {
        let base = OptimizeConfig::default();
        let fp = policy_fingerprint(&base);
        assert_eq!(fp, policy_fingerprint(&base.clone()));
        assert_ne!(fp, policy_fingerprint(&base.clone().with_r_selection(8)));
        assert_ne!(
            fp,
            policy_fingerprint(&base.clone().with_l_selection(LReductionPolicy::new(30)))
        );
        let theta = base
            .clone()
            .with_l_selection(LReductionPolicy::new(30).with_theta(0.5));
        let theta2 = base
            .clone()
            .with_l_selection(LReductionPolicy::new(30).with_theta(0.7));
        assert_ne!(policy_fingerprint(&theta), policy_fingerprint(&theta2));
    }

    #[test]
    fn policy_fingerprint_extra_salt_is_compatible_and_distinct() {
        let base = OptimizeConfig::default();
        // Zero salt is the identity: old caches stay addressable.
        assert_eq!(
            policy_fingerprint(&base),
            policy_fingerprint(&base.clone().with_extra_salt(0))
        );
        let salted = policy_fingerprint(&base.clone().with_extra_salt(7));
        assert_ne!(policy_fingerprint(&base), salted);
        assert_ne!(salted, policy_fingerprint(&base.clone().with_extra_salt(8)));
    }

    #[test]
    fn policy_fingerprint_ignores_run_only_knobs() {
        let base = OptimizeConfig::default();
        let fp = policy_fingerprint(&base);
        assert_eq!(
            fp,
            policy_fingerprint(&base.clone().with_memory_limit(Some(123)))
        );
        assert_eq!(
            fp,
            policy_fingerprint(
                &base
                    .clone()
                    .with_objective(Objective::MinHalfPerimeter)
                    .with_outline(fp_geom::Rect::new(5, 5))
                    .with_auto_rescue(true)
            )
        );
    }

    fn sample_l_block() -> CachedBlock {
        CachedBlock {
            shapes: CachedShapes::L {
                shapes: vec![
                    LShape::new(10, 4, 8, 3).expect("canonical"),
                    LShape::new(7, 7, 9, 9).expect("degenerate rect"),
                ],
                prov: vec![(0, 1), (2, 3)],
                chains: vec![(0, 1), (1, 2)],
            },
            degradations: vec![
                DegradationEvent {
                    block: 5,
                    attempt: 2,
                    reason: RescueReason::Budget {
                        live: 40,
                        limit: 32,
                    },
                    live_at_trip: 40,
                    k1: Some(16),
                    k2: None,
                    theta_millis: 1500,
                    prefilter: Some(8),
                },
                DegradationEvent {
                    block: 6,
                    attempt: 3,
                    reason: RescueReason::Fault { allocation: 1234 },
                    live_at_trip: 7,
                    k1: None,
                    k2: Some(12),
                    theta_millis: 0,
                    prefilter: None,
                },
            ],
        }
    }

    #[test]
    fn codec_round_trips_both_shape_kinds() {
        let rect_block = CachedBlock {
            shapes: CachedShapes::Rect {
                rects: vec![Rect::new(6, 2), Rect::new(4, 3), Rect::new(2, 8)],
                prov: vec![(0, 0), (1, 2), (3, 1)],
            },
            degradations: Vec::new(),
        };
        for block in [rect_block, sample_l_block()] {
            let mut bytes = Vec::new();
            block.encode(&mut bytes);
            let decoded = CachedBlock::decode(&bytes).expect("round trip");
            assert_eq!(decoded, block);
            // Canonical encodings are byte-stable (required for the
            // crash suite's byte-identity assertions).
            let mut again = Vec::new();
            decoded.encode(&mut again);
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn codec_rejects_malformed_bytes_without_panicking() {
        let mut bytes = Vec::new();
        sample_l_block().encode(&mut bytes);
        // Truncation at every boundary, bogus tags, and trailing junk
        // must all decode to None — never panic, never a wrong value.
        for cut in 0..bytes.len() {
            let _ = CachedBlock::decode(&bytes[..cut]);
        }
        assert!(CachedBlock::decode(&[]).is_none());
        assert!(CachedBlock::decode(&[9, 0, 0, 0, 0]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(
            CachedBlock::decode(&trailing).is_none(),
            "trailing bytes are not canonical"
        );
        // A non-canonical L tuple (w1 < w2) must be rejected even
        // though the container structure parses.
        let mut bad_l = Vec::new();
        bad_l.push(1u8); // L tag
        bad_l.extend_from_slice(&1u32.to_le_bytes());
        for v in [3u64, 9, 8, 2] {
            bad_l.extend_from_slice(&v.to_le_bytes());
        }
        bad_l.extend_from_slice(&1u32.to_le_bytes()); // prov len 1
        bad_l.extend_from_slice(&0u64.to_le_bytes()); // prov pair
        bad_l.extend_from_slice(&0u32.to_le_bytes()); // chains len 0
        bad_l.extend_from_slice(&0u32.to_le_bytes()); // degradations len 0
        assert!(CachedBlock::decode(&bad_l).is_none());
    }

    /// Encodes an L-block with the given chains and no degradations.
    fn l_record(shapes: Vec<LShape>, chains: Vec<(u32, u32)>) -> Vec<u8> {
        let prov = (0..shapes.len() as u32).map(|i| (i, i)).collect();
        let mut bytes = Vec::new();
        CachedBlock {
            shapes: CachedShapes::L {
                shapes,
                prov,
                chains,
            },
            degradations: Vec::new(),
        }
        .encode(&mut bytes);
        bytes
    }

    #[test]
    fn codec_rejects_l_blocks_that_are_not_definition_3_chains() {
        let l = |w1, w2, h1, h2| LShape::new(w1, w2, h1, h2).expect("canonical");
        let chain = vec![l(9, 3, 2, 1), l(7, 3, 4, 2), l(5, 3, 5, 4)];
        assert!(CachedBlock::decode(&l_record(chain.clone(), vec![(0, 3)])).is_some());
        // In bounds, but w1 rises inside the chain.
        let rising = vec![l(7, 3, 2, 1), l(9, 3, 4, 2), l(5, 3, 5, 4)];
        assert!(CachedBlock::decode(&l_record(rising, vec![(0, 3)])).is_none());
        // A gap between the chains, an uncovered tail, overlapping and
        // empty spans.
        for chains in [
            vec![(0, 1), (2, 3)],
            vec![(0, 2)],
            vec![(0, 2), (1, 3)],
            vec![(0, 0), (0, 3)],
        ] {
            assert!(
                CachedBlock::decode(&l_record(chain.clone(), chains.clone())).is_none(),
                "{chains:?}"
            );
        }
    }

    #[test]
    fn shared_cache_round_trips_blocks() {
        let cache = shared_cache(1 << 20);
        let block = CachedBlock {
            shapes: CachedShapes::Rect {
                rects: vec![Rect::new(4, 2), Rect::new(2, 4)],
                prov: vec![(0, 0), (1, 1)],
            },
            degradations: Vec::new(),
        };
        // An owned copy of what `lookup` lends out.
        let cloned = |key| {
            let mut out = None;
            cache.lookup(key, &mut |hit| out = Some(hit.clone()));
            out
        };
        assert!(cloned(7).is_none());
        cache.store(7, block.clone());
        assert_eq!(cloned(7), Some(block));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }
}
