//! Crash-consistent on-disk persistence for memo caches.
//!
//! A [`PersistentCache`] is a [`ShardedMemoCache`] whose insertions are
//! additionally appended — by a background write-behind flusher — to an
//! append-only, checksummed **segment log** on disk, so a process
//! restart (clean or not) warm-starts from everything that reached the
//! log. The design goal is *crash consistency*, not durability of the
//! last write: after a crash at any byte, reopening the store yields a
//! **verified prefix** of what was appended — every recovered entry is
//! byte-identical to what was stored, and nothing torn, bit-flipped, or
//! half-written is ever served (it is truncated away instead).
//!
//! # Store layout
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   seg-0000000001.fpm   sealed, immutable segment (atomic-renamed)
//!   seg-0000000002.fpm
//!   wal.fpm              active append segment
//! ```
//!
//! Every file starts with a fixed 40-byte header —
//!
//! ```text
//! magic    8 bytes  b"FPMEMOS1"
//! version  u32 LE   SEGMENT_VERSION (currently 1)
//! flags    u32 LE   reserved, 0
//! salt     u128 LE  the opener's store salt (e.g. a policy fingerprint)
//! crc      u32 LE   CRC-32 (IEEE) of the 32 bytes above
//! pad      u32 LE   reserved, 0
//! ```
//!
//! — followed by length-and-CRC framed records:
//!
//! ```text
//! len      u32 LE   payload length (16 + value bytes)
//! crc      u32 LE   CRC-32 (IEEE) of the payload
//! payload           key u128 LE, then the Codec-encoded value
//! ```
//!
//! # Recovery invariants
//!
//! * A file with a bad magic, bad header CRC, or short header
//!   contributes nothing (cold start for that file); it never aborts
//!   recovery of the others.
//! * A file whose `version` is newer than [`SEGMENT_VERSION`] is left
//!   untouched on disk (a newer process may own it) and contributes
//!   nothing.
//! * A file whose `salt` differs from the opener's contributes nothing
//!   and is deleted at the next compaction — its entries were built
//!   under a different policy and must never be served.
//! * Records are replayed in log order (sealed segments ascending, then
//!   the wal); replay stops at the first record whose length or CRC
//!   does not verify. The wal is truncated to that verified prefix
//!   before any new record is appended, so garbage can never be
//!   interleaved with live data.
//!
//! # Rotation and compaction
//!
//! The wal is sealed once it exceeds the configured segment size:
//! synced, then atomically renamed to the next `seg-N.fpm` name, then a
//! fresh wal is started. When sealed segments outgrow the byte budget,
//! the flusher compacts: the live in-memory entries are rewritten into
//! one fresh segment (via a temporary file and an atomic rename) and
//! the dead segments are deleted. A crash between the rename and the
//! deletes only leaves duplicate records, which replay deduplicates.
//!
//! # Fault injection
//!
//! [`IoFaultPlan`] wires the workspace's deterministic fault-injection
//! philosophy ([`crate`'s governor-level `FaultPlan` counterpart in the
//! optimizer) into the byte stream itself: short writes, bit flips,
//! ENOSPC, and kill-at-offset fire when the writer's cumulative output
//! crosses a configured offset. The crash-recovery suites drive every
//! recovery path through these hooks on any host, deterministically.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::{CacheStats, Fingerprint, ShardedMemoCache, Weigh, DEFAULT_SHARDS};

/// The segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"FPMEMOS1";
/// The segment format version this build writes and replays.
pub const SEGMENT_VERSION: u32 = 1;
/// Size of the fixed segment header, in bytes.
pub const HEADER_BYTES: usize = 40;
/// Size of a record's framing (length + CRC), in bytes.
pub const RECORD_FRAME_BYTES: usize = 8;
/// Sanity cap on a single record's payload; anything larger is treated
/// as corruption (the framing length is attacker/corruption-controlled).
pub const MAX_RECORD_BYTES: usize = 1 << 30;

/// Default sealed-segment size before rotation.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, const-built
// ---------------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum used for segment headers and
/// record payloads.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Byte serialization for persisted cache values.
///
/// `decode` is the trust boundary for bytes read back from disk: it must
/// return `None` (never panic) on any input it cannot round-trip, even
/// though record CRCs already reject accidental corruption.
pub trait Codec: Sized {
    /// Appends the value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Rebuilds a value from its canonical encoding, or `None` if the
    /// bytes are not one.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a persistent store could not be opened or flushed.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O error on the store directory or a segment file.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The store path exists but is not a directory.
    NotADirectory(PathBuf),
    /// The write-behind flusher is no longer running (it wedged on an
    /// earlier unrecoverable I/O error); in-memory service continues.
    FlusherGone,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, error } => {
                write!(f, "cache store {}: {error}", path.display())
            }
            PersistError::NotADirectory(path) => {
                write!(f, "cache store {} is not a directory", path.display())
            }
            PersistError::FlusherGone => write!(f, "cache store writer has stopped"),
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(path: &Path, error: std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        error,
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Deterministic I/O fault injection for the segment writer, mirroring
/// the optimizer governor's allocation-ordinal `FaultPlan` at the byte
/// level: each fault fires when the writer's cumulative appended record
/// bytes cross the configured offset (segment headers are written
/// outside the fault path, so offsets count record framing + payloads
/// only and stay stable across rotations).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Truncate the write crossing this offset and silently drop
    /// everything after it (a torn final write, as a crash leaves it).
    pub short_write_at: Option<u64>,
    /// Flip one bit of the byte written at this offset.
    pub bit_flip_at: Option<u64>,
    /// Fail the write crossing this offset with an ENOSPC-like error
    /// (the prefix up to the offset still reaches the file).
    pub enospc_at: Option<u64>,
    /// Abort the whole process (`std::process::abort`) once the write
    /// crossing this offset has written its partial prefix — the
    /// kill-mid-flush probe the crash-recovery suite drives.
    pub kill_at: Option<u64>,
}

impl IoFaultPlan {
    /// A plan with no faults.
    #[must_use]
    pub fn none() -> Self {
        IoFaultPlan::default()
    }

    /// `true` when no fault is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self == &IoFaultPlan::default()
    }

    /// Reads a plan from the `FP_MEMO_SHORT_WRITE_AT`,
    /// `FP_MEMO_BIT_FLIP_AT`, `FP_MEMO_ENOSPC_AT`, and `FP_MEMO_KILL_AT`
    /// environment variables (byte offsets). This is how the chaos
    /// harness arms faults inside spawned writer processes.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        IoFaultPlan {
            short_write_at: var("FP_MEMO_SHORT_WRITE_AT"),
            bit_flip_at: var("FP_MEMO_BIT_FLIP_AT"),
            enospc_at: var("FP_MEMO_ENOSPC_AT"),
            kill_at: var("FP_MEMO_KILL_AT"),
        }
    }
}

/// The append side of one store: owns the wal file and applies the
/// fault plan to every byte that passes through.
struct FaultWriter {
    file: File,
    plan: IoFaultPlan,
    /// Cumulative bytes this writer has appended (across rotations).
    written: u64,
    /// A short write fired: all further appends are silently dropped,
    /// as they would be after the crash the short write models.
    wedged: bool,
}

impl FaultWriter {
    fn new(file: File, plan: IoFaultPlan, start_offset: u64) -> Self {
        FaultWriter {
            file,
            plan,
            written: start_offset,
            wedged: false,
        }
    }

    /// Appends `buf`, honouring the fault plan. Returns the number of
    /// bytes that actually reached the file.
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        if self.wedged {
            return Ok(());
        }
        let start = self.written;
        let end = start + buf.len() as u64;
        // Work out where this write must stop, and why.
        let crossing =
            |point: Option<u64>| -> Option<u64> { point.filter(|&p| p >= start && p < end) };
        let mut out: Vec<u8>;
        let mut payload: &[u8] = buf;
        if let Some(flip) = crossing(self.plan.bit_flip_at) {
            out = buf.to_vec();
            out[(flip - start) as usize] ^= 0x10;
            payload = &out[..];
        }
        if let Some(kill) = crossing(self.plan.kill_at) {
            // Write the torn prefix, push it to the OS, and die the way
            // a power cut would: no unwinding, no destructors.
            let torn = (kill - start) as usize;
            let _ = self.file.write_all(&payload[..torn]);
            let _ = self.file.sync_all();
            std::process::abort();
        }
        if let Some(short) = crossing(self.plan.short_write_at) {
            let torn = (short - start) as usize;
            self.file.write_all(&payload[..torn])?;
            let _ = self.file.flush();
            self.wedged = true;
            self.written = short;
            return Ok(());
        }
        if let Some(full) = crossing(self.plan.enospc_at) {
            let torn = (full - start) as usize;
            self.file.write_all(&payload[..torn])?;
            let _ = self.file.flush();
            self.written = full;
            return Err(std::io::Error::other("injected ENOSPC: device full"));
        }
        self.file.write_all(payload)?;
        self.written = end;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.wedged {
            return Ok(());
        }
        self.file.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Segment scanning (recovery + forensics)
// ---------------------------------------------------------------------------

/// Why a scanned segment file contributed no (or only some) records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentHealth {
    /// Header and every record verified.
    Clean,
    /// A torn or corrupt record tail was truncated away; the records
    /// before it verified.
    TruncatedTail,
    /// The header's magic or CRC did not verify: nothing was recovered.
    CorruptHeader,
    /// The header names a format version newer than this build.
    FutureVersion,
    /// The header's salt is not the opener's.
    ForeignSalt,
}

/// One scanned segment file: its verified records and how far they go.
#[derive(Debug)]
pub struct SegmentScan {
    /// The file scanned.
    pub path: PathBuf,
    /// Outcome classification.
    pub health: SegmentHealth,
    /// Verified `(key, value bytes)` records, in file order.
    pub records: Vec<(Fingerprint, Vec<u8>)>,
    /// Byte offset of the end of the verified prefix (header included);
    /// everything after it is torn or foreign.
    pub verified_bytes: u64,
    /// Total file size on disk.
    pub file_bytes: u64,
}

/// A whole-store scan: every segment file, in replay order.
#[derive(Debug)]
pub struct StoreScan {
    /// Per-file scans: sealed segments ascending, then the wal.
    pub segments: Vec<SegmentScan>,
}

impl StoreScan {
    /// All verified records in replay order (later segments win on
    /// duplicate keys — fold accordingly).
    #[must_use]
    pub fn records(&self) -> Vec<(Fingerprint, &[u8])> {
        self.segments
            .iter()
            .flat_map(|s| s.records.iter().map(|(k, v)| (*k, v.as_slice())))
            .collect()
    }
}

fn header_bytes(salt: u128) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    // flags at 12..16 stay zero.
    h[16..32].copy_from_slice(&salt.to_le_bytes());
    let crc = crc32(&h[0..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    // pad at 36..40 stays zero.
    h
}

/// Scans one segment file against the opener's `salt`, verifying the
/// header and every record frame. Never panics; any malformed byte
/// sequence ends the verified prefix.
fn scan_segment(path: &Path, salt: u128) -> Result<SegmentScan, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    let file_bytes = bytes.len() as u64;
    let mut scan = SegmentScan {
        path: path.to_path_buf(),
        health: SegmentHealth::Clean,
        records: Vec::new(),
        verified_bytes: 0,
        file_bytes,
    };
    if bytes.len() < HEADER_BYTES
        || &bytes[0..8] != SEGMENT_MAGIC
        || crc32(&bytes[0..32]) != u32::from_le_bytes([bytes[32], bytes[33], bytes[34], bytes[35]])
    {
        scan.health = SegmentHealth::CorruptHeader;
        return Ok(scan);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version > SEGMENT_VERSION {
        scan.health = SegmentHealth::FutureVersion;
        return Ok(scan);
    }
    let mut salt_bytes = [0u8; 16];
    salt_bytes.copy_from_slice(&bytes[16..32]);
    if u128::from_le_bytes(salt_bytes) != salt {
        scan.health = SegmentHealth::ForeignSalt;
        return Ok(scan);
    }
    let mut pos = HEADER_BYTES;
    scan.verified_bytes = pos as u64;
    while pos + RECORD_FRAME_BYTES <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let body = pos + RECORD_FRAME_BYTES;
        if !(16..=MAX_RECORD_BYTES).contains(&len) || body + len > bytes.len() {
            scan.health = SegmentHealth::TruncatedTail;
            return Ok(scan);
        }
        let payload = &bytes[body..body + len];
        if crc32(payload) != crc {
            scan.health = SegmentHealth::TruncatedTail;
            return Ok(scan);
        }
        let mut key_bytes = [0u8; 16];
        key_bytes.copy_from_slice(&payload[0..16]);
        scan.records
            .push((u128::from_le_bytes(key_bytes), payload[16..].to_vec()));
        pos = body + len;
        scan.verified_bytes = pos as u64;
    }
    if pos != bytes.len() {
        // A dangling partial frame after the last whole record.
        scan.health = SegmentHealth::TruncatedTail;
    }
    Ok(scan)
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.fpm")
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:010}.fpm"))
}

/// Sealed segment files in the store, as `(index, path)` ascending.
fn sealed_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".fpm"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Scans every segment file of the store at `dir` (sealed segments in
/// replay order, then the wal) against `salt`, without opening the store
/// for writing. The forensic entry point the corruption and
/// crash-recovery suites verify prefixes with.
///
/// # Errors
///
/// [`PersistError::Io`] only for real I/O failures (unreadable
/// directory); corrupt *content* is classified, never an error.
pub fn scan_store(dir: &Path, salt: u128) -> Result<StoreScan, PersistError> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(StoreScan { segments });
    }
    for (_, path) in sealed_segments(dir)? {
        segments.push(scan_segment(&path, salt)?);
    }
    let wal = wal_path(dir);
    if wal.exists() {
        segments.push(scan_segment(&wal, salt)?);
    }
    Ok(StoreScan { segments })
}

// ---------------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------------

/// What [`PersistentCache::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Distinct entries replayed into the in-memory cache.
    pub recovered_entries: usize,
    /// Verified record payload bytes replayed (before LRU eviction).
    pub recovered_bytes: u64,
    /// Segment files whose torn/corrupt tail was truncated away.
    pub truncated_segments: usize,
    /// Segment files skipped for a foreign (non-matching) salt.
    pub foreign_salt_segments: usize,
    /// Segment files skipped for a future format version.
    pub future_version_segments: usize,
    /// Segment files skipped for a corrupt or missing header.
    pub corrupt_header_segments: usize,
}

impl RecoveryReport {
    /// `true` when nothing usable was found (a cold start).
    #[must_use]
    pub fn is_cold(&self) -> bool {
        self.recovered_entries == 0
    }
}

// ---------------------------------------------------------------------------
// Flusher counters
// ---------------------------------------------------------------------------

/// Lifetime counters of the write-behind flusher, readable at any time.
#[derive(Debug, Default)]
struct PersistCounters {
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    rotations: AtomicU64,
    compactions: AtomicU64,
    io_errors: AtomicU64,
    dropped_records: AtomicU64,
    wedged: AtomicBool,
}

/// A snapshot of the flusher's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records appended to the log.
    pub appended_records: u64,
    /// Bytes appended to the log (framing included).
    pub appended_bytes: u64,
    /// Wal rotations (sealed segments produced).
    pub rotations: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// I/O errors observed (the first one wedges the writer).
    pub io_errors: u64,
    /// Records dropped because the writer was wedged or the queue gone.
    pub dropped_records: u64,
    /// `true` once the writer has permanently stopped appending; the
    /// in-memory cache keeps serving.
    pub wedged: bool,
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Tunables for [`PersistentCache::open`].
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Wal size that triggers sealing + rotation.
    pub segment_bytes: u64,
    /// Sealed-segment bytes beyond which the flusher compacts (dead
    /// records rewritten away). Defaults to `0`, meaning twice the
    /// cache's byte budget.
    pub compact_above_bytes: u64,
    /// Fault plan applied to every byte the writer appends.
    pub faults: IoFaultPlan,
    /// Shard count for the in-memory cache.
    pub shards: usize,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            compact_above_bytes: 0,
            faults: IoFaultPlan::none(),
            shards: DEFAULT_SHARDS,
        }
    }
}

// ---------------------------------------------------------------------------
// PersistentCache
// ---------------------------------------------------------------------------

enum FlushMsg {
    Record { key: Fingerprint, buf: Vec<u8> },
    Sync(SyncSender<bool>),
}

struct PersistHandle {
    tx: Sender<FlushMsg>,
    buf_pool: Arc<Mutex<Vec<Vec<u8>>>>,
    counters: Arc<PersistCounters>,
    join: Option<JoinHandle<()>>,
    dir: PathBuf,
}

/// A sharded, byte-budgeted, content-addressed cache with optional
/// crash-consistent persistence (see the [module docs](self)).
///
/// All reads and writes are served by the in-memory
/// [`ShardedMemoCache`]; when the cache was opened with
/// [`PersistentCache::open`], a background flusher additionally appends
/// every insertion to the segment log. Persistence is strictly an
/// accelerator: any disk-layer failure degrades to in-memory service,
/// never to an error on the cache path.
pub struct PersistentCache<V> {
    mem: Arc<ShardedMemoCache<V>>,
    persist: Option<PersistHandle>,
    recovery: RecoveryReport,
}

impl<V: Weigh> PersistentCache<V> {
    /// A purely in-memory cache (no disk), byte-budgeted and sharded.
    #[must_use]
    pub fn in_memory(budget_bytes: usize, shards: usize) -> Self {
        PersistentCache {
            mem: Arc::new(ShardedMemoCache::new(budget_bytes, shards)),
            persist: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// The in-memory cache behind this handle.
    #[must_use]
    pub fn memory(&self) -> &ShardedMemoCache<V> {
        &self.mem
    }

    /// What recovery found on disk at open (all zeros for in-memory
    /// caches).
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Whether this cache persists to disk.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// The store directory, when persistent.
    #[must_use]
    pub fn store_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Flusher counters, when persistent.
    #[must_use]
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.as_ref().map(|p| PersistStats {
            appended_records: p.counters.appended_records.load(Ordering::Relaxed),
            appended_bytes: p.counters.appended_bytes.load(Ordering::Relaxed),
            rotations: p.counters.rotations.load(Ordering::Relaxed),
            compactions: p.counters.compactions.load(Ordering::Relaxed),
            io_errors: p.counters.io_errors.load(Ordering::Relaxed),
            dropped_records: p.counters.dropped_records.load(Ordering::Relaxed),
            wedged: p.counters.wedged.load(Ordering::Relaxed),
        })
    }

    /// Merged in-memory counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.mem.stats()
    }

    /// Live entries in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// `true` when the in-memory cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Bytes charged against the in-memory budget.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.mem.bytes()
    }

    /// The in-memory byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.mem.budget_bytes()
    }

    /// Shard count of the in-memory cache.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.mem.shard_count()
    }

    /// Whether `key` is live in memory.
    #[must_use]
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.mem.contains(key)
    }

    /// Drops every in-memory entry (the log is untouched; already
    /// persisted records replay at the next open).
    pub fn clear(&self) {
        self.mem.clear();
    }
}

impl<V: Weigh> PersistentCache<V> {
    /// Looks up `key` in memory and, on a hit, bumps its recency and
    /// lends the value to `read` (see [`ShardedMemoCache::get`]).
    pub fn get<R>(&self, key: &Fingerprint, read: impl FnOnce(&V) -> R) -> Option<R> {
        self.mem.get(key, read)
    }
}

impl<V: Weigh + Codec + Clone + Send + Sync + 'static> PersistentCache<V> {
    /// Opens (creating if absent) the persistent store at `dir`,
    /// replaying every verified record whose segment salt matches
    /// `salt` into a fresh in-memory cache of `budget_bytes`.
    ///
    /// The wal is truncated to its verified prefix before the store
    /// accepts new appends, and a write-behind flusher thread is
    /// started; [`PersistentCache::insert`] stays non-blocking.
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the directory cannot be created or read,
    /// or the wal cannot be opened for appending. Corrupt *content*
    /// never errors — it cold-starts (see [`RecoveryReport`]).
    pub fn open(
        dir: &Path,
        budget_bytes: usize,
        salt: u128,
        options: PersistOptions,
    ) -> Result<Self, PersistError> {
        if dir.exists() && !dir.is_dir() {
            return Err(PersistError::NotADirectory(dir.to_path_buf()));
        }
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;

        let mem = Arc::new(ShardedMemoCache::new(budget_bytes, options.shards));
        let mut report = RecoveryReport::default();
        let mut recovered: HashMap<Fingerprint, ()> = HashMap::new();

        let sealed = sealed_segments(dir)?;
        let mut next_segment_index = sealed.iter().map(|(i, _)| *i).max().unwrap_or(0) + 1;
        let mut sealed_live_bytes = 0u64;
        let mut dead_files: Vec<PathBuf> = Vec::new();

        let mut replay = |scan: &SegmentScan, report: &mut RecoveryReport| {
            match scan.health {
                SegmentHealth::Clean => {}
                SegmentHealth::TruncatedTail => report.truncated_segments += 1,
                SegmentHealth::ForeignSalt => report.foreign_salt_segments += 1,
                SegmentHealth::FutureVersion => report.future_version_segments += 1,
                SegmentHealth::CorruptHeader => report.corrupt_header_segments += 1,
            }
            for (key, bytes) in &scan.records {
                if let Some(value) = V::decode(bytes) {
                    report.recovered_bytes += bytes.len() as u64;
                    if recovered.insert(*key, ()).is_none() {
                        report.recovered_entries += 1;
                    }
                    mem.insert(*key, value);
                }
            }
        };

        for (_, path) in &sealed {
            let scan = scan_segment(path, salt)?;
            match scan.health {
                SegmentHealth::ForeignSalt | SegmentHealth::CorruptHeader => {
                    // Dead weight from another policy or a wreck: safe
                    // to drop at compaction (this is a cache — derived
                    // data). Future-version files are NOT ours to drop.
                    dead_files.push(path.clone());
                }
                SegmentHealth::FutureVersion => {}
                _ => sealed_live_bytes += scan.verified_bytes,
            }
            replay(&scan, &mut report);
        }

        // The wal: replay its verified prefix, then truncate to it so
        // appends continue from a clean edge. A foreign or corrupt wal
        // is sealed away (renamed) so its bytes are never mixed with
        // fresh records, and a fresh wal is started.
        let wal = wal_path(dir);
        let mut wal_offset = HEADER_BYTES as u64;
        let mut start_fresh_wal = true;
        if wal.exists() {
            let scan = scan_segment(&wal, salt)?;
            match scan.health {
                SegmentHealth::Clean | SegmentHealth::TruncatedTail => {
                    replay(&scan, &mut report);
                    wal_offset = scan.verified_bytes;
                    start_fresh_wal = false;
                }
                SegmentHealth::FutureVersion => {
                    // Park it under a sealed name; never truncate a
                    // newer format we don't understand.
                    let parked = segment_path(dir, next_segment_index);
                    fs::rename(&wal, &parked).map_err(|e| io_err(&wal, e))?;
                    next_segment_index += 1;
                    replay(&scan, &mut report);
                }
                SegmentHealth::ForeignSalt | SegmentHealth::CorruptHeader => {
                    let parked = segment_path(dir, next_segment_index);
                    fs::rename(&wal, &parked).map_err(|e| io_err(&wal, e))?;
                    dead_files.push(parked);
                    next_segment_index += 1;
                    replay(&scan, &mut report);
                }
            }
        }

        let file = if start_fresh_wal {
            let mut f = File::create(&wal).map_err(|e| io_err(&wal, e))?;
            f.write_all(&header_bytes(salt))
                .map_err(|e| io_err(&wal, e))?;
            f
        } else {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&wal)
                .map_err(|e| io_err(&wal, e))?;
            f.set_len(wal_offset).map_err(|e| io_err(&wal, e))?;
            let mut f = f;
            f.seek(SeekFrom::End(0)).map_err(|e| io_err(&wal, e))?;
            f
        };

        let counters = Arc::new(PersistCounters::default());
        let (tx, rx) = mpsc::channel::<FlushMsg>();
        let buf_pool: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let compact_above = if options.compact_above_bytes == 0 {
            (budget_bytes as u64).saturating_mul(2).max(1)
        } else {
            options.compact_above_bytes
        };
        let flusher = Flusher {
            dir: dir.to_path_buf(),
            salt,
            writer: FaultWriter::new(file, options.faults, 0),
            wal_bytes: wal_offset,
            segment_bytes: options.segment_bytes.max(HEADER_BYTES as u64 + 1),
            compact_above,
            next_segment_index,
            sealed_bytes: sealed_live_bytes,
            mem: Arc::clone(&mem),
            counters: Arc::clone(&counters),
            buf_pool: Arc::clone(&buf_pool),
            dead_files,
        };
        let join = std::thread::Builder::new()
            .name("fp-memo-flusher".to_owned())
            .spawn(move || flusher.run(&rx))
            .map_err(|e| io_err(dir, e))?;

        Ok(PersistentCache {
            mem,
            persist: Some(PersistHandle {
                tx,
                buf_pool,
                counters,
                join: Some(join),
                dir: dir.to_path_buf(),
            }),
            recovery: report,
        })
    }

    /// Stores `value` under `key`: immediately visible in memory, and
    /// (when persistent) enqueued for the write-behind flusher. The
    /// encoding buffer is recycled through a pool, so the steady-state
    /// hot path performs no allocation beyond the value's own clone.
    pub fn insert(&self, key: Fingerprint, value: V) {
        if let Some(persist) = &self.persist {
            if !persist.counters.wedged.load(Ordering::Relaxed) {
                let mut buf = crate::lock_recovering(&persist.buf_pool)
                    .pop()
                    .unwrap_or_default();
                buf.clear();
                value.encode(&mut buf);
                if persist.tx.send(FlushMsg::Record { key, buf }).is_err() {
                    persist
                        .counters
                        .dropped_records
                        .fetch_add(1, Ordering::Relaxed);
                }
            } else {
                persist
                    .counters
                    .dropped_records
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.mem.insert(key, value);
    }

    /// Blocks until every record enqueued so far is appended and synced
    /// to disk. No-op for in-memory caches.
    ///
    /// # Errors
    ///
    /// [`PersistError::FlusherGone`] when the flusher has stopped (it
    /// wedged on an unrecoverable I/O fault); the in-memory cache is
    /// unaffected.
    pub fn flush(&self) -> Result<(), PersistError> {
        let Some(persist) = &self.persist else {
            return Ok(());
        };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if persist.tx.send(FlushMsg::Sync(ack_tx)).is_err() {
            return Err(PersistError::FlusherGone);
        }
        match ack_rx.recv() {
            Ok(true) => Ok(()),
            Ok(false) | Err(_) => Err(PersistError::FlusherGone),
        }
    }
}

impl<V> Drop for PersistentCache<V> {
    fn drop(&mut self) {
        if let Some(mut persist) = self.persist.take() {
            // Closing the channel is the shutdown signal; the flusher
            // drains the queue, syncs, and exits.
            let join = persist.join.take();
            drop(persist);
            if let Some(join) = join {
                let _ = join.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flusher
// ---------------------------------------------------------------------------

struct Flusher<V> {
    dir: PathBuf,
    salt: u128,
    writer: FaultWriter,
    wal_bytes: u64,
    segment_bytes: u64,
    compact_above: u64,
    next_segment_index: u64,
    sealed_bytes: u64,
    mem: Arc<ShardedMemoCache<V>>,
    counters: Arc<PersistCounters>,
    buf_pool: Arc<Mutex<Vec<Vec<u8>>>>,
    /// Foreign/corrupt segments queued for deletion at compaction.
    dead_files: Vec<PathBuf>,
}

impl<V: Weigh + Codec + Clone> Flusher<V> {
    fn run(mut self, rx: &Receiver<FlushMsg>) {
        let mut frame = Vec::with_capacity(64);
        loop {
            // Block for the next message; batch everything already
            // queued behind it before syncing.
            let msg = match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break, // cache dropped: final sync below
            };
            let mut pending_acks: Vec<SyncSender<bool>> = Vec::new();
            let mut next = Some(msg);
            loop {
                match next {
                    Some(FlushMsg::Record { key, buf }) => {
                        self.append_record(key, &buf, &mut frame);
                        // Recycle the encode buffer; a full pool just
                        // lets it deallocate.
                        let mut pool = crate::lock_recovering(&self.buf_pool);
                        if pool.len() < 64 {
                            pool.push(buf);
                        }
                    }
                    Some(FlushMsg::Sync(ack)) => pending_acks.push(ack),
                    None => break,
                }
                next = rx.try_recv().ok();
            }
            if !pending_acks.is_empty() {
                let ok = !self.wedged() && self.sync();
                for ack in pending_acks {
                    let _ = ack.try_send(ok);
                }
            }
        }
        // Shutdown: nothing left in the queue; make the log durable.
        if !self.wedged() {
            let _ = self.writer.sync();
        }
    }

    fn wedged(&self) -> bool {
        self.counters.wedged.load(Ordering::Relaxed)
    }

    fn wedge(&mut self) {
        self.counters.wedged.store(true, Ordering::Relaxed);
        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    fn sync(&mut self) -> bool {
        match self.writer.sync() {
            Ok(()) => true,
            Err(_) => {
                self.wedge();
                false
            }
        }
    }

    fn append_record(&mut self, key: Fingerprint, value_bytes: &[u8], frame: &mut Vec<u8>) {
        if self.wedged() {
            self.counters
                .dropped_records
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload_len = 16 + value_bytes.len();
        if payload_len > MAX_RECORD_BYTES {
            self.counters
                .dropped_records
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        frame.clear();
        frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
        // CRC over the payload: key then value. Computed incrementally
        // over the two slices to avoid copying the value.
        let key_bytes = key.to_le_bytes();
        let mut crc = !0u32;
        for &b in key_bytes.iter().chain(value_bytes.iter()) {
            crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        frame.extend_from_slice(&(!crc).to_le_bytes());
        frame.extend_from_slice(&key_bytes);
        let head = frame.len();
        let total = head + value_bytes.len();
        // One contiguous append per record so a fault offset lands in a
        // single write: copy the value behind the frame.
        frame.extend_from_slice(value_bytes);
        match self.writer.append(frame) {
            Ok(()) => {
                self.counters
                    .appended_records
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .appended_bytes
                    .fetch_add(total as u64, Ordering::Relaxed);
                self.wal_bytes += total as u64;
                if self.writer.wedged {
                    // A short write fired: the log now ends in a torn
                    // record by design; stop appending.
                    self.counters.wedged.store(true, Ordering::Relaxed);
                    return;
                }
                if self.wal_bytes >= self.segment_bytes {
                    self.rotate();
                }
            }
            Err(_) => self.wedge(),
        }
    }

    /// Seals the wal under the next segment name (atomic rename) and
    /// starts a fresh wal. On any failure the writer wedges.
    fn rotate(&mut self) {
        if self.writer.sync().is_err() {
            self.wedge();
            return;
        }
        let wal = wal_path(&self.dir);
        let sealed = segment_path(&self.dir, self.next_segment_index);
        if fs::rename(&wal, &sealed).is_err() {
            self.wedge();
            return;
        }
        self.next_segment_index += 1;
        self.sealed_bytes += self.wal_bytes;
        self.counters.rotations.fetch_add(1, Ordering::Relaxed);
        let mut file = match File::create(&wal) {
            Ok(f) => f,
            Err(_) => {
                self.wedge();
                return;
            }
        };
        if file.write_all(&header_bytes(self.salt)).is_err() {
            self.wedge();
            return;
        }
        self.wal_bytes = HEADER_BYTES as u64;
        let written = self.writer.written;
        self.writer = FaultWriter {
            file,
            plan: std::mem::take(&mut self.writer.plan),
            written,
            wedged: false,
        };
        if self.sealed_bytes > self.compact_above || !self.dead_files.is_empty() {
            self.compact();
        }
    }

    /// Rewrites the live in-memory entries into one fresh sealed
    /// segment, then deletes the segments it supersedes (and any dead
    /// foreign-salt files). Crash-safe: the new segment is written to a
    /// temporary name and atomically renamed before anything is
    /// deleted; a crash in between only leaves duplicates for replay to
    /// deduplicate.
    fn compact(&mut self) {
        let old: Vec<PathBuf> = match sealed_segments(&self.dir) {
            Ok(segments) => segments.into_iter().map(|(_, p)| p).collect(),
            Err(_) => return,
        };
        let tmp = self.dir.join("compact.tmp");
        let target = segment_path(&self.dir, self.next_segment_index);
        let write_all = || -> std::io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(&header_bytes(self.salt))?;
            let mut frame = Vec::new();
            let mut value_buf = Vec::new();
            let mut result: std::io::Result<()> = Ok(());
            self.mem.for_each(|key, value| {
                if result.is_err() {
                    return;
                }
                value_buf.clear();
                value.encode(&mut value_buf);
                frame.clear();
                frame.extend_from_slice(&((16 + value_buf.len()) as u32).to_le_bytes());
                let key_bytes = key.to_le_bytes();
                let mut crc = !0u32;
                for &b in key_bytes.iter().chain(value_buf.iter()) {
                    crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
                }
                frame.extend_from_slice(&(!crc).to_le_bytes());
                frame.extend_from_slice(&key_bytes);
                frame.extend_from_slice(&value_buf);
                if let Err(e) = file.write_all(&frame) {
                    result = Err(e);
                }
            });
            result?;
            file.sync_all()?;
            Ok(())
        };
        if write_all().is_err() {
            let _ = fs::remove_file(&tmp);
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if fs::rename(&tmp, &target).is_err() {
            let _ = fs::remove_file(&tmp);
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.next_segment_index += 1;
        for path in old.iter().chain(self.dead_files.iter()) {
            if *path == target {
                continue;
            }
            let _ = fs::remove_file(path);
        }
        self.dead_files.clear();
        self.sealed_bytes = fs::metadata(&target).map(|m| m.len()).unwrap_or(0);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_round_trips_through_scan_constants() {
        let h = header_bytes(0xDEAD_BEEF);
        assert_eq!(&h[0..8], SEGMENT_MAGIC);
        assert_eq!(
            u32::from_le_bytes([h[8], h[9], h[10], h[11]]),
            SEGMENT_VERSION
        );
        let crc = u32::from_le_bytes([h[32], h[33], h[34], h[35]]);
        assert_eq!(crc, crc32(&h[0..32]));
    }

    #[test]
    fn fault_plan_env_round_trip() {
        // Only checks the parsing contract on unset vars (set/remove of
        // process env is racy under the parallel test harness).
        let plan = IoFaultPlan::from_env();
        let _ = plan.is_empty();
        assert!(IoFaultPlan::none().is_empty());
    }
}
