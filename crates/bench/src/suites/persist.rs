//! `persist`: the persistent memo store. Append/flush throughput,
//! recovery (replay) latency and warm-hit serving over the crash-safe
//! segment log, one row per phase and matrix point, all through one
//! [`fp_memo::PersistentCache`] over a scratch store directory:
//!
//! * **append**: insert every record into a fresh store and `flush()`,
//!   so the timing covers encode, the write-behind flusher, and fsync;
//! * **replay**: reopen the store cold and replay the segment log back
//!   into memory (the warm-restart path);
//! * **warm**: look up every key from the replayed cache; each hit must
//!   decode back to its record's payload.
//!
//! Gate, in every mode: replay must recover every appended record and
//! the warm phase must serve 100% hits. A loss means the verified-prefix
//! recovery dropped data on a clean store. `--smoke` runs 2k records.

use std::path::{Path, PathBuf};

use fp_memo::{Codec, PersistOptions, PersistentCache, Weigh};

use crate::harness::{best_of, fixed, timed, Best, Gate, Run, Suite};

pub(crate) const SUITE: Suite = Suite {
    name: "persist",
    benchmark: "persistent memo store append/replay/warm",
    reps: 3,
    flags: &[],
    constants: &["cache_bytes"],
    kinds: &[("append", PHASE), ("replay", PHASE), ("warm", PHASE)],
    gates: &["lost_records"],
    run,
};

/// Keys of every phase row. `records` is the matrix point's record
/// count; `completed` is how many of them the phase appended, replayed
/// or hit.
const PHASE: &[&str] = &[
    "records",
    "payload_bytes",
    "store_bytes",
    "millis",
    "completed",
    "records_per_sec",
];

/// Salt for the benchmark store; the payloads are synthetic, so any
/// fixed value works. It only has to survive the reopen.
const SALT: u128 = 0x6670_2d70_6572_7369_7374_2d62_656e_6368; // "fp-persist-bench"
/// In-memory budget: large enough that no matrix point evicts, so the
/// replay phase measures the log, not the eviction policy.
const CACHE_BYTES: usize = 256 << 20;

/// A synthetic cached value: an opaque payload whose bytes are a
/// deterministic function of the record index, so decode failures and
/// cross-record mixups are both detectable.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blob(Vec<u8>);

impl Blob {
    fn synthesize(index: u64, len: usize) -> Blob {
        let mut state = index.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            // splitmix64: cheap, deterministic, full-period.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let chunk = z.to_le_bytes();
            let take = chunk.len().min(len - bytes.len());
            bytes.extend_from_slice(&chunk[..take]);
        }
        Blob(bytes)
    }
}

impl Weigh for Blob {
    fn weight_bytes(&self) -> usize {
        self.0.len()
    }
}

impl Codec for Blob {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Blob(bytes.to_vec()))
    }
}

/// Key for record `i`: spread across shards, never zero.
fn key(index: u64) -> u128 {
    (u128::from(index) << 64) | u128::from(index.wrapping_mul(0x2545_f491_4f6c_dd1d)) | 1
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fp-persist-bench-{}-{tag}", std::process::id()))
}

fn store_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn open(dir: &Path) -> PersistentCache<Blob> {
    PersistentCache::open(dir, CACHE_BYTES, SALT, PersistOptions::default()).expect("store opens")
}

fn insert_all(cache: &PersistentCache<Blob>, records: usize, payload_bytes: usize) {
    for i in 0..records as u64 {
        cache.insert(key(i), Blob::synthesize(i, payload_bytes));
    }
    cache.flush().expect("flush");
}

fn run(run: &mut Run) {
    // Matrix: record count × payload size. The payloads bracket the
    // sizes real CachedBlock records encode to (tens of bytes for
    // small curves, ~1 KiB for deep joins).
    let cases: &[(usize, usize)] = if run.smoke {
        &[(2_000, 64), (2_000, 1_024)]
    } else {
        &[(50_000, 64), (50_000, 256), (20_000, 1_024)]
    };
    run.constants(|envelope| {
        envelope.u64("cache_bytes", CACHE_BYTES as u64);
    });
    let mut lost = 0;
    for &(records, payload_bytes) in cases {
        run.progress(format_args!(
            "{records} records x {payload_bytes} B payload"
        ));
        lost += matrix_point(run, records, payload_bytes);
    }
    run.gate(Gate::at_most("lost_records", 0.0, Some(lost as f64)));
}

/// Runs the three phases at one matrix point and records their rows;
/// returns how many records replay or the warm phase lost.
fn matrix_point(run: &mut Run, records: usize, payload_bytes: usize) -> usize {
    let tag = format!("{records}x{payload_bytes}");

    // Append: fresh store per repetition; the timing covers insert,
    // the write-behind flusher draining, and the final fsync.
    let dir = scratch(&format!("{tag}-append"));
    let append = best_of(run.reps, || {
        let _ = std::fs::remove_dir_all(&dir);
        let cache = open(&dir);
        let (elapsed, ()) = timed(|| insert_all(&cache, records, payload_bytes));
        let stats = cache.persist_stats().expect("persistent store has stats");
        assert!(!stats.wedged, "benchmark store must not wedge");
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        (elapsed, stats.appended_records as usize)
    });

    // One durable store for the replay/warm phases.
    let dir = scratch(&format!("{tag}-replay"));
    let _ = std::fs::remove_dir_all(&dir);
    insert_all(&open(&dir), records, payload_bytes);
    let on_disk = store_bytes(&dir);

    let mut replay = Best::new();
    let mut warm = Best::new();
    for _ in 0..run.reps {
        // Replay: reopen cold.
        let (elapsed, cache) = timed(|| open(&dir));
        replay.add((elapsed, cache.recovery().recovered_entries));
        // Warm: every key should hit, and decode back to its payload.
        warm.add(timed(|| {
            let mut hits = 0usize;
            for i in 0..records as u64 {
                if let Some(value) = cache.get(&key(i), Clone::clone) {
                    assert_eq!(
                        value,
                        Blob::synthesize(i, payload_bytes),
                        "record {i} replays byte-identically"
                    );
                    hits += 1;
                }
            }
            hits
        }));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (replay, warm) = (replay.finish(), warm.finish());

    for (kind, (millis, completed)) in [("append", append), ("replay", replay), ("warm", warm)] {
        run.row(kind, |row| {
            row.u64("records", records as u64)
                .u64("payload_bytes", payload_bytes as u64)
                .u64("store_bytes", on_disk as u64)
                .raw("millis", &fixed(millis, 3))
                .u64("completed", completed as u64)
                .raw(
                    "records_per_sec",
                    &fixed(completed as f64 / (millis / 1e3).max(1e-9), 0),
                );
        });
    }
    records - replay.1.min(warm.1).min(records)
}
