//! Crash-recovery harness: a *separate writer process* is killed
//! mid-flush (`IoFaultPlan::kill_at` → `std::process::abort`, the
//! closest std-only stand-in for a power cut) and the parent asserts
//! the reopened store is a **verified prefix** — every recovered entry
//! byte-identical to the deterministic value the writer computed, no
//! entry past the kill point ever served, and the store fully writable
//! afterwards.
//!
//! The child is this same test binary re-executed with
//! `FP_MEMO_CRASH_CHILD` set, filtered to the `crash_child_writer`
//! "test", which performs the doomed writes. Without the env var that
//! test is a no-op, so normal runs are unaffected. The child's output is
//! captured, not inherited: its harness leaves an unterminated
//! `test crash_child_writer ... ` line when it dies, which would otherwise
//! run into the parent's own result lines.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fp_memo::{
    scan_store, Codec, Fingerprint, PersistOptions, PersistentCache, Weigh, HEADER_BYTES,
    RECORD_FRAME_BYTES,
};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Blob(Vec<u8>);

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

const SALT: u128 = 0x000C_4A54_C0DE;
const ENTRIES: u64 = 12;
const VALUE_LEN: usize = 32;
const RECORD_LEN: usize = RECORD_FRAME_BYTES + 16 + VALUE_LEN;

/// The deterministic workload both processes agree on: what a "fresh
/// optimize" of entry `i` produces.
fn entry(i: u64) -> (Fingerprint, Blob) {
    let key = (u128::from(i ^ 0xA5) << 64) | u128::from(i.wrapping_mul(0x2545_F491));
    let value = (0..VALUE_LEN)
        .map(|j| {
            (i as u8)
                .wrapping_mul(67)
                .wrapping_add((j as u8).wrapping_mul(13))
        })
        .collect();
    (key, Blob(value))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-memo-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The doomed writer, run in a child process. Inserts the deterministic
/// workload and flushes; the armed `kill_at` aborts the process while
/// the flusher is mid-append.
#[test]
fn crash_child_writer() {
    let Ok(dir) = std::env::var("FP_MEMO_CRASH_CHILD") else {
        return; // normal test run: nothing to do
    };
    let options = PersistOptions {
        faults: fp_memo::IoFaultPlan::from_env(),
        ..PersistOptions::default()
    };
    let cache: PersistentCache<Blob> =
        PersistentCache::open(Path::new(&dir), 1 << 20, SALT, options).expect("child open");
    for i in 0..ENTRIES {
        let (k, v) = entry(i);
        cache.insert(k, v);
    }
    // The abort fires inside the flusher during this drain.
    let _ = cache.flush();
    // Only reached if the kill offset lies beyond the written bytes.
    std::process::exit(42);
}

/// Runs the doomed writer against `dir` with `kill_at` armed, capturing
/// its output so it stays out of this harness's report.
fn run_writer(dir: &Path, kill_at: u64) -> Output {
    let exe = std::env::current_exe().expect("test binary path");
    Command::new(exe)
        .args([
            "crash_child_writer",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("FP_MEMO_CRASH_CHILD", dir.as_os_str())
        .env("FP_MEMO_KILL_AT", kill_at.to_string())
        .output()
        .expect("spawn crash child")
}

/// The child's captured stdout and stderr, for failure messages.
fn child_log(out: &Output) -> String {
    format!(
        "--- child stdout ---\n{}--- child stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// Spawns the doomed writer against `dir` with `kill_at` armed and
/// asserts it died by abort (not a clean exit).
fn run_killed_writer(dir: &Path, kill_at: u64) {
    let out = run_writer(dir, kill_at);
    assert!(
        !out.status.success(),
        "the writer must die mid-flush (kill_at={kill_at}), got {:?}\n{}",
        out.status,
        child_log(&out)
    );
}

/// After the crash, the reopened store must hold exactly the whole
/// records before `kill_at`, each byte-identical to the deterministic
/// workload — the verified-prefix property.
fn assert_verified_prefix(dir: &Path, kill_at: u64) {
    let expect_prefix = (kill_at / RECORD_LEN as u64).min(ENTRIES);

    // Forensic layer first: the on-disk verified prefix is exactly the
    // expected encodings.
    let scan = scan_store(dir, SALT).expect("scan");
    let records = scan.records();
    assert_eq!(
        records.len() as u64,
        expect_prefix,
        "kill at byte {kill_at}: whole records before the tear survive"
    );
    for (i, (key, bytes)) in records.iter().enumerate() {
        let (k, v) = entry(i as u64);
        assert_eq!(*key, k, "record {i} key");
        assert_eq!(
            *bytes,
            v.0.as_slice(),
            "record {i} bytes identical to a fresh compute"
        );
    }

    // Cache layer: recovery serves that prefix and nothing else.
    let cache: PersistentCache<Blob> =
        PersistentCache::open(dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    assert_eq!(cache.recovery().recovered_entries as u64, expect_prefix);
    for i in 0..expect_prefix {
        let (k, v) = entry(i);
        assert_eq!(cache.get(&k, Clone::clone), Some(v), "prefix entry {i}");
    }
    for i in expect_prefix..ENTRIES {
        let (k, _) = entry(i);
        assert!(
            cache.get(&k, Clone::clone).is_none(),
            "entry {i} was torn away and must never be served"
        );
    }

    // The recovered store accepts and persists new work cleanly.
    let (k, v) = entry(900 + kill_at);
    cache.insert(k, v.clone());
    cache.flush().expect("post-crash flush");
    drop(cache);
    let rescan = scan_store(dir, SALT).expect("rescan");
    assert!(
        rescan
            .segments
            .iter()
            .all(|s| s.health == fp_memo::SegmentHealth::Clean),
        "after recovery + append the log verifies end to end"
    );
}

#[test]
fn kill_mid_record_recovers_the_verified_prefix() {
    // Kill points: inside the first record's frame, mid-payload of
    // record 3, one byte before record 8 completes, and on a record
    // boundary.
    for (tag, kill_at) in [
        ("frame", 3u64),
        ("mid", 3 * RECORD_LEN as u64 + 20),
        ("almost", 8 * RECORD_LEN as u64 - 1),
        ("boundary", 5 * RECORD_LEN as u64),
    ] {
        let dir = scratch(&format!("kill-{tag}"));
        run_killed_writer(&dir, kill_at);
        assert_verified_prefix(&dir, kill_at);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_beyond_the_log_loses_nothing() {
    let dir = scratch("kill-beyond");
    let out = run_writer(&dir, ENTRIES * RECORD_LEN as u64 + 1000);
    // The child flushes everything and exits via its sentinel code.
    assert_eq!(
        out.status.code(),
        Some(42),
        "un-triggered kill: clean run\n{}",
        child_log(&out)
    );
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    assert_eq!(cache.recovery().recovered_entries as u64, ENTRIES);
    for i in 0..ENTRIES {
        let (k, v) = entry(i);
        assert_eq!(cache.get(&k, Clone::clone), Some(v));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sanity check on the header/record constants the offset math uses; if
/// the format evolves, this fails before the offset-dependent tests
/// mislead anyone.
#[test]
fn fixture_offsets_track_the_format() {
    let dir = scratch("layout");
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
    let (k, v) = entry(0);
    cache.insert(k, v);
    cache.flush().expect("flush");
    drop(cache);
    let wal = std::fs::read(dir.join("wal.fpm")).expect("read wal");
    assert_eq!(wal.len(), HEADER_BYTES + RECORD_LEN);
    let _ = std::fs::remove_dir_all(&dir);
}
