//! Persistent-store behaviour under normal and degraded conditions:
//! warm restarts, rotation, compaction, salt/version cold starts, and
//! ENOSPC degradation to in-memory service.

use std::path::PathBuf;

use fp_memo::{
    scan_store, Codec, Fingerprint, IoFaultPlan, PersistOptions, PersistentCache, SegmentHealth,
    Weigh,
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

/// A fresh scratch directory under the system temp dir, unique per
/// test, wiped on creation so reruns start clean.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-memo-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic test entries: key `i` maps to a value whose bytes are
/// derived from `i`, so both sides of a restart can recompute them.
fn entry(i: u64) -> (Fingerprint, Blob) {
    let key = (u128::from(i) << 64) | u128::from(i.wrapping_mul(0x9E37_79B9));
    let len = 16 + (i as usize % 48);
    let value = (0..len)
        .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8))
        .collect();
    (key, Blob(value))
}

const SALT: u128 = 0x00C0_FFEE;

#[test]
fn warm_restart_replays_everything_flushed() {
    let dir = scratch("warm-restart");
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        assert!(cache.recovery().is_cold());
        for i in 0..32 {
            let (k, v) = entry(i);
            cache.insert(k, v);
        }
        cache.flush().expect("flush");
    }
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    let report = cache.recovery();
    assert_eq!(report.recovered_entries, 32);
    assert_eq!(report.truncated_segments, 0);
    for i in 0..32 {
        let (k, v) = entry(i);
        assert_eq!(
            cache.get(&k, Clone::clone),
            Some(v),
            "entry {i} must survive restart"
        );
    }
    // Hits above, plus replay insertions, are all accounted.
    assert_eq!(cache.stats().hits, 32);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_mode_unifies_the_api() {
    let cache: PersistentCache<Blob> = PersistentCache::in_memory(1 << 20, 4);
    assert!(!cache.is_persistent());
    assert!(cache.store_dir().is_none());
    assert!(cache.persist_stats().is_none());
    let (k, v) = entry(1);
    cache.insert(k, v.clone());
    assert_eq!(cache.get(&k, Clone::clone), Some(v));
    cache.flush().expect("flush is a no-op in memory");
    assert!(cache.recovery().is_cold());
}

#[test]
fn rotation_seals_segments_and_preserves_content() {
    let dir = scratch("rotation");
    let options = PersistOptions {
        segment_bytes: 256,           // force several rotations
        compact_above_bytes: 1 << 30, // keep compaction out of this test
        ..PersistOptions::default()
    };
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, options.clone()).expect("open");
        for i in 0..64 {
            let (k, v) = entry(i);
            cache.insert(k, v);
        }
        cache.flush().expect("flush");
        let stats = cache.persist_stats().expect("persistent");
        assert!(stats.rotations > 0, "tiny segments must rotate");
        assert_eq!(stats.appended_records, 64);
        assert!(!stats.wedged);
    }
    let sealed = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count();
    assert!(sealed > 0, "rotation leaves sealed segment files behind");
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, options).expect("reopen");
    assert_eq!(cache.recovery().recovered_entries, 64);
    for i in 0..64 {
        let (k, v) = entry(i);
        assert_eq!(cache.get(&k, Clone::clone), Some(v));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_bounds_disk_and_keeps_live_entries() {
    let dir = scratch("compaction");
    let options = PersistOptions {
        segment_bytes: 512,
        compact_above_bytes: 2048,
        ..PersistOptions::default()
    };
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, options.clone()).expect("open");
        // Rewrite the same keys many times: most records become dead.
        for round in 0..16 {
            for i in 0..8 {
                let (k, _) = entry(i);
                cache.insert(k, Blob(vec![round as u8; 40]));
            }
        }
        cache.flush().expect("flush");
        let stats = cache.persist_stats().expect("persistent");
        assert!(stats.compactions > 0, "dead segments must be compacted");
    }
    // Disk holds the compacted live set, not 128 records' worth.
    let disk: u64 = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    assert!(
        disk < 16 * 8 * 64,
        "compaction must bound disk usage, found {disk} bytes"
    );
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, options).expect("reopen");
    for i in 0..8 {
        let (k, _) = entry(i);
        let got = cache
            .get(&k, Clone::clone)
            .expect("live key survives compaction");
        assert_eq!(got.0, vec![15u8; 40], "latest write wins");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_salt_is_a_cold_start_never_stale_bytes() {
    let dir = scratch("salt");
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        for i in 0..8 {
            let (k, v) = entry(i);
            cache.insert(k, v);
        }
        cache.flush().expect("flush");
    }
    // A different policy salt: nothing from the old store may be served.
    let other_salt = SALT ^ 1;
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, other_salt, PersistOptions::default())
                .expect("reopen with other salt");
        let report = cache.recovery();
        assert_eq!(report.recovered_entries, 0, "foreign salt = cold start");
        assert!(report.foreign_salt_segments > 0);
        for i in 0..8 {
            let (k, _) = entry(i);
            assert!(
                cache.get(&k, Clone::clone).is_none(),
                "stale policy bytes must not hit"
            );
        }
        // The store is fully usable under the new salt.
        let (k, v) = entry(100);
        cache.insert(k, v);
        cache.flush().expect("flush under new salt");
    }
    // And switching back to the original salt now ignores the new
    // store's segments in turn.
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    let (k100, _) = entry(100);
    assert!(cache.get(&k100, Clone::clone).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_version_segments_are_preserved_not_replayed() {
    let dir = scratch("future-version");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Hand-craft a sealed segment from "the future": bump the version
    // and re-seal the header CRC so only the version check rejects it.
    let mut header = Vec::new();
    header.extend_from_slice(b"FPMEMOS1");
    header.extend_from_slice(&(fp_memo::persist::SEGMENT_VERSION + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&SALT.to_le_bytes());
    let crc = fp_memo::crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(b"opaque future records");
    let future = dir.join("seg-0000000001.fpm");
    std::fs::write(&future, &header).expect("write future segment");

    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        let report = cache.recovery();
        assert_eq!(report.future_version_segments, 1);
        assert_eq!(report.recovered_entries, 0);
        let (k, v) = entry(0);
        cache.insert(k, v);
        cache.flush().expect("flush");
    }
    assert!(
        future.exists(),
        "a future-format segment is never ours to delete"
    );
    let scan = scan_store(&dir, SALT).expect("scan");
    assert!(scan
        .segments
        .iter()
        .any(|s| s.health == SegmentHealth::FutureVersion));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_wedges_the_writer_but_memory_keeps_serving() {
    let dir = scratch("enospc");
    let options = PersistOptions {
        faults: IoFaultPlan {
            enospc_at: Some(200),
            ..IoFaultPlan::none()
        },
        ..PersistOptions::default()
    };
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, options).expect("open");
    for i in 0..16 {
        let (k, v) = entry(i);
        cache.insert(k, v);
    }
    // The flush fails: the device "filled up" mid-log.
    assert!(
        cache.flush().is_err(),
        "flush must report the wedged writer"
    );
    let stats = cache.persist_stats().expect("persistent");
    assert!(stats.wedged);
    assert!(stats.io_errors > 0);
    // In-memory service is unaffected — the cache is an accelerator.
    for i in 0..16 {
        let (k, v) = entry(i);
        assert_eq!(cache.get(&k, Clone::clone), Some(v));
    }
    let (k, v) = entry(99);
    cache.insert(k, v.clone());
    assert_eq!(cache.get(&k, Clone::clone), Some(v));
    assert!(
        cache.persist_stats().expect("persistent").dropped_records > 0,
        "post-wedge inserts are counted as dropped, not lost silently"
    );
    drop(cache);
    // Whatever reached disk before the fault is still a verified prefix.
    let reopened: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    for (key, value) in scan_store(&dir, SALT)
        .expect("scan")
        .records()
        .iter()
        .map(|(k, v)| (*k, v.to_vec()))
    {
        assert_eq!(
            reopened
                .get(&key, Clone::clone)
                .expect("scanned record is served")
                .0,
            value,
            "recovered bytes identical to what was logged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_leaves_a_recoverable_verified_prefix() {
    let dir = scratch("short-write");
    // Record size: 8 frame + 16 key + 16 value = 40 bytes. Place the
    // tear mid-record (inside the 4th record's payload).
    let options = PersistOptions {
        faults: IoFaultPlan {
            short_write_at: Some(3 * 40 + 13),
            ..IoFaultPlan::none()
        },
        ..PersistOptions::default()
    };
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, options).expect("open");
        for i in 0..8 {
            cache.insert(entry(i).0, Blob(vec![i as u8; 16])); // 40-byte records
        }
        let _ = cache.flush(); // wedged — error is expected and fine
    }
    let cache: PersistentCache<Blob> =
        PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("reopen");
    let report = cache.recovery();
    assert!(
        report.truncated_segments > 0,
        "the torn tail must be detected"
    );
    // The verified prefix: complete records before the tear, nothing after.
    assert!(report.recovered_entries < 8);
    for i in 0..report.recovered_entries as u64 {
        assert_eq!(
            cache.get(&entry(i).0, Clone::clone),
            Some(Blob(vec![i as u8; 16])),
            "prefix entry {i} byte-identical"
        );
    }
    for i in report.recovered_entries as u64..8 {
        assert!(
            cache.get(&entry(i).0, Clone::clone).is_none(),
            "torn entries never served"
        );
    }
    // The wal was truncated to the verified prefix: appending new
    // records after recovery keeps the log clean end to end.
    cache.insert(entry(50).0, Blob(vec![50; 16]));
    cache.flush().expect("clean flush after recovery");
    drop(cache);
    let scan = scan_store(&dir, SALT).expect("scan");
    assert!(
        scan.segments
            .iter()
            .all(|s| s.health == SegmentHealth::Clean),
        "post-recovery log is fully verified again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
