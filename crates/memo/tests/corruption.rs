//! Corruption corpus: every byte-level mutilation of a segment file the
//! recovery path must survive — truncated tails at *every* byte
//! boundary, flipped CRC bytes, flipped payload bytes, wrong policy
//! salts, corrupt headers, and future format versions. The contract
//! under test: recovery degrades to a cold start (wrong salt/version,
//! wrecked header) or a verified prefix (torn/corrupt tail); it never
//! panics and never serves bytes that differ from what was logged.

use std::path::{Path, PathBuf};

use fp_memo::{
    crc32, scan_store, Codec, Fingerprint, PersistOptions, PersistentCache, SegmentHealth, Weigh,
    HEADER_BYTES, RECORD_FRAME_BYTES,
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

const SALT: u128 = 0xFEED_F00D;
const ENTRIES: u64 = 6;
const VALUE_LEN: usize = 24;
const RECORD_LEN: usize = RECORD_FRAME_BYTES + 16 + VALUE_LEN;

fn entry(i: u64) -> (Fingerprint, Blob) {
    let key = (u128::from(i) << 64) | u128::from(i.wrapping_mul(0x51_7CC1));
    let value = (0..VALUE_LEN).map(|j| (i as u8) ^ (j as u8)).collect();
    (key, Blob(value))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-memo-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a clean single-wal store with [`ENTRIES`] fixed-size records
/// and returns the wal's bytes.
fn build_store(dir: &Path) -> Vec<u8> {
    let cache: PersistentCache<Blob> =
        PersistentCache::open(dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
    for i in 0..ENTRIES {
        let (k, v) = entry(i);
        cache.insert(k, v);
    }
    cache.flush().expect("flush");
    drop(cache);
    let bytes = std::fs::read(dir.join("wal.fpm")).expect("read wal");
    assert_eq!(
        bytes.len(),
        HEADER_BYTES + ENTRIES as usize * RECORD_LEN,
        "fixture layout drifted; update the corpus offsets"
    );
    bytes
}

/// Reopens the mutilated store and checks the verified-prefix contract:
/// exactly the first `expect_prefix` entries are served, byte-identical;
/// later entries miss; the cache accepts new work afterwards.
fn assert_recovers_prefix(dir: &Path, expect_prefix: u64) {
    let cache: PersistentCache<Blob> =
        PersistentCache::open(dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
    let report = cache.recovery();
    assert_eq!(
        report.recovered_entries as u64, expect_prefix,
        "recovered exactly the verified prefix"
    );
    for i in 0..expect_prefix {
        let (k, v) = entry(i);
        assert_eq!(
            cache.get(&k, Clone::clone),
            Some(v),
            "prefix entry {i} byte-identical"
        );
    }
    for i in expect_prefix..ENTRIES {
        let (k, _) = entry(i);
        assert!(
            cache.get(&k, Clone::clone).is_none(),
            "entry {i} past the tear never hits"
        );
    }
    // The recovered store must stay writable.
    let (k, v) = entry(1000 + expect_prefix);
    cache.insert(k, v.clone());
    cache.flush().expect("post-recovery flush");
    assert_eq!(cache.get(&k, Clone::clone), Some(v));
}

#[test]
fn truncation_at_every_byte_boundary_yields_a_verified_prefix() {
    let dir = scratch("truncate");
    let clean = build_store(&dir);
    let wal = dir.join("wal.fpm");
    for cut in 0..clean.len() {
        std::fs::write(&wal, &clean[..cut]).expect("write truncated wal");
        // Scanning classifies without panicking at any cut point.
        let scan = scan_store(&dir, SALT).expect("scan");
        let expect = if cut < HEADER_BYTES {
            assert_eq!(scan.segments[0].health, SegmentHealth::CorruptHeader);
            0
        } else {
            let whole = ((cut - HEADER_BYTES) / RECORD_LEN) as u64;
            if cut > HEADER_BYTES + whole as usize * RECORD_LEN {
                assert_eq!(scan.segments[0].health, SegmentHealth::TruncatedTail);
            }
            whole
        };
        assert_eq!(scan.segments[0].records.len() as u64, expect);
        // Fold in a full open/recover cycle at record granularity (every
        // byte would re-run the store 400+ times for little extra signal).
        if cut % RECORD_LEN == 7 {
            assert_recovers_prefix(&dir, expect);
            std::fs::remove_file(&wal).ok();
            // Reset: assert_recovers_prefix appended to the store.
            for f in std::fs::read_dir(&dir).expect("read dir").flatten() {
                std::fs::remove_file(f.path()).ok();
            }
            std::fs::write(&wal, &clean[..cut]).expect("rewrite");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_flipped_crc_byte_cuts_the_log_at_that_record() {
    let dir = scratch("crc-flip");
    let clean = build_store(&dir);
    let wal = dir.join("wal.fpm");
    for record in 0..ENTRIES as usize {
        let crc_at = HEADER_BYTES + record * RECORD_LEN + 4;
        for byte in 0..4 {
            let mut bytes = clean.clone();
            bytes[crc_at + byte] ^= 0x40;
            std::fs::write(&wal, &bytes).expect("write corrupted wal");
            let scan = scan_store(&dir, SALT).expect("scan");
            assert_eq!(scan.segments[0].health, SegmentHealth::TruncatedTail);
            assert_eq!(
                scan.segments[0].records.len(),
                record,
                "a flipped CRC byte ends the verified prefix at record {record}"
            );
        }
    }
    // Full recovery cycle on one representative flip.
    let mut bytes = clean.clone();
    bytes[HEADER_BYTES + 2 * RECORD_LEN + 5] ^= 0x01;
    for f in std::fs::read_dir(&dir).expect("read dir").flatten() {
        std::fs::remove_file(f.path()).ok();
    }
    std::fs::write(&wal, &bytes).expect("write");
    assert_recovers_prefix(&dir, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bits_are_never_served() {
    let dir = scratch("payload-flip");
    let clean = build_store(&dir);
    let wal = dir.join("wal.fpm");
    // Flip one bit in each record's *value* region: the CRC mismatch
    // must cut the log there — corrupted bytes are never returned.
    for record in 0..ENTRIES as usize {
        let flip_at = HEADER_BYTES + record * RECORD_LEN + RECORD_FRAME_BYTES + 16 + 3;
        let mut bytes = clean.clone();
        bytes[flip_at] ^= 0x80;
        std::fs::write(&wal, &bytes).expect("write");
        let scan = scan_store(&dir, SALT).expect("scan");
        assert_eq!(scan.segments[0].records.len(), record);
        for (i, (key, value)) in scan.segments[0].records.iter().enumerate() {
            let (k, v) = entry(i as u64);
            assert_eq!((*key, value.as_slice()), (k, v.0.as_slice()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_salt_and_future_version_cold_start_without_panic() {
    let dir = scratch("salt-version");
    let clean = build_store(&dir);
    let wal = dir.join("wal.fpm");

    // Rewrite the salt (re-sealing the header CRC so only the salt
    // check can reject it): cold start, no stale entries.
    let mut foreign = clean.clone();
    foreign[16..32].copy_from_slice(&(SALT ^ 0xDEAD).to_le_bytes());
    let crc = crc32(&foreign[0..32]);
    foreign[32..36].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &foreign).expect("write foreign wal");
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        assert_eq!(cache.recovery().recovered_entries, 0);
        assert!(cache.recovery().foreign_salt_segments > 0);
        for i in 0..ENTRIES {
            assert!(cache.get(&entry(i).0, Clone::clone).is_none());
        }
    }
    for f in std::fs::read_dir(&dir).expect("read dir").flatten() {
        std::fs::remove_file(f.path()).ok();
    }

    // Bump the version (CRC re-sealed): cold start, file preserved.
    let mut future = clean.clone();
    let version = u32::from_le_bytes([future[8], future[9], future[10], future[11]]) + 7;
    future[8..12].copy_from_slice(&version.to_le_bytes());
    let crc = crc32(&future[0..32]);
    future[32..36].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &future).expect("write future wal");
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        assert_eq!(cache.recovery().recovered_entries, 0);
        assert_eq!(cache.recovery().future_version_segments, 1);
        for i in 0..ENTRIES {
            assert!(cache.get(&entry(i).0, Clone::clone).is_none());
        }
        cache.insert(entry(7).0, entry(7).1);
        cache
            .flush()
            .expect("flush next to a parked future segment");
    }
    // The future-format file was parked under a sealed name, unmodified.
    let parked: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .flatten()
        .filter(|e| {
            e.file_name().to_string_lossy().starts_with("seg-")
                && std::fs::read(e.path()).is_ok_and(|b| b == future)
        })
        .collect();
    assert_eq!(parked.len(), 1, "future-version bytes preserved untouched");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_empty_files_never_panic_recovery() {
    let corpora: &[&[u8]] = &[
        b"",
        b"F",
        b"FPMEMOS1",
        b"not a segment file at all, just prose",
        &[0xFF; 64],
        &[0x00; 39], // one byte short of a header
    ];
    for (i, garbage) in corpora.iter().enumerate() {
        let dir = scratch(&format!("garbage-{i}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("wal.fpm"), garbage).expect("write garbage wal");
        std::fs::write(dir.join("seg-0000000001.fpm"), garbage).expect("write garbage seg");
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, 1 << 20, SALT, PersistOptions::default()).expect("open");
        assert!(cache.recovery().is_cold());
        assert!(cache.recovery().corrupt_header_segments > 0);
        // And it works as a fresh store.
        let (k, v) = entry(3);
        cache.insert(k, v.clone());
        cache.flush().expect("flush");
        assert_eq!(cache.get(&k, Clone::clone), Some(v));
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
