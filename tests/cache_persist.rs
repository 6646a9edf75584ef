//! Optimizer-level persistence integration: a warm restart over the
//! segment store must reproduce the cold run's outcome *byte for byte*
//! with zero rebuilds, the on-disk records must round-trip through the
//! [`CachedBlock`] codec identically, a corrupted store must degrade to
//! recomputation — never to a panic or a stale answer — and the salts
//! and block addresses a store is keyed by must not drift.

use std::path::{Path, PathBuf};

use fp_memo::{scan_store, Codec, SegmentHealth, HEADER_BYTES};
use fp_optimizer::cache::SharedBlockCache;
use fp_optimizer::{policy_fingerprint, CachedBlock, OptimizeConfig, Optimizer, Outcome};
use fp_select::{LReductionPolicy, Metric};
use fp_tree::fingerprint::block_fingerprints;
use fp_tree::generators;
use fp_tree::restructure::restructure;
use fp_tree::{FloorplanTree, ModuleLibrary};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fp-cache-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fixed instance every test agrees on.
fn instance() -> (FloorplanTree, ModuleLibrary) {
    let bench = generators::fp1();
    let library = generators::module_library(&bench.tree, 5, 7);
    (bench.tree, library)
}

fn run_with(cache: &SharedBlockCache) -> Outcome {
    let (tree, library) = instance();
    Optimizer::new(&tree, &library)
        .config(&OptimizeConfig::default())
        .cache(cache)
        .run()
        .expect("optimize succeeds")
        .outcome
}

fn open(dir: &Path) -> SharedBlockCache {
    let salt = policy_fingerprint(&OptimizeConfig::default());
    SharedBlockCache::open_persistent(dir, 16 << 20, salt).expect("store opens")
}

#[test]
fn warm_restart_reproduces_the_outcome_with_zero_rebuilds() {
    let dir = scratch("warm");
    let cold = {
        let cache = open(&dir);
        assert_eq!(cache.recovery().recovered_entries, 0, "first open is cold");
        let outcome = run_with(&cache);
        assert!(outcome.stats.cache_misses > 0, "cold run builds blocks");
        cache.flush().expect("flush");
        outcome
    };

    // A brand-new process image would see exactly this: every block
    // replayed, nothing rebuilt, the identical optimum.
    let cache = open(&dir);
    assert!(cache.recovery().recovered_entries > 0, "store replayed");
    let warm = run_with(&cache);
    assert_eq!(warm.stats.cache_misses, 0, "no block rebuilt");
    assert!(warm.stats.cache_hits > 0);
    assert_eq!(warm.area, cold.area);
    assert_eq!(warm.root_impl, cold.root_impl);
    assert_eq!(warm.assignment, cold.assignment);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_records_round_trip_the_block_codec_byte_identically() {
    let dir = scratch("codec");
    let cache = open(&dir);
    run_with(&cache);
    cache.flush().expect("flush");
    drop(cache);

    let salt = policy_fingerprint(&OptimizeConfig::default());
    let scan = scan_store(&dir, salt).expect("scan");
    let records = scan.records();
    assert!(!records.is_empty(), "the run persisted blocks");
    for (key, bytes) in &records {
        let block =
            CachedBlock::decode(bytes).unwrap_or_else(|| panic!("record {key:#034x} decodes"));
        let mut reencoded = Vec::new();
        block.encode(&mut reencoded);
        assert_eq!(
            &reencoded, bytes,
            "record {key:#034x} re-encodes to its stored bytes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_recomputes_instead_of_panicking() {
    let dir = scratch("corrupt");
    let cold = {
        let cache = open(&dir);
        let outcome = run_with(&cache);
        cache.flush().expect("flush");
        outcome
    };
    let salt = policy_fingerprint(&OptimizeConfig::default());
    let intact = scan_store(&dir, salt).expect("scan").records().len();
    assert!(intact > 0);

    // Flip one payload byte a few records in: everything from that
    // record on fails its CRC and is discarded at recovery.
    let wal = dir.join("wal.fpm");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    let target = HEADER_BYTES + (bytes.len() - HEADER_BYTES) / 3;
    bytes[target] ^= 0x40;
    std::fs::write(&wal, &bytes).expect("rewrite wal");

    let cache = open(&dir);
    let recovered = cache.recovery().recovered_entries;
    assert!(
        recovered < intact,
        "corruption cut the verified prefix ({recovered} of {intact})"
    );
    assert!(cache.recovery().truncated_segments > 0);
    // The optimizer simply recomputes what was lost — same optimum.
    let healed = run_with(&cache);
    assert_eq!(healed.area, cold.area);
    assert_eq!(healed.assignment, cold.assignment);
    assert!(healed.stats.cache_misses > 0, "lost blocks were rebuilt");
    cache.flush().expect("flush after heal");
    drop(cache);

    // And the store is clean again end to end.
    let rescan = scan_store(&dir, salt).expect("rescan");
    assert!(
        rescan
            .segments
            .iter()
            .all(|s| s.health == SegmentHealth::Clean),
        "post-heal store verifies"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_change_cold_starts_the_store() {
    let dir = scratch("salt");
    {
        let cache = open(&dir);
        run_with(&cache);
        cache.flush().expect("flush");
    }
    // Same directory, different selection policy → different salt →
    // cold start; never replays entries from the other policy.
    let other = policy_fingerprint(&OptimizeConfig::default().with_r_selection(64));
    let cache = SharedBlockCache::open_persistent(&dir, 16 << 20, other).expect("reopen");
    assert_eq!(cache.recovery().recovered_entries, 0);
    assert!(cache.recovery().foreign_salt_segments > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persisted stores (`fpopt --cache-file`, `Session`, fpserved) are
/// salted with `policy_fingerprint`, so a change to its bytes or to the
/// block addresses silently cold-starts every store on disk. These
/// literals were computed once and must never change.
#[test]
fn store_salts_and_block_addresses_are_pinned() {
    let paper_rl = OptimizeConfig::default()
        .with_r_selection(24)
        .with_l_selection(
            LReductionPolicy::new(300)
                .with_theta(1.0)
                .with_prefilter(1000),
        );
    let l2 = OptimizeConfig::default().with_l_selection(
        LReductionPolicy::new(30)
            .with_theta(0.5)
            .with_metric(Metric::L2),
    );
    let pinned: [(&str, OptimizeConfig, u128); 4] = [
        (
            "default",
            OptimizeConfig::default(),
            0x9602_e8db_392c_7f7f_9913_e793_c104_3cfe,
        ),
        (
            "paper-rl",
            paper_rl,
            0x6532_1d14_0287_4156_0e2f_338b_ea06_e44b,
        ),
        (
            "extra salt 7",
            OptimizeConfig::default().with_extra_salt(7),
            0xa7e4_052c_fe9a_fa77_3fbb_368b_79fe_5e21,
        ),
        ("K2 30, L2", l2, 0xaaae_8b64_bc8d_6fb1_ad96_3d9c_c919_26a6),
    ];
    for (label, config, expected) in &pinned {
        assert_eq!(
            policy_fingerprint(config),
            *expected,
            "{label}: policy fingerprint drifted"
        );
    }

    // FP1, N = 8, library seed 1: the root block's address under the
    // default salt.
    let bench = generators::fp1();
    let library = generators::module_library(&bench.tree, 8, 1);
    let bin = restructure(&bench.tree).expect("FP1 restructures");
    let salt = policy_fingerprint(&OptimizeConfig::default());
    let fps = block_fingerprints(&bin, &library, salt);
    assert_eq!(
        fps.last().copied(),
        Some(0x99af_0e6b_a024_ff1e_e283_88af_2e20_b6d9),
        "FP1 root block address drifted"
    );
}
