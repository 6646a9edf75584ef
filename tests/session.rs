//! End-to-end tests of the session subsystem: incremental
//! re-optimization after module edits (the content-addressed cache must
//! rebuild exactly the edited leaf's root-path joins), cache byte
//! accounting and LRU eviction at the block level, and the interaction
//! between caching and the governor's rescue ladder.

use fp_geom::Rect;
use fp_memo::Fingerprint;
use fp_optimizer::{
    policy_fingerprint, shared_cache_stats, BlockCache, CachedBlock, CachedShapes, Frontier,
    OptError, OptimizeConfig, Optimizer, SharedBlockCache,
};
use fp_session::{Session, SessionError};
use fp_tree::fingerprint::block_fingerprints;
use fp_tree::restructure::{restructure, BinNode};
use fp_tree::{generators, FloorplanTree, Module, ModuleLibrary};

/// Facade shorthand keeping this suite's call sites compact.
fn optimize_frontier(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<Frontier, OptError> {
    Optimizer::new(tree, library).config(config).run_frontier()
}

/// Facade shorthand for the cache-backed runs.
fn optimize_frontier_cached(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
    cache: &(dyn BlockCache + Sync),
) -> Result<Frontier, OptError> {
    Optimizer::new(tree, library)
        .config(config)
        .cache(cache)
        .run_frontier()
}

/// The joins whose content address differs between two library states:
/// exactly the edited leaves' root-path ancestors.
fn changed_joins(
    tree: &FloorplanTree,
    before: &ModuleLibrary,
    after: &ModuleLibrary,
    salt: Fingerprint,
) -> (usize, usize) {
    let bin = restructure(tree).expect("restructures");
    let fps_before = block_fingerprints(&bin, before, salt);
    let fps_after = block_fingerprints(&bin, after, salt);
    let mut joins = 0;
    let mut changed = 0;
    for (index, node) in bin.nodes().iter().enumerate() {
        if matches!(node, BinNode::Join { .. }) {
            joins += 1;
            if fps_before[index] != fps_after[index] {
                changed += 1;
            }
        }
    }
    (joins, changed)
}

/// After `update_module` on one leaf, a warm run (a) returns the same
/// frontier as a cold run over the edited instance, byte for byte, and
/// (b) rebuilds exactly the root-path joins — the miss counter equals
/// the number of joins whose fingerprint the edit changed, and that
/// number is small compared to the tree.
#[test]
fn incremental_reoptimize_rebuilds_only_the_root_path() {
    let bench = generators::fp2();
    let before = generators::module_library(&bench.tree, 5, 2);
    let config = OptimizeConfig::default();

    let mut session = Session::open(bench.tree.clone(), before.clone(), config.clone(), 32 << 20);
    let cold = session.optimize().expect("cold run");
    assert_eq!(cold.outcome.stats.cache_hits, 0);

    // Replace module 0's implementation list.
    let edited = Module::new(
        before.get(0).expect("module 0").name().to_owned(),
        vec![Rect::new(3, 9), Rect::new(5, 6), Rect::new(9, 3)],
    );
    session.update_module(0, edited).expect("edit applies");

    let (joins, changed) = changed_joins(
        &bench.tree,
        &before,
        session.library(),
        policy_fingerprint(&config),
    );
    assert!(changed > 0, "the edit must re-address at least the root");
    assert!(
        changed < joins,
        "a single-leaf edit must leave sibling subtrees addressed as before \
         ({changed} of {joins} joins changed)"
    );

    let warm = session.optimize().expect("incremental run");
    assert_eq!(
        warm.outcome.stats.cache_misses, changed,
        "only root-path joins may be rebuilt"
    );
    assert_eq!(
        warm.outcome.stats.cache_hits,
        joins - changed,
        "every off-path join must come from cache"
    );

    // Byte-identical to a from-scratch run over the edited instance.
    let cold_edited = optimize_frontier(&bench.tree, session.library(), &config)
        .expect("cold run over edited instance");
    let warm_frontier =
        optimize_frontier_cached(&bench.tree, session.library(), &config, session.cache())
            .expect("warm frontier");
    assert_eq!(cold_edited.envelopes(), warm_frontier.envelopes());
    assert_eq!(
        cold_edited.stats().degradations,
        warm_frontier.stats().degradations
    );
    let cold_best = Optimizer::new(&bench.tree, session.library())
        .config(&config)
        .run_best()
        .expect("cold optimize over edited instance");
    assert_eq!(warm.outcome.area, cold_best.area);
    assert_eq!(warm.outcome.assignment, cold_best.assignment);

    let stats = session.stats();
    assert_eq!(stats.runs, 2);
    assert_eq!(stats.module_edits, 1);
    assert_eq!(stats.last_run_misses, changed);
}

#[test]
fn session_rejects_invalid_edits_without_dirtying_state() {
    let bench = generators::fp1();
    let library = generators::module_library(&bench.tree, 3, 1);
    let mut session = Session::open(bench.tree, library, OptimizeConfig::default(), 1 << 20);
    let a = session.optimize().expect("runs").outcome.area;
    assert!(matches!(
        session.update_module(usize::MAX, Module::new("x", vec![Rect::new(1, 1)])),
        Err(SessionError::UnknownModule { .. })
    ));
    let b = session.optimize().expect("still runs").outcome.area;
    assert_eq!(a, b);
    assert_eq!(session.stats().last_run_misses, 0);
}

fn block(widths: &[(u64, u64)]) -> CachedBlock {
    let mut rects: Vec<Rect> = widths.iter().map(|&(w, h)| Rect::new(w, h)).collect();
    rects.sort_by_key(|r| std::cmp::Reverse(r.w));
    let prov = (0..rects.len() as u32).map(|i| (i, i)).collect();
    CachedBlock {
        shapes: CachedShapes::Rect { rects, prov },
        degradations: Vec::new(),
    }
}

/// Filling a cache past its byte budget evicts in LRU order, with
/// lookups (not just stores) refreshing recency. Pinned to a single
/// shard: the sharded cache runs an independent LRU per shard.
#[test]
fn cache_fill_past_budget_evicts_least_recently_used() {
    // A lookup that reads nothing from the entry: hit or miss.
    let hits = |cache: &SharedBlockCache, key: u128| cache.lookup(key, &mut |_| ());
    let one = block(&[(8, 1), (4, 2), (2, 4), (1, 8)]);
    let weight = fp_memo::Weigh::weight_bytes(&one) + fp_memo::ENTRY_OVERHEAD_BYTES;
    // Room for exactly three entries.
    let cache = SharedBlockCache::with_shards(3 * weight, 1);

    for key in 1u128..=3 {
        cache.store(key, one.clone());
    }
    assert!(hits(&cache, 1) && hits(&cache, 3));

    // 4 exceeds the budget: 2 is the least recently used (1 and 3 were
    // just looked up) and must go first.
    cache.store(4, one.clone());
    assert!(!hits(&cache, 2), "LRU entry evicted first");
    assert!(hits(&cache, 4));

    // Refresh 1 via lookup, insert 5: now 3 is the oldest.
    assert!(hits(&cache, 1));
    cache.store(5, one.clone());
    assert!(!hits(&cache, 3), "second eviction follows recency");
    assert!(hits(&cache, 1) && hits(&cache, 5));

    let stats = shared_cache_stats(&cache);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.insertions, 5);
    let (bytes, budget) = (cache.bytes(), cache.budget_bytes());
    assert!(bytes <= budget, "accounting stays within budget");
}

/// A cached session whose governor trips degrades through the rescue
/// ladder (auto-rescue) instead of aborting, and the cache stays
/// consistent: later runs still return the rescued-run area.
#[test]
fn governor_trip_with_cache_degrades_instead_of_aborting() {
    let bench = generators::fp1();
    let library = generators::module_library(&bench.tree, 6, 3);
    let plain =
        optimize_frontier(&bench.tree, &library, &OptimizeConfig::default()).expect("plain run");
    let budget = plain.stats().peak_impls * 3 / 4;

    let config = OptimizeConfig::default()
        .with_memory_limit(Some(budget))
        .with_auto_rescue(true);
    let mut session = Session::open(
        bench.tree.clone(),
        library.clone(),
        config.clone(),
        32 << 20,
    );

    let first = session.optimize().expect("rescue ladder completes the run");
    assert!(first.rescued, "the tight budget must trip and degrade");
    assert!(!first.outcome.stats.degradations.is_empty());

    // Rescued blocks are never memoized: a rerun under the same config
    // must reproduce the same (degraded) result, not observe rescued
    // lists under clean-policy addresses.
    let second = session.optimize().expect("second run");
    assert_eq!(first.outcome.area, second.outcome.area);
    assert_eq!(
        first.outcome.stats.degradations,
        second.outcome.stats.degradations
    );
}
