//! Persistent memo-store benchmark: append/flush throughput, recovery
//! (replay) latency, and warm-hit serving over the crash-safe segment
//! log, emitted as machine-readable `BENCH_persist.json`.
//!
//! ```sh
//! cargo run --release -p fp-bench --bin persist_bench
//! cargo run --release -p fp-bench --bin persist_bench -- --smoke
//! cargo run --release -p fp-bench --bin persist_bench -- --out path.json
//! ```
//!
//! Three timed phases per matrix point, all through one
//! [`fp_memo::PersistentCache`] over a scratch store directory:
//!
//! * **append** — insert every record into a fresh store and `flush()`,
//!   so the timing covers encode, the write-behind flusher, and fsync;
//! * **replay** — reopen the store cold and replay the segment log back
//!   into memory (the warm-restart path);
//! * **warm** — look up every key from the replayed cache.
//!
//! Timings are the best of [`REPS`] repetitions (monotonic clock). The
//! JSON doubles as a regression gate: replay must recover *every*
//! appended record and the warm phase must serve 100% hits — a miss
//! means the verified-prefix recovery dropped data on a clean store.
//!
//! `--smoke` runs a reduced matrix (2k records, 1 rep) so CI can gate
//! on the schema and the recovery invariants without paying for the
//! full sweep.

use std::path::PathBuf;
use std::time::Instant;

use fp_memo::{Codec, PersistOptions, PersistentCache, Weigh};

/// Repetitions per phase; the minimum is reported.
const REPS: usize = 3;
/// Salt for the benchmark store; the payloads are synthetic, so any
/// fixed value works — it only has to survive the reopen.
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

struct PhaseResult {
    millis: f64,
    records: usize,
}

struct BenchResult {
    records: usize,
    payload_bytes: usize,
    store_bytes: u64,
    append: PhaseResult,
    replay: PhaseResult,
    warm: PhaseResult,
}

fn min_phase(a: PhaseResult, b: PhaseResult) -> PhaseResult {
    assert_eq!(a.records, b.records, "repetitions must agree");
    if b.millis < a.millis {
        b
    } else {
        a
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fp-persist-bench-{}-{tag}", std::process::id()))
}

fn store_bytes(dir: &PathBuf) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn run_bench(records: usize, payload_bytes: usize, reps: usize) -> BenchResult {
    let tag = format!("{records}x{payload_bytes}");

    // Append: fresh store per repetition; the timing covers insert,
    // the write-behind flusher draining, and the final fsync.
    let mut append: Option<PhaseResult> = None;
    for rep in 0..reps {
        let dir = scratch(&format!("{tag}-append-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, CACHE_BYTES, SALT, PersistOptions::default())
                .expect("store opens");
        let start = Instant::now();
        for i in 0..records as u64 {
            cache.insert(key(i), Blob::synthesize(i, payload_bytes));
        }
        cache.flush().expect("flush");
        let phase = PhaseResult {
            millis: start.elapsed().as_secs_f64() * 1e3,
            records,
        };
        let stats = cache.persist_stats().expect("persistent store has stats");
        assert_eq!(
            stats.appended_records as usize, records,
            "every insert reaches the log"
        );
        assert!(!stats.wedged, "benchmark store must not wedge");
        append = Some(match append {
            None => phase,
            Some(best) => min_phase(best, phase),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    let append = append.expect("at least one repetition");

    // One durable store for the replay/warm phases.
    let dir = scratch(&format!("{tag}-replay"));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, CACHE_BYTES, SALT, PersistOptions::default())
                .expect("store opens");
        for i in 0..records as u64 {
            cache.insert(key(i), Blob::synthesize(i, payload_bytes));
        }
        cache.flush().expect("flush");
    }
    let on_disk = store_bytes(&dir);

    // Replay: reopen cold; recovery must replay every record.
    let mut replay: Option<PhaseResult> = None;
    let mut warm: Option<PhaseResult> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let cache: PersistentCache<Blob> =
            PersistentCache::open(&dir, CACHE_BYTES, SALT, PersistOptions::default())
                .expect("store reopens");
        let replay_phase = PhaseResult {
            millis: start.elapsed().as_secs_f64() * 1e3,
            records: cache.recovery().recovered_entries,
        };
        assert_eq!(
            replay_phase.records, records,
            "a clean store replays every record"
        );
        replay = Some(match replay {
            None => replay_phase,
            Some(best) => min_phase(best, replay_phase),
        });

        // Warm: every key must hit, and decode back to its payload.
        let start = Instant::now();
        let mut hits = 0usize;
        for i in 0..records as u64 {
            let value = cache.get(&key(i), Clone::clone).expect("replayed key hits");
            assert_eq!(
                value,
                Blob::synthesize(i, payload_bytes),
                "record {i} replays byte-identically"
            );
            hits += 1;
        }
        let warm_phase = PhaseResult {
            millis: start.elapsed().as_secs_f64() * 1e3,
            records: hits,
        };
        warm = Some(match warm {
            None => warm_phase,
            Some(best) => min_phase(best, warm_phase),
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    BenchResult {
        records,
        payload_bytes,
        store_bytes: on_disk,
        append,
        replay: replay.expect("at least one repetition"),
        warm: warm.expect("at least one repetition"),
    }
}

fn throughput(p: &PhaseResult) -> f64 {
    if p.millis <= 0.0 {
        0.0
    } else {
        p.records as f64 / (p.millis / 1e3)
    }
}

fn phase_json(label: &str, p: &PhaseResult) -> String {
    format!(
        "\"{label}\": {{\"millis\": {:.3}, \"records\": {}, \"records_per_sec\": {:.0}}}",
        p.millis,
        p.records,
        throughput(p)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_persist.json".to_owned();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("persist_bench: --out needs a value");
                    std::process::exit(2);
                }
            },
            "--smoke" => smoke = true,
            other => {
                eprintln!("persist_bench: unknown option {other}");
                std::process::exit(2);
            }
        }
    }

    // Matrix: record count × payload size. The payloads bracket the
    // sizes real CachedBlock records encode to (tens of bytes for
    // small curves, ~1 KiB for deep joins).
    let (cases, reps): (&[(usize, usize)], usize) = if smoke {
        (&[(2_000, 64), (2_000, 1_024)], 1)
    } else {
        (&[(50_000, 64), (50_000, 256), (20_000, 1_024)], REPS)
    };

    let mut results = Vec::new();
    for (records, payload) in cases {
        eprintln!("persist_bench: {records} records x {payload} B payload ...");
        results.push(run_bench(*records, *payload, reps));
    }

    let mut entries = Vec::new();
    for r in &results {
        let mb = r.store_bytes as f64 / (1 << 20) as f64;
        entries.push(format!(
            "    {{\"records\": {}, \"payload_bytes\": {}, \"store_bytes\": {},\n     {},\n     {},\n     {}}}",
            r.records,
            r.payload_bytes,
            r.store_bytes,
            phase_json("append", &r.append),
            phase_json("replay", &r.replay),
            phase_json("warm", &r.warm),
        ));
        println!(
            "{:>6} x {:>5} B ({mb:>7.2} MiB): append {:>9.3} ms ({:>9.0} rec/s) | \
             replay {:>8.3} ms ({:>9.0} rec/s) | warm {:>8.3} ms ({:>9.0} rec/s)",
            r.records,
            r.payload_bytes,
            r.append.millis,
            throughput(&r.append),
            r.replay.millis,
            throughput(&r.replay),
            r.warm.millis,
            throughput(&r.warm),
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"persistent memo store append/replay/warm\",\n  \
         \"smoke\": {smoke},\n  \"reps\": {reps},\n  \"cache_bytes\": {CACHE_BYTES},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("persist_bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    // The headline guarantee: recovery replays the whole store. The
    // per-case asserts already enforce it; fail loudly if a future
    // refactor turns them into warnings.
    for r in &results {
        if r.replay.records != r.records || r.warm.records != r.records {
            eprintln!(
                "persist_bench: FAIL: {} of {} records survived replay",
                r.replay.records.min(r.warm.records),
                r.records
            );
            std::process::exit(1);
        }
    }
}
