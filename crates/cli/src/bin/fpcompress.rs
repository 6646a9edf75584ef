//! `fpcompress` — compress the module shape lists of a floorplan instance
//! with `R_Selection`.
//!
//! ```sh
//! fpcompress design.fpt --k 8 -o compact.fpt
//! fpcompress design.fpt --max-error 50 -o compact.fpt
//! ```
//!
//! This is the paper's §6 "continuous shape curve" application in tool
//! form: module generators often emit densely sampled shape curves;
//! compressing each module's list to `k` points (or to an error budget)
//! before floorplanning bounds the optimizer's input size with an
//! *optimal* per-module approximation.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fp_cspp::CsppScratch;
use fp_geom::Area;
use fp_memo::{Codec, Fingerprinter, PersistOptions, PersistentCache, Weigh, DEFAULT_SHARDS};
use fp_optimizer::{PhaseName, SolverKind, TraceEvent, Tracer};
use fp_select::curve::r_selection_within;
use fp_select::r_selection_scratch;
use fp_tree::fingerprint::module_fingerprint;
use fp_tree::format::{parse_instance, write_instance, FloorplanInstance};
use fp_tree::{Module, ModuleLibrary};

const USAGE: &str = "\
usage: fpcompress <design.fpt> (--k <count> | --max-error <area>) [options]

  --k <count>        keep at most <count> implementations per module
                     (optimal R_Selection; endpoints always survive)
  --max-error <a>    keep the smallest subset per module whose staircase
                     error is at most <a>
  --max-impls <n>    cap the *total* output implementation count; without
                     --auto-rescue, exceeding it is an error
  --auto-rescue      when --max-impls is exceeded, halve k (floor 2) until
                     the output fits
  --deadline <secs>  wall-clock deadline for the compression
  --threads <n>      run per-module selections on <n> worker threads
                     (0 = all cores; default $FP_THREADS or 1; output
                     is identical at any thread count)
  --cache-bytes <n>  memoize per-module selections (content-addressed);
                     libraries with repeated shape lists — and rescue
                     retries — compress each distinct list once
  --cache-file <dir> persist the selection cache to an append-only
                     segment store in <dir>: replayed on startup,
                     flushed on exit, so re-compressing overlapping
                     libraries skips already-solved modules. Implies
                     a cache (default --cache-bytes 16777216)
  --trace <path>     write the structured event stream (per-module
                     selections, cache traffic, phase spans) as JSON
                     lines to <path>
  -o <out.fpt>       output path (default: stdout)

exit codes:
  0 success   2 usage   3 bad input   4 over --max-impls   5 deadline
";

#[derive(Clone, Copy)]
enum Mode {
    FixedK(usize),
    MaxError(u128),
}

struct Compressed {
    library: ModuleLibrary,
    before: usize,
    after: usize,
    total_error: u128,
    cache_reused: usize,
}

/// A memoized per-module selection: the surviving positions and the
/// staircase error they incur. `None` positions means "selection
/// declined, keep the module unchanged".
#[derive(Clone)]
struct CachedSelection {
    positions: Option<Vec<usize>>,
    error: u128,
}

impl Weigh for CachedSelection {
    fn weight_bytes(&self) -> usize {
        self.positions.as_ref().map_or(0, |p| p.len()) * core::mem::size_of::<usize>()
            + core::mem::size_of::<u128>()
    }
}

type SelectionCache = PersistentCache<CachedSelection>;

/// Fixed salt for `--cache-file` stores. Selection keys already mix the
/// mode parameters and a format version tag, so the salt only isolates
/// fpcompress stores from other tools'.
const STORE_SALT: u128 = 0x6670_636f_6d70_7265_7373_2f73_746f_7265; // "fpcompress/store"

impl Codec for CachedSelection {
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.positions {
            None => out.push(0),
            Some(positions) => {
                out.push(1);
                out.extend_from_slice(&(positions.len() as u32).to_le_bytes());
                for &p in positions {
                    out.extend_from_slice(&(p as u64).to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&self.error.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let (positions, rest) = match tag {
            0 => (None, rest),
            1 => {
                let len_bytes: [u8; 4] = rest.get(..4)?.try_into().ok()?;
                let len = u32::from_le_bytes(len_bytes) as usize;
                let rest = &rest[4..];
                // Exact-length check doubles as the allocation guard.
                if rest.len() != len.checked_mul(8)?.checked_add(16)? {
                    return None;
                }
                let mut positions = Vec::with_capacity(len);
                for chunk in rest[..len * 8].chunks_exact(8) {
                    let raw = u64::from_le_bytes(chunk.try_into().ok()?);
                    positions.push(usize::try_from(raw).ok()?);
                }
                (Some(positions), &rest[len * 8..])
            }
            _ => return None,
        };
        let error_bytes: [u8; 16] = rest.try_into().ok()?;
        Some(CachedSelection {
            positions,
            error: u128::from_le_bytes(error_bytes),
        })
    }
}

/// The content address of one module's selection problem: the module's
/// implementation list (name-independent) plus the mode's parameters.
fn selection_key(module: &Module, mode: Mode) -> u128 {
    let mut h = Fingerprinter::new();
    h.write_str("fpcompress/selection/v1");
    h.write_u128(module_fingerprint(module));
    match mode {
        Mode::FixedK(k) => {
            h.write_u64(1);
            h.write_usize(k);
        }
        Mode::MaxError(e) => {
            h.write_u64(2);
            h.write_u128(e);
        }
    }
    h.finish()
}

/// One module's selection, computed fresh. Parsed modules always have
/// non-empty lists; keep the module unchanged if selection ever
/// declines anyway. The fixed-k path routes through a caller-owned
/// arena so repeated selections reuse buffers (and so the arena's
/// solver-dispatch counters attribute each selection to a kernel).
fn compute_selection(
    module: &Module,
    mode: Mode,
    scratch: &mut CsppScratch<Area>,
) -> CachedSelection {
    let list = module.implementations();
    let fresh = match mode {
        Mode::FixedK(k) => r_selection_scratch(list, k, scratch),
        Mode::MaxError(e) => r_selection_within(list, e),
    };
    match fresh {
        Ok(s) => CachedSelection {
            positions: Some(s.positions),
            error: s.error,
        },
        Err(_) => CachedSelection {
            positions: None,
            error: 0,
        },
    }
}

/// [`compute_selection`] with a [`TraceEvent::Selection`] span emitted
/// per module. `--max-error` selections run outside the CSPP arena
/// (the error-budget sweep never builds the DAG) and are reported as a
/// single legacy solve.
fn compute_selection_traced(
    module: &Module,
    mode: Mode,
    scratch: &mut CsppScratch<Area>,
    node: u32,
    worker: u32,
    tracer: &Tracer,
) -> CachedSelection {
    if !tracer.is_subscribed() {
        return compute_selection(module, mode, scratch);
    }
    let n = module.implementations().len();
    let before = scratch.counters();
    let started = Instant::now();
    let selection = compute_selection(module, mode, scratch);
    let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let delta = scratch.counters().since(before);
    let k = match mode {
        Mode::FixedK(k) => k,
        Mode::MaxError(_) => selection.positions.as_ref().map_or(n, Vec::len),
    };
    let solver = if delta.divide_conquer > 0 {
        SolverKind::Monge
    } else if delta.dense > 0 {
        SolverKind::Dense
    } else {
        SolverKind::Legacy
    };
    let legacy = if delta.total() == 0 {
        1
    } else {
        delta.legacy as u32
    };
    tracer.emit(
        worker,
        TraceEvent::Selection {
            node,
            solver,
            legacy,
            dense: delta.dense as u32,
            monge: delta.divide_conquer as u32,
            k: k as u32,
            n: n as u32,
            dur_ns,
        },
    );
    if delta.monge_fallbacks > 0 {
        tracer.emit(
            worker,
            TraceEvent::MongeFallback {
                node,
                count: delta.monge_fallbacks as u32,
            },
        );
    }
    selection
}

/// Compresses the library in three deterministic phases: serial cache
/// lookups, per-module selection of the misses (fanned across `threads`
/// workers — selections are independent, so the output is identical at
/// any thread count), and serial in-order cache insertion and assembly.
fn compress(
    instance: &FloorplanInstance,
    mode: Mode,
    cache: &mut Option<SelectionCache>,
    threads: usize,
    tracer: &Tracer,
) -> Compressed {
    let run_started = Instant::now();
    let modules: Vec<&Module> = instance.library.iter().collect();
    let n = modules.len();
    let keys: Vec<Option<u128>> = modules
        .iter()
        .map(|m| cache.as_ref().map(|_| selection_key(m, mode)))
        .collect();

    // Phase 1: serial lookups (hit accounting stays order-stable).
    let mut selections: Vec<Option<CachedSelection>> = vec![None; n];
    let mut cache_reused = 0usize;
    if let Some(cache) = cache.as_mut() {
        for (i, (selection, key)) in selections.iter_mut().zip(&keys).enumerate() {
            if let Some(key) = key {
                if let Some(hit) = cache.get(key, Clone::clone) {
                    tracer.emit(
                        0,
                        TraceEvent::CacheHit {
                            node: i as u32,
                            len: hit.positions.as_ref().map_or(0, Vec::len) as u32,
                        },
                    );
                    *selection = Some(hit);
                    cache_reused += 1;
                } else {
                    tracer.emit(0, TraceEvent::CacheMiss { node: i as u32 });
                }
            }
        }
    }

    // Phase 2: compute the misses, on worker threads when asked.
    let selection_started = Instant::now();
    let misses: Vec<usize> = (0..n).filter(|&i| selections[i].is_none()).collect();
    let workers = threads.clamp(1, misses.len().max(1));
    if workers > 1 {
        let chunk_len = misses.len().div_ceil(workers);
        let computed: Vec<(usize, CachedSelection)> = std::thread::scope(|scope| {
            let handles: Vec<_> = misses
                .chunks(chunk_len)
                .enumerate()
                .map(|(w, chunk)| {
                    let modules = &modules;
                    scope.spawn(move || {
                        let mut scratch = CsppScratch::new();
                        chunk
                            .iter()
                            .map(|&i| {
                                let selection = compute_selection_traced(
                                    modules[i],
                                    mode,
                                    &mut scratch,
                                    i as u32,
                                    w as u32 + 1,
                                    tracer,
                                );
                                (i, selection)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        for (i, selection) in computed {
            selections[i] = Some(selection);
        }
    }
    // Serial path, and the backstop for anything a worker failed to
    // deliver: compute in place.
    let mut scratch = CsppScratch::new();
    for (i, selection) in selections.iter_mut().enumerate() {
        if selection.is_none() {
            *selection = Some(compute_selection_traced(
                modules[i],
                mode,
                &mut scratch,
                i as u32,
                0,
                tracer,
            ));
        }
    }
    tracer.emit(
        0,
        TraceEvent::Phase {
            name: PhaseName::Selection,
            dur_ns: u64::try_from(selection_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        },
    );

    // Phase 3: in-order cache insertion and library assembly.
    let mut before = 0usize;
    let mut after = 0usize;
    let mut total_error: u128 = 0;
    let mut miss_cursor = misses.iter().copied().peekable();
    let library: ModuleLibrary = modules
        .iter()
        .enumerate()
        .map(|(i, module)| {
            let list = module.implementations();
            before += list.len();
            let selection = selections[i].take().unwrap_or(CachedSelection {
                positions: None,
                error: 0,
            });
            if miss_cursor.peek() == Some(&i) {
                miss_cursor.next();
                if let (Some(cache), Some(key)) = (cache.as_mut(), keys[i]) {
                    cache.insert(key, selection.clone());
                }
            }
            total_error += selection.error;
            match &selection.positions {
                Some(positions) => {
                    after += positions.len();
                    Module::new(module.name(), list.subset(positions).into_vec())
                }
                None => {
                    after += list.len();
                    Module::new(module.name(), list.clone().into_vec())
                }
            }
        })
        .collect();
    tracer.emit(
        0,
        TraceEvent::Phase {
            name: PhaseName::Run,
            dur_ns: u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        },
    );
    Compressed {
        library,
        before,
        after,
        total_error,
        cache_reused,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut max_impls: Option<usize> = None;
    let mut cache_bytes: Option<usize> = None;
    let mut cache_file: Option<String> = None;
    let mut auto_rescue = false;
    let mut deadline: Option<Duration> = None;
    let mut threads: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-impls" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --max-impls needs a value");
                    return ExitCode::from(2);
                };
                match v.parse() {
                    Ok(n) => max_impls = Some(n),
                    Err(err) => {
                        eprintln!("fpcompress: --max-impls: {err}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cache-bytes" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --cache-bytes needs a value");
                    return ExitCode::from(2);
                };
                match v.parse() {
                    Ok(n) => cache_bytes = Some(n),
                    Err(err) => {
                        eprintln!("fpcompress: --cache-bytes: {err}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cache-file" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --cache-file needs a value");
                    return ExitCode::from(2);
                };
                cache_file = Some(v.clone());
            }
            "--auto-rescue" => auto_rescue = true,
            "--trace" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --trace needs a value");
                    return ExitCode::from(2);
                };
                trace_path = Some(v.clone());
            }
            "--threads" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --threads expects a value\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                };
                match v.parse::<usize>() {
                    Ok(n) => threads = Some(n),
                    Err(e) => {
                        eprintln!("fpcompress: --threads: {e}\n");
                        eprint!("{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--deadline" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --deadline needs a value");
                    return ExitCode::from(2);
                };
                match v.parse::<f64>() {
                    Ok(secs) if secs.is_finite() && secs >= 0.0 => {
                        deadline = Some(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        eprintln!(
                            "fpcompress: --deadline expects a non-negative number of seconds"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--k" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --k needs a value");
                    return ExitCode::from(2);
                };
                match v.parse() {
                    Ok(k) if k >= 2 => mode = Some(Mode::FixedK(k)),
                    _ => {
                        eprintln!("fpcompress: --k must be an integer >= 2");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-error" => {
                let Some(v) = it.next() else {
                    eprintln!("fpcompress: --max-error needs a value");
                    return ExitCode::from(2);
                };
                match v.parse() {
                    Ok(e) => mode = Some(Mode::MaxError(e)),
                    Err(err) => {
                        eprintln!("fpcompress: --max-error: {err}");
                        return ExitCode::from(2);
                    }
                }
            }
            "-o" => output = it.next().cloned(),
            "--help" | "-h" => {
                eprint!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("fpcompress: unknown option {other}\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
            other => input = Some(other.to_owned()),
        }
    }
    let (Some(input), Some(mode)) = (input, mode) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };

    let start = Instant::now();
    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fpcompress: cannot read {input}: {e}");
            return ExitCode::from(3);
        }
    };
    let instance = match parse_instance(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("fpcompress: {input}: {e}");
            return ExitCode::from(3);
        }
    };

    let mut cache = match &cache_file {
        None => cache_bytes.map(|bytes| PersistentCache::in_memory(bytes, DEFAULT_SHARDS)),
        Some(dir) => {
            match PersistentCache::open(
                std::path::Path::new(dir),
                cache_bytes.unwrap_or(16 << 20),
                STORE_SALT,
                PersistOptions::default(),
            ) {
                Ok(cache) => {
                    eprintln!(
                        "fpcompress: cache store {dir} replayed {} selections",
                        cache.recovery().recovered_entries
                    );
                    Some(cache)
                }
                Err(e) => {
                    eprintln!("fpcompress: cannot open cache store: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    };
    let mut mode = mode;
    // `--threads 0` and the FP_THREADS default resolve the same way the
    // optimizer's own scheduler does.
    let threads = {
        let mut config = fp_optimizer::OptimizeConfig::default();
        if let Some(n) = threads {
            config = config.with_threads(n);
        }
        config.resolved_threads()
    };
    let tracer = if trace_path.is_some() {
        Tracer::new()
    } else {
        Tracer::unsubscribed()
    };
    let mut result = compress(&instance, mode, &mut cache, threads, &tracer);
    // Degrade-and-retry: halve k until the output fits the cap.
    while let Some(cap) = max_impls {
        if result.after <= cap {
            break;
        }
        if !auto_rescue {
            eprintln!(
                "fpcompress: output has {} implementations, over the --max-impls cap {cap}",
                result.after
            );
            eprintln!("            pass --auto-rescue to degrade k until it fits");
            return ExitCode::from(4);
        }
        if let Some(d) = deadline {
            if start.elapsed() > d {
                eprintln!("fpcompress: deadline exceeded while rescuing");
                return ExitCode::from(5);
            }
        }
        // MaxError mode rescues by switching to the largest per-module k
        // that could still fit; FixedK halves (floor 2).
        let next_k = match mode {
            Mode::FixedK(k) if k > 2 => (k / 2).max(2),
            Mode::FixedK(_) => {
                eprintln!(
                    "fpcompress: cannot fit {} implementations under {cap} even at k=2",
                    result.after
                );
                return ExitCode::from(4);
            }
            Mode::MaxError(_) => (cap / instance.library.len().max(1)).max(2),
        };
        eprintln!(
            "fpcompress: rescue: {} implementations over cap {cap}; retrying with k={next_k}",
            result.after
        );
        mode = Mode::FixedK(next_k);
        result = compress(&instance, mode, &mut cache, threads, &tracer);
    }
    if let Some(d) = deadline {
        if start.elapsed() > d {
            eprintln!("fpcompress: deadline exceeded");
            return ExitCode::from(5);
        }
    }

    let compressed = FloorplanInstance {
        name: instance.name.clone(),
        tree: instance.tree.clone(),
        library: result.library,
    };
    let out_text = match write_instance(&compressed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fpcompress: cannot serialize instance: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, out_text) {
                eprintln!("fpcompress: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{out_text}"),
    }
    if let Some(path) = &trace_path {
        let trace = tracer.drain();
        let mut buf: Vec<u8> = Vec::new();
        if let Err(e) = trace.write_jsonl(&mut buf) {
            eprintln!("fpcompress: cannot serialize trace: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, buf) {
            eprintln!("fpcompress: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fpcompress: trace: wrote {} events to {path}{}",
            trace.events.len(),
            if trace.dropped > 0 {
                format!(" ({} dropped at capacity)", trace.dropped)
            } else {
                String::new()
            }
        );
    }
    eprintln!(
        "fpcompress: {} -> {} implementations across {} modules (total staircase error {})",
        result.before,
        result.after,
        compressed.library.len(),
        result.total_error
    );
    if let Some(cache) = &cache {
        let stats = cache.stats();
        eprintln!(
            "fpcompress: cache: {} of {} selections reused this pass ({} hits, {} misses lifetime)",
            result.cache_reused,
            compressed.library.len(),
            stats.hits,
            stats.misses
        );
        if cache.is_persistent() {
            if let Err(e) = cache.flush() {
                eprintln!("fpcompress: cache flush failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
