//! `fpopt` — command-line floorplan area optimizer.
//!
//! ```sh
//! fpopt design.fpt --k1 40 --k2 1000 --svg out.svg
//! fpopt @fp1 --n 16 --seed 3 --ascii
//! ```
//!
//! Inputs are `.fpt` instance files (see `fp_tree::format`) or built-in
//! benchmarks (`@fig1`, `@fp1` … `@fp4`). Options mirror the paper's
//! knobs: `--k1` enables `R_Selection`, `--k2` (with `--theta`,
//! `--prefilter`) enables `L_Selection`, and `--memory` bounds the
//! implementation count the way the paper's machine did.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use fp_anneal::{anneal_multi, AnnealConfig, MultiAnnealConfig};
use fp_optimizer::{
    netlist_fingerprint, parse_netlist, random_netlist, BlockCache, CompositeObjective, Executor,
    FaultPlan, JobClass, Netlist, OptError, OptimizeConfig, Optimizer, RunOutcome, Trace, Tracer,
};
use fp_select::LReductionPolicy;
use fp_tree::format::{parse_instance, FloorplanInstance};
use fp_tree::layout::realize;
use fp_tree::{export, generators, mega};

/// Fixed salt for `--session` replay stores (replay requests carry
/// their own policies; block keys already mix the policy fingerprint).
const REPLAY_STORE_SALT: u128 = 0x6670_6f70_742f_7265_706c_6179_2f31_3131; // "fpopt/replay/111"

const USAGE: &str = "\
usage: fpopt <design.fpt | @fig1 | @fp1..@fp8> [options]

input options (built-in benchmarks only):
  --n <count>        implementations per module (default 8)
  --seed <u64>       module-set seed (default 1)

generator options:
  --gen <spec>       synthesize a deterministic mega-scale instance
                     instead of reading one:
                       mega:<modules>[,profile=balanced|deep|wide]
                            [,wheels=<0..1>][,impls=<n>][,seed=<u64>]
                     e.g. --gen mega:10000,profile=deep,seed=7
                     (@fp5..@fp8 are the canned 10k/50k/150k/500k
                     members of this family; combine with --fpt <path>
                     to export the instance)

selection options (paper knobs):
  --k1 <limit>       enable R_Selection with limit K1
  --k2 <limit>       enable L_Selection with limit K2
  --theta <0..1]     L_Selection trigger (default 1.0)
  --prefilter <S>    heuristic prefilter threshold (default off)
  --parallel         reduce L-lists on worker threads (same results)
  --threads <n>      evaluate independent subtrees on <n> worker
                     threads (0 = all cores; default $FP_THREADS or 1;
                     results are identical at any thread count)
  --memory <count>   implementation budget (default 10000000)
  --max-impls <n>    alias for --memory
  --outline <WxH>    require the floorplan to fit a fixed outline
  --objective <obj>  area (default) or hp (half-perimeter)

wirelength options (multi-objective):
  --netlist <file>   score layouts against a .fpn netlist (HPWL)
  --nets <count>     generate a seeded random netlist with <count> nets
                     instead of reading one (mutually exclusive)
  --net-seed <u64>   seed for --nets (default 1)
  --alpha <0..1>     weighted objective alpha*area + (1-alpha)*HPWL,
                     both normalized (default 1.0 = pure area, identical
                     to running without a netlist)
  --max-hpwl <n>     epsilon-constraint: minimize area subject to
                     HPWL <= n (overrides --alpha)
  --pareto           print the (area, HPWL, outline-fit) non-dominated
                     frontier and its hypervolume instead of one layout

annealing options (topology search):
  --anneal-chains <n>
                     search slicing topologies by multi-start simulated
                     annealing: <n> independent chains (1..=64) run as
                     jobs on a shared executor with a best-of-N merge;
                     results are identical at any thread count. The
                     paper's area optimizer (with the selection knobs
                     above) is the inner cost loop; the <design>'s own
                     tree is ignored — the topology is the variable
  --anneal-moves <n> proposed moves per chain (default 2000)
  --anneal-seed <u64>
                     base seed; chain i > 0 derives its own independent
                     stream from it (default 1)
  --init <topology>  starting topology for every chain: row (default,
                     all modules in one horizontal strip), ost (the
                     orderly-spanning-tree grid seed -- deterministic,
                     near-square), or random (seeded)

robustness options:
  --deadline <secs>  wall-clock deadline for the optimization
  --auto-rescue      on budget trips, retry under stricter selection
                     (degradations are reported on stderr)
  --inject-fault <n[,n...]>
                     fail the n-th candidate allocation(s) (testing aid)

session options:
  --cache-bytes <n>  optimize through a content-addressed block cache
                     with an <n>-byte budget (reports hit/miss counters)
  --cache-file <dir> persist the block cache to an append-only segment
                     store in <dir>: replayed on startup for warm
                     restarts, flushed on exit. The store is salted
                     with the policy fingerprint, so changing --k1/--k2/
                     --theta/--prefilter cold-starts it instead of
                     serving stale entries. Implies a cache (default
                     --cache-bytes 67108864)
  --session <file>   replay a JSON-lines request file through the
                     fpserved protocol, one response per line on stdout;
                     no <design> argument is needed in this mode

observability options:
  --trace <path>     write the run's structured event stream as JSON
                     lines (join/selection/cache/rescue events)
  --profile          print a per-phase wall-time tree with % shares
                     (restructure / enumerate / selection / trace-back)

output options:
  --whitespace       polygonize the final layout and print the dead-space
                     distribution (region count, total, largest) and the
                     number of merged block outline rings
  --ascii            print the layout as ASCII art
  --svg <path>       write the layout as SVG
  --dot <path>       write the floorplan tree as Graphviz DOT
  --fpt <path>       write the instance back as .fpt (round-trip)

exit codes:
  0  success             4  budget exhausted / injected fault
  1  internal error      5  deadline exceeded or cancelled
  2  usage error         6  no implementation fits the outline
  3  bad input (unreadable or malformed instance)
";

struct Args {
    input: String,
    gen: Option<String>,
    n: usize,
    seed: u64,
    k1: Option<usize>,
    k2: Option<usize>,
    theta: f64,
    prefilter: Option<usize>,
    parallel: bool,
    threads: Option<usize>,
    memory: Option<usize>,
    deadline: Option<Duration>,
    auto_rescue: bool,
    inject_fault: Option<Vec<u64>>,
    outline: Option<fp_geom::Rect>,
    objective: fp_optimizer::Objective,
    netlist: Option<String>,
    nets: Option<usize>,
    net_seed: u64,
    alpha: Option<f64>,
    max_hpwl: Option<u64>,
    pareto: bool,
    anneal_chains: Option<usize>,
    anneal_moves: usize,
    anneal_seed: u64,
    init: fp_anneal::InitTopology,
    whitespace: bool,
    cache_bytes: Option<usize>,
    cache_file: Option<String>,
    session: Option<String>,
    trace: Option<String>,
    profile: bool,
    ascii: bool,
    svg: Option<String>,
    dot: Option<String>,
    fpt: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        gen: None,
        n: 8,
        seed: 1,
        k1: None,
        k2: None,
        theta: 1.0,
        prefilter: None,
        parallel: false,
        threads: None,
        memory: None,
        deadline: None,
        auto_rescue: false,
        inject_fault: None,
        outline: None,
        objective: fp_optimizer::Objective::MinArea,
        netlist: None,
        nets: None,
        net_seed: 1,
        alpha: None,
        max_hpwl: None,
        pareto: false,
        anneal_chains: None,
        anneal_moves: 2000,
        anneal_seed: 1,
        init: fp_anneal::InitTopology::default(),
        whitespace: false,
        cache_bytes: None,
        cache_file: None,
        session: None,
        trace: None,
        profile: false,
        ascii: false,
        svg: None,
        dot: None,
        fpt: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--k1" => args.k1 = Some(value("--k1")?.parse().map_err(|e| format!("--k1: {e}"))?),
            "--k2" => args.k2 = Some(value("--k2")?.parse().map_err(|e| format!("--k2: {e}"))?),
            "--theta" => {
                args.theta = value("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?;
            }
            "--prefilter" => {
                args.prefilter = Some(
                    value("--prefilter")?
                        .parse()
                        .map_err(|e| format!("--prefilter: {e}"))?,
                );
            }
            "--memory" | "--max-impls" => {
                args.memory = Some(value(arg)?.parse().map_err(|e| format!("{arg}: {e}"))?);
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|e| format!("--deadline: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!(
                        "--deadline expects a non-negative number of seconds, found {secs}"
                    ));
                }
                args.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--auto-rescue" => args.auto_rescue = true,
            "--inject-fault" => {
                let v = value("--inject-fault")?;
                let points: Result<Vec<u64>, _> =
                    v.split(',').map(|p| p.trim().parse::<u64>()).collect();
                args.inject_fault = Some(points.map_err(|e| format!("--inject-fault: {e}"))?);
            }
            "--outline" => {
                let v = value("--outline")?;
                let (w, h) = v
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("--outline expects WxH, found {v}"))?;
                let w = w.parse().map_err(|e| format!("--outline width: {e}"))?;
                let h = h.parse().map_err(|e| format!("--outline height: {e}"))?;
                args.outline = Some(fp_geom::Rect::new(w, h));
            }
            "--objective" => {
                args.objective = match value("--objective")?.as_str() {
                    "area" => fp_optimizer::Objective::MinArea,
                    "hp" => fp_optimizer::Objective::MinHalfPerimeter,
                    other => return Err(format!("unknown objective `{other}` (area, hp)")),
                };
            }
            "--netlist" => args.netlist = Some(value("--netlist")?),
            "--nets" => {
                args.nets = Some(
                    value("--nets")?
                        .parse()
                        .map_err(|e| format!("--nets: {e}"))?,
                );
            }
            "--net-seed" => {
                args.net_seed = value("--net-seed")?
                    .parse()
                    .map_err(|e| format!("--net-seed: {e}"))?;
            }
            "--alpha" => {
                let a: f64 = value("--alpha")?
                    .parse()
                    .map_err(|e| format!("--alpha: {e}"))?;
                if !(0.0..=1.0).contains(&a) {
                    return Err(format!("--alpha expects a value in [0, 1], found {a}"));
                }
                args.alpha = Some(a);
            }
            "--max-hpwl" => {
                args.max_hpwl = Some(
                    value("--max-hpwl")?
                        .parse()
                        .map_err(|e| format!("--max-hpwl: {e}"))?,
                );
            }
            "--pareto" => args.pareto = true,
            "--anneal-chains" => {
                let chains: usize = value("--anneal-chains")?
                    .parse()
                    .map_err(|e| format!("--anneal-chains: {e}"))?;
                if !(1..=64).contains(&chains) {
                    return Err(format!(
                        "--anneal-chains expects a value in 1..=64, found {chains}"
                    ));
                }
                args.anneal_chains = Some(chains);
            }
            "--anneal-moves" => {
                args.anneal_moves = value("--anneal-moves")?
                    .parse()
                    .map_err(|e| format!("--anneal-moves: {e}"))?;
                if args.anneal_moves == 0 {
                    return Err("--anneal-moves expects at least one move".to_owned());
                }
            }
            "--anneal-seed" => {
                args.anneal_seed = value("--anneal-seed")?
                    .parse()
                    .map_err(|e| format!("--anneal-seed: {e}"))?;
            }
            "--init" => {
                args.init = fp_anneal::InitTopology::parse(&value("--init")?)
                    .map_err(|e| format!("--init: {e}"))?;
            }
            "--cache-bytes" => {
                args.cache_bytes = Some(
                    value("--cache-bytes")?
                        .parse()
                        .map_err(|e| format!("--cache-bytes: {e}"))?,
                );
            }
            "--cache-file" => args.cache_file = Some(value("--cache-file")?),
            "--session" => args.session = Some(value("--session")?),
            "--gen" => args.gen = Some(value("--gen")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--profile" => args.profile = true,
            "--parallel" => args.parallel = true,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--whitespace" => args.whitespace = true,
            "--ascii" => args.ascii = true,
            "--svg" => args.svg = Some(value("--svg")?),
            "--dot" => args.dot = Some(value("--dot")?),
            "--fpt" => args.fpt = Some(value("--fpt")?),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => {
                if !args.input.is_empty() {
                    return Err(format!("multiple inputs: {} and {other}", args.input));
                }
                args.input = other.to_owned();
            }
        }
    }
    if args.input.is_empty() && args.session.is_none() && args.gen.is_none() {
        return Err("missing input".to_owned());
    }
    if !args.input.is_empty() && args.gen.is_some() {
        return Err("--gen and a <design> input are mutually exclusive".to_owned());
    }
    if args.netlist.is_some() && args.nets.is_some() {
        return Err("--netlist and --nets are mutually exclusive".to_owned());
    }
    if args.nets == Some(0) {
        return Err("--nets expects at least one net".to_owned());
    }
    let wants_netlist = args.alpha.is_some() || args.max_hpwl.is_some() || args.pareto;
    if wants_netlist && args.netlist.is_none() && args.nets.is_none() {
        return Err("--alpha/--max-hpwl/--pareto need --netlist or --nets".to_owned());
    }
    if args.init != fp_anneal::InitTopology::default() && args.anneal_chains.is_none() {
        return Err(
            "--init selects the annealer's starting topology; it needs --anneal-chains".to_owned(),
        );
    }
    if args.anneal_chains.is_some() && (args.pareto || args.max_hpwl.is_some()) {
        return Err("--anneal-chains searches topologies for one objective; it does not combine with --pareto or --max-hpwl".to_owned());
    }
    Ok(args)
}

/// Parses a `--gen` spec (`mega:<modules>[,key=value...]`) into a
/// [`mega::MegaConfig`].
fn parse_mega_spec(spec: &str) -> Result<mega::MegaConfig, String> {
    let rest = spec
        .strip_prefix("mega:")
        .ok_or_else(|| format!("--gen expects mega:<modules>[,key=value...], found `{spec}`"))?;
    let mut parts = rest.split(',');
    let modules: usize = parts
        .next()
        .unwrap_or("")
        .trim()
        .parse()
        .map_err(|e| format!("--gen modules: {e}"))?;
    if modules == 0 {
        return Err("--gen expects at least one module".to_owned());
    }
    let mut cfg = mega::MegaConfig::new(modules);
    for part in parts {
        let (key, val) = part
            .split_once('=')
            .ok_or_else(|| format!("--gen expects key=value, found `{part}`"))?;
        let val = val.trim();
        match key.trim() {
            "profile" => cfg = cfg.with_profile(mega::DepthProfile::parse(val)?),
            "wheels" => {
                let d: f64 = val.parse().map_err(|e| format!("--gen wheels: {e}"))?;
                if !(0.0..=1.0).contains(&d) {
                    return Err(format!("--gen wheels expects a value in [0, 1], found {d}"));
                }
                cfg = cfg.with_wheel_density(d);
            }
            "impls" => {
                cfg = cfg.with_impls(val.parse().map_err(|e| format!("--gen impls: {e}"))?);
            }
            "seed" => cfg = cfg.with_seed(val.parse().map_err(|e| format!("--gen seed: {e}"))?),
            other => {
                return Err(format!(
                    "--gen: unknown key `{other}` (profile, wheels, impls, seed)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// Materializes a mega-family instance (tree + matched library).
fn mega_instance(cfg: &mega::MegaConfig) -> FloorplanInstance {
    let bench = mega::mega_floorplan(cfg);
    let library = mega::mega_library(&bench.tree, cfg);
    FloorplanInstance {
        name: bench.name,
        tree: bench.tree,
        library,
    }
}

fn load_instance(args: &Args) -> Result<FloorplanInstance, String> {
    if let Some(spec) = &args.gen {
        return parse_mega_spec(spec).map(|cfg| mega_instance(&cfg));
    }
    if let Some(name) = args.input.strip_prefix('@') {
        let bench = match name {
            "fig1" => generators::fig1(),
            "fp1" => generators::fp1(),
            "fp2" => generators::fp2(),
            "fp3" => generators::fp3(),
            "fp4" => generators::fp4(),
            "fp5" => return Ok(mega_instance(&mega::fp5_config())),
            "fp6" => return Ok(mega_instance(&mega::fp6_config())),
            "fp7" => return Ok(mega_instance(&mega::fp7_config())),
            "fp8" => return Ok(mega_instance(&mega::fp8_config())),
            "ami33" => {
                let (bench, library) = generators::ami33_like();
                return Ok(FloorplanInstance {
                    name: bench.name,
                    tree: bench.tree,
                    library,
                });
            }
            "ami49" => {
                let (bench, library) = generators::ami49_like();
                return Ok(FloorplanInstance {
                    name: bench.name,
                    tree: bench.tree,
                    library,
                });
            }
            other => {
                return Err(format!(
                    "unknown built-in @{other} (fig1, fp1..fp8, ami33, ami49)"
                ))
            }
        };
        let library = generators::module_library(&bench.tree, args.n, args.seed);
        Ok(FloorplanInstance {
            name: bench.name,
            tree: bench.tree,
            library,
        })
    } else {
        let text = std::fs::read_to_string(&args.input)
            .map_err(|e| format!("cannot read {}: {e}", args.input))?;
        parse_instance(&text).map_err(|e| format!("{}: {e}", args.input))
    }
}

/// The documented exit code for each optimizer error (see `USAGE`);
/// shared with `fpserved`'s per-request statuses.
fn exit_code_for(e: &OptError) -> u8 {
    fp_optimizer::serve::status_for(e)
}

/// Reads `--netlist <file>` or generates a `--nets` random netlist.
fn load_netlist(args: &Args, instance: &FloorplanInstance) -> Result<Option<Netlist>, String> {
    if let Some(path) = &args.netlist {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_netlist(&text)
            .map(Some)
            .map_err(|e| format!("{path}: {e}"))
    } else if let Some(nets) = args.nets {
        Ok(Some(random_netlist(&instance.library, nets, args.net_seed)))
    } else {
        Ok(None)
    }
}

/// Honours `--trace` / `--profile` for a drained event stream.
fn emit_observability(trace: &Trace, args: &Args) -> Result<(), ExitCode> {
    if let Some(path) = &args.trace {
        let mut buf: Vec<u8> = Vec::new();
        if let Err(e) = trace.write_jsonl(&mut buf) {
            eprintln!("fpopt: cannot render trace: {e}");
            return Err(ExitCode::FAILURE);
        }
        if let Err(e) = std::fs::write(path, buf) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!(
            "trace: wrote {} events to {path}{}",
            trace.events.len(),
            if trace.dropped > 0 {
                format!(" ({} dropped at capacity)", trace.dropped)
            } else {
                String::new()
            }
        );
    }
    if args.profile {
        eprint!("{}", trace.profile());
    }
    Ok(())
}

/// Replays a JSON-lines request file through the `fpserved` protocol
/// against a fresh session cache: one response per line on stdout. Later
/// requests reuse blocks committed by earlier ones. The exit code is the
/// highest per-request status seen, so scripted replays fail loudly.
fn replay_session(path: &str, cache_bytes: Option<usize>, cache_file: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fpopt: cannot read {path}: {e}");
            return ExitCode::from(3);
        }
    };
    let budget = cache_bytes.unwrap_or(64 << 20);
    let state = match cache_file {
        None => fp_optimizer::serve::ServeState::new(budget),
        // Replay-mode requests carry their own policies and block keys
        // already mix the policy fingerprint in, so a fixed salt is
        // correct here (same reasoning as fpserved's store).
        Some(dir) => {
            match fp_optimizer::cache::SharedBlockCache::open_persistent(
                std::path::Path::new(dir),
                budget,
                REPLAY_STORE_SALT,
            ) {
                Ok(cache) => {
                    eprintln!(
                        "fpopt: cache store {dir} replayed {} entries",
                        cache.recovery().recovered_entries
                    );
                    fp_optimizer::serve::ServeState::with_cache(cache)
                }
                Err(e) => {
                    eprintln!("fpopt: cannot open cache store: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    };
    // Session re-optimizations run as `JobClass::Session` work on the
    // same executor abstraction the server uses: requests lease spare
    // pool capacity for their tree splits, anneal lines fan their
    // chains out, and the replies are byte-identical to a serial run.
    let exec = Executor::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let state = state
        .with_executor(Arc::clone(&exec))
        .with_anneal_backend(fp_anneal::serve_backend());
    let mut worst = 0u8;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let reply = exec.run_scoped(JobClass::Session, || {
            fp_optimizer::serve::handle_line(line, index as u64 + 1, &state, None)
        });
        println!("{}", reply.json);
        worst = worst.max(reply.status);
        if reply.shutdown {
            break;
        }
    }
    exec.shutdown();
    if state.cache().is_persistent() {
        if let Err(e) = state.cache().flush() {
            eprintln!("fpopt: cache flush failed: {e}");
        }
    }
    ExitCode::from(worst)
}

/// `--whitespace`: one-line dead-space distribution of the verified
/// layout, from the scanline polygonizer.
fn print_whitespace(layout: &fp_tree::layout::Layout) {
    let poly = layout.polygonize();
    let ws = &poly.whitespace;
    println!(
        "whitespace: {} region(s), total {} ({:.1}% of envelope), largest {}; {} outline ring(s)",
        ws.count(),
        ws.total,
        100.0 * ws.total as f64 / layout.area().max(1) as f64,
        ws.largest(),
        poly.outlines.len()
    );
}

/// `--anneal-chains`: multi-start Wong–Liu topology search with the
/// configured area optimizer as the inner cost loop. Chains run as
/// [`JobClass::Anneal`] jobs on a dedicated executor and share the
/// session cache; the merge is deterministic at any thread count.
fn run_anneal(
    args: &Args,
    instance: &FloorplanInstance,
    config: OptimizeConfig,
    netlist: Option<Netlist>,
    cache: Option<&fp_optimizer::cache::SharedBlockCache>,
    chains: usize,
) -> ExitCode {
    let alpha = args.alpha.unwrap_or(1.0);
    let multi_config = MultiAnnealConfig {
        chains,
        base: AnnealConfig {
            moves: args.anneal_moves,
            seed: args.anneal_seed,
            init: args.init,
            optimizer: config,
            netlist,
            alpha,
            ..AnnealConfig::default()
        },
    };
    let exec = Executor::new(chains);
    println!(
        "anneal: {chains} chain(s) x {} moves, seed {}, {:?} start, {} executor thread(s)",
        args.anneal_moves,
        args.anneal_seed,
        args.init,
        exec.threads()
    );
    let result = anneal_multi(
        &instance.library,
        &multi_config,
        cache.map(|c| c as &(dyn BlockCache + Sync)),
        Some(&exec),
    );
    exec.shutdown();
    for (chain, area) in result.chain_areas.iter().enumerate() {
        println!(
            "  chain {chain}: area {area}{}",
            if chain == result.best_chain {
                "  <- best"
            } else {
                ""
            }
        );
    }
    let best = &result.best;
    let saved = best.initial_area.saturating_sub(best.best_area);
    println!(
        "initial area {} -> best area {} ({:.1}% saved), {}/{} moves accepted across chains",
        best.initial_area,
        best.best_area,
        100.0 * saved as f64 / best.initial_area.max(1) as f64,
        result.total_accepted,
        result.total_proposed
    );
    if let Some(hpwl) = best.best_hpwl {
        println!("wirelength: HPWL {hpwl} (alpha {alpha})");
    }
    println!("best topology: {}", best.expression);
    let layout = match realize(&best.tree, &instance.library, &best.assignment) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fpopt: internal error: annealed assignment does not realize: {e}");
            return ExitCode::FAILURE;
        }
    };
    debug_assert_eq!(layout.area(), best.best_area);
    println!(
        "verified layout: {} modules placed, dead space {} of {} ({:.1}%)",
        layout.placed.len(),
        layout.dead_space(),
        layout.area(),
        100.0 * layout.dead_space() as f64 / layout.area().max(1) as f64
    );
    if args.whitespace {
        print_whitespace(&layout);
    }
    if args.ascii {
        println!("\n{}", layout.to_ascii(72));
    }
    if let Some(path) = &args.svg {
        let svg = export::layout_to_svg(&layout, &best.tree, &instance.library, 800);
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.dot {
        let dot = export::tree_to_dot(&best.tree, &instance.library);
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(cache) = cache {
        if cache.is_persistent() {
            if let Err(e) = cache.flush() {
                eprintln!("fpopt: cache flush failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("fpopt: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    if let Some(path) = &args.session {
        return replay_session(path, args.cache_bytes, args.cache_file.as_deref());
    }

    let instance = match load_instance(&args) {
        Ok(i) => i,
        Err(msg) => {
            eprintln!("fpopt: {msg}");
            return ExitCode::from(3);
        }
    };
    println!(
        "instance {}: {} modules, {} tree nodes",
        instance.name,
        instance.tree.module_count(),
        instance.tree.len()
    );

    let netlist = match load_netlist(&args, &instance) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("fpopt: {msg}");
            return ExitCode::from(3);
        }
    };
    let bound = match &netlist {
        Some(netlist) => match netlist.bind(&instance.library) {
            Ok(bound) => Some(bound),
            Err(e) => {
                eprintln!("fpopt: netlist does not bind the instance: {e}");
                return ExitCode::from(3);
            }
        },
        None => None,
    };

    let mut config = OptimizeConfig::default()
        .with_objective(args.objective)
        .with_auto_rescue(args.auto_rescue)
        .with_deadline(args.deadline);
    if let Some(netlist) = &netlist {
        // Wirelength-aware runs get their own cache addresses: the salt
        // folds into the policy fingerprint, so a persistent store also
        // cold-starts when the netlist changes.
        config = config.with_extra_salt(netlist_fingerprint(netlist));
    }
    if let Some(threads) = args.threads {
        config = config.with_threads(threads);
    }
    if let Some(points) = &args.inject_fault {
        config = config.with_fault_plan(Some(FaultPlan::at_allocations(points)));
    }
    if let Some(outline) = args.outline {
        config = config.with_outline(outline);
    }
    if let Some(limit) = args.memory {
        config = config.with_memory_limit(Some(limit));
    }
    if let Some(k1) = args.k1 {
        config = config.with_r_selection(k1);
    }
    if let Some(k2) = args.k2 {
        let mut policy = LReductionPolicy::new(k2).with_theta(args.theta);
        if args.parallel {
            policy = policy.with_workers(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            );
        }
        if let Some(s) = args.prefilter {
            policy = policy.with_prefilter(s);
        }
        config = config.with_l_selection(policy);
    }

    if args.profile {
        // Echo the tree-aware scheduling resolution so "why didn't it
        // parallelize?" is visible next to the phase tree, and the task
        // size the pool cuts the tree with when it does.
        let modules = instance.tree.module_count();
        let eff = config.resolve_for(&instance.tree);
        let how = if config.auto_serial_for(modules) {
            " — auto-serial (tree below the split threshold)".to_owned()
        } else if eff.threads > 1 {
            format!(", task size {} nodes", config.task_size_for(modules))
        } else {
            String::new()
        };
        eprintln!("scheduling: {} thread(s){how}", eff.threads);
    }

    let cache = match &args.cache_file {
        None => args.cache_bytes.map(fp_optimizer::shared_cache),
        Some(dir) => {
            // Salted with the policy fingerprint: a warm store is only
            // replayed for the exact selection policies that wrote it.
            let salt = fp_optimizer::policy_fingerprint(&config);
            match fp_optimizer::cache::SharedBlockCache::open_persistent(
                std::path::Path::new(dir),
                args.cache_bytes.unwrap_or(64 << 20),
                salt,
            ) {
                Ok(cache) => {
                    let recovery = cache.recovery();
                    eprintln!(
                        "fpopt: cache store {dir} replayed {} entries ({} bytes)",
                        recovery.recovered_entries, recovery.recovered_bytes
                    );
                    Some(cache)
                }
                Err(e) => {
                    eprintln!("fpopt: cannot open cache store: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    };
    if let Some(chains) = args.anneal_chains {
        return run_anneal(
            &args,
            &instance,
            config,
            netlist.clone(),
            cache.as_ref(),
            chains,
        );
    }
    // The tracer is only subscribed (and only costs anything) when an
    // observability flag asks for the event stream.
    let tracer = if args.trace.is_some() || args.profile {
        Tracer::new()
    } else {
        Tracer::unsubscribed()
    };
    let mut optimizer = Optimizer::new(&instance.tree, &instance.library)
        .config(&config)
        .tracer(&tracer);
    if let Some(cache) = &cache {
        optimizer = optimizer.cache(cache);
    }
    // Pareto mode prints the whole non-dominated frontier and stops —
    // there is no single layout to verify or export.
    if args.pareto {
        let bound = bound.as_ref().expect("--pareto requires a netlist source");
        let result = optimizer.run_pareto(bound);
        let trace = tracer.drain();
        if let Err(code) = emit_observability(&trace, &args) {
            return code;
        }
        let pareto = match result {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fpopt: {e}");
                return ExitCode::from(exit_code_for(&e));
            }
        };
        println!(
            "pareto front: {} non-dominated of {} evaluated implementations",
            pareto.front.len(),
            pareto.evaluated
        );
        for p in &pareto.front {
            println!(
                "  [{:>3}] {:>6} x {:<6} area {:<12} hpwl {:<12}{}",
                p.index,
                p.width,
                p.height,
                p.area,
                p.hpwl,
                if p.fits { " fits-outline" } else { "" }
            );
        }
        let ref_area = pareto.front.iter().map(|p| p.area).max().unwrap_or(0) * 11 / 10 + 1;
        let ref_hpwl = pareto.front.iter().map(|p| p.hpwl).max().unwrap_or(0) * 11 / 10 + 1;
        println!(
            "hypervolume {:.6} (reference area {ref_area}, hpwl {ref_hpwl})",
            fp_optimizer::hypervolume(&pareto.front, ref_area, ref_hpwl)
        );
        if let Some(cache) = &cache {
            if cache.is_persistent() {
                if let Err(e) = cache.flush() {
                    eprintln!("fpopt: cache flush failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let (result, hpwl) = match &bound {
        Some(bound) => {
            let objective = match args.max_hpwl {
                Some(h) => CompositeObjective::epsilon(u128::from(h)),
                None => CompositeObjective::weighted(args.alpha.unwrap_or(1.0)),
            };
            match optimizer.run_composite(bound, objective) {
                Ok(multi) => {
                    let rescued = !multi.outcome.stats.degradations.is_empty();
                    (
                        Ok(RunOutcome {
                            outcome: multi.outcome,
                            rescued,
                        }),
                        Some(multi.hpwl),
                    )
                }
                Err(e) => (Err(e), None),
            }
        }
        None => (optimizer.run(), None),
    };
    let trace = tracer.drain();
    if let Err(code) = emit_observability(&trace, &args) {
        return code;
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fpopt: {e}");
            if matches!(e, OptError::OutOfMemory { .. }) {
                eprintln!(
                    "       try --k1/--k2 to enable the selection algorithms, or --auto-rescue"
                );
            }
            return ExitCode::from(exit_code_for(&e));
        }
    };
    if report.rescued {
        for event in report.degradations() {
            eprintln!("fpopt: rescue: {event}");
        }
        eprintln!(
            "fpopt: rescued after {} degradation(s); result is near-optimal under the final policies",
            report.degradations().len()
        );
    }
    let outcome = report.outcome;

    println!("optimal area {} as {}", outcome.area, outcome.root_impl);
    if let Some(hpwl) = hpwl {
        match args.max_hpwl {
            Some(limit) => println!("wirelength: HPWL {hpwl} (constraint <= {limit})"),
            None => println!(
                "wirelength: HPWL {hpwl} (alpha {})",
                args.alpha.unwrap_or(1.0)
            ),
        }
    }
    let layout = match realize(&instance.tree, &instance.library, &outcome.assignment) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fpopt: internal error: assignment does not realize: {e}");
            return ExitCode::FAILURE;
        }
    };
    debug_assert_eq!(layout.area(), outcome.area);
    println!(
        "verified layout: {} modules placed, dead space {} of {} ({:.1}%)",
        layout.placed.len(),
        layout.dead_space(),
        layout.area(),
        100.0 * layout.dead_space() as f64 / layout.area().max(1) as f64
    );
    if args.whitespace {
        print_whitespace(&layout);
    }
    println!(
        "stats: peak {} implementations (generated {}), {} R-reductions, {} L-reductions, {:?}",
        outcome.stats.peak_impls,
        outcome.stats.generated,
        outcome.stats.r_reductions,
        outcome.stats.l_reductions,
        outcome.stats.elapsed
    );
    if let Some(cache) = &cache {
        let cs = fp_optimizer::shared_cache_stats(cache);
        println!(
            "cache: {} hits, {} misses this run; {} insertions, {} evictions lifetime",
            outcome.stats.cache_hits, outcome.stats.cache_misses, cs.insertions, cs.evictions
        );
        if cache.is_persistent() {
            if let Err(e) = cache.flush() {
                eprintln!("fpopt: cache flush failed: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(ps) = cache.persist_stats() {
                println!(
                    "cache store: {} records appended, {} rotations, {} compactions",
                    ps.appended_records, ps.rotations, ps.compactions
                );
            }
        }
    }

    if args.ascii {
        println!("\n{}", layout.to_ascii(72));
    }
    if let Some(path) = &args.svg {
        let svg = export::layout_to_svg(&layout, &instance.tree, &instance.library, 800);
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.dot {
        let dot = export::tree_to_dot(&instance.tree, &instance.library);
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.fpt {
        let text = match fp_tree::format::write_instance(&instance) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("fpopt: cannot serialize instance: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("fpopt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
