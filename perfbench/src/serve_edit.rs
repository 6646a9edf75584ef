//! `serve-edit`: what-if edits served by a real `fpserved` over TCP.
//!
//! The benchmark spawns `fpserved --tcp 127.0.0.1:0 --workers 2 --threads 1`
//! with a fixed cache budget and drives it closed-loop from two client
//! connections. Every request is an `optimize` with `"layout": true`
//! carrying the full `.fpt` text of an FP4 (N = 8) base design with exactly
//! one module's implementation list replaced. Edits never repeat within a
//! run and the bases are warmed in set-up, so every request hits the
//! unchanged blocks and rebuilds only the blocks on its module's root
//! path. The kernels do little here; JSON and `.fpt` parsing, the block
//! cache, layout realization and polygonization, reply encoding and the
//! event loop do the rest.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fp_optimizer::serve::{escape_json, execute, parse_json, parse_request, Json, ServeState};
use fp_optimizer::{shared_cache, OptimizeConfig, Optimizer};
use fp_prng::StdRng;
use fp_tree::format::{parse_instance, write_instance, FloorplanInstance};
use fp_tree::{generators, soft_module};

use crate::engine_layers::{lossless_tracer, EngineLayers};
use crate::measure::{self, SpanLog};
use crate::{Args, Report};

/// Implementations per module.
const N: usize = 8;
/// Base designs per run; request `i` edits base `i % BASES`.
const BASES: u64 = 4;
/// fpserved executor workers (its default of 4 is not used).
const WORKERS: usize = 2;
/// fpserved per-request tree parallelism (not taken from `$FP_THREADS`).
const SERVER_THREADS: usize = 1;
/// fpserved block-cache budget. The warm-up fills it, so the timed phase
/// runs at a steady size with evictions.
const CACHE_BYTES: usize = 8 << 20;
/// Client connections, one closed-loop caller each.
const CLIENTS: u64 = 2;
/// Edits each client sends during set-up, after the bases.
const WARM_EDITS: u64 = 16;
/// Set-up (spawn to warm) is repeated this many times per run and its
/// median reported: one spawn does not repeat within the metric's bound.
const SETUP_REPS: usize = 5;
/// Request lines replayed in-process by the traced run.
const REPLAY_LINES: usize = 200;
/// How long a client waits for one reply before counting the op failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One base design as `.fpt` lines, ready to splice an edit into.
struct Base {
    /// Lines of the base's `.fpt` text; line `1 + k` declares module `k`.
    lines: Vec<String>,
    modules: usize,
}

/// The deterministic edit stream of one run.
struct Edits {
    seed: u64,
    bases: Vec<Base>,
}

/// What one request carries: base `base` with module `module`'s
/// implementations replaced by `line`.
struct Edit {
    base: usize,
    module: usize,
    line: String,
}

impl Edits {
    fn new(seed: u64) -> Result<Self, String> {
        let bench = generators::fp4();
        let bases = (0..BASES)
            .map(|b| {
                let lib_seed = measure::derive_seed(seed, 0x6261_7365, b);
                let library = generators::module_library(&bench.tree, N, lib_seed);
                let text = write_instance(&FloorplanInstance {
                    name: format!("FP4-N{N}-base{lib_seed}"),
                    tree: bench.tree.clone(),
                    library,
                })
                .map_err(|e| format!("base {b}: {e}"))?;
                Ok(Base {
                    lines: text.lines().map(str::to_owned).collect(),
                    modules: bench.tree.module_count(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Edits { seed, bases })
    }

    fn edit(&self, index: u64) -> Edit {
        let base = (index % BASES) as usize;
        let mut rng = StdRng::seed_from_u64(measure::derive_seed(self.seed, 0x6564_6974, index));
        let module = rng.gen_range(0..self.bases[base].modules);
        let area = rng.gen_range(40..400u64);
        let replacement = soft_module(format!("m{module}"), area, 4.0, N, &mut rng);
        let mut line = format!("module m{module}");
        for r in replacement.implementations().iter() {
            line.push_str(&format!(" {}x{}", r.w, r.h));
        }
        Edit { base, module, line }
    }

    /// The `.fpt` text of base `base`, with `edit` spliced in when given.
    fn text(&self, base: usize, edit: Option<&Edit>) -> String {
        let b = &self.bases[base];
        let mut out = String::with_capacity(b.lines.iter().map(|l| l.len() + 1).sum());
        for (i, line) in b.lines.iter().enumerate() {
            match edit {
                Some(e) if i == e.module + 1 => out.push_str(&e.line),
                _ => out.push_str(line),
            }
            out.push('\n');
        }
        out
    }

    /// The `.fpt` text of edit `index`.
    fn fpt(&self, index: u64) -> String {
        let edit = self.edit(index);
        self.text(edit.base, Some(&edit))
    }

    /// The `.fpt` text of base `base`.
    fn base_fpt(&self, base: usize) -> String {
        self.text(base, None)
    }

    /// The request line of edit `index` (no trailing newline).
    fn request(&self, index: u64) -> String {
        let text = escape_json(&self.fpt(index));
        format!(r#"{{"id":{index},"method":"optimize","layout":true,"instance":"{text}"}}"#)
    }

    /// The request line optimizing base `base` unchanged.
    fn base_request(&self, base: usize) -> String {
        let text = escape_json(&self.base_fpt(base));
        format!(r#"{{"id":"base{base}","method":"optimize","layout":true,"instance":"{text}"}}"#)
    }
}

/// A spawned fpserved, killed and reaped on drop if still running.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(args: &Args) -> Result<Server, String> {
        let mut child = Command::new(&args.fpserved)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--threads",
                &SERVER_THREADS.to_string(),
                "--cache-bytes",
                &CACHE_BYTES.to_string(),
            ])
            .env_remove("FP_THREADS")
            .env_remove("FP_LRED_WORKERS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.fpserved.display()))?;
        let stderr = child.stderr.take().ok_or("fpserved stderr not captured")?;
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the server's whole life so it never blocks on
        // a full pipe; the first line names the listening address.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("fpserved: listening on ") {
                    let _ = tx.send(addr.trim().to_owned());
                } else {
                    eprintln!("{line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "fpserved did not report a listening address".to_owned())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("fpserved address {addr}: {e}"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr)?;
        client.call(r#"{"id":"bye","method":"shutdown"}"#)?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("fpserved exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("fpserved did not exit after shutdown".to_owned()),
                Err(e) => return Err(format!("waiting for fpserved: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection speaking the JSON-lines protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A server that stops answering fails the op instead of hanging
        // the run.
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line and reads the whole reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// Sends `line` and requires a status-0 reply.
fn call_ok(client: &mut Client, line: &str) -> Result<Json, String> {
    let reply = client.call(line)?;
    let doc = parse_json(&reply).map_err(|e| format!("reply is not JSON: {}", e.message))?;
    match field_u64(&doc, "status") {
        Some(0) => Ok(doc),
        _ => Err(format!("request failed: {}", reply.trim_end())),
    }
}

/// A running, warmed server with its client connections.
struct Session {
    server: Server,
    clients: Vec<Client>,
    spawn: Duration,
}

impl Session {
    /// Closes the client connections, then shuts the server down.
    fn close(self) -> Result<(), String> {
        drop(self.clients);
        self.server.shutdown()
    }
}

/// Spawns a server, connects the clients and warms the cache: every base
/// once, then [`WARM_EDITS`] edits per client.
fn set_up(args: &Args, edits: &Edits) -> Result<Session, String> {
    let t = Instant::now();
    let server = Server::spawn(args)?;
    let spawn = t.elapsed();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    for b in 0..BASES as usize {
        call_ok(&mut clients[0], &edits.base_request(b))?;
    }
    for (c, client) in clients.iter_mut().enumerate() {
        for j in 0..WARM_EDITS {
            call_ok(client, &edits.request(c as u64 + CLIENTS * j))?;
        }
    }
    Ok(Session {
        server,
        clients,
        spawn,
    })
}

/// The first edit index of the timed phase.
const FIRST_TIMED: u64 = CLIENTS * WARM_EDITS;

/// One timed request as the client saw it.
struct Sample {
    index: u64,
    latency: Duration,
    /// The client recorded a span for this request.
    traced: bool,
    reply: Result<String, String>,
}

/// One client's closed loop until `deadline`; spans are recorded on every
/// other request when `trace` is set.
fn client_loop(
    c: u64,
    client: &mut Client,
    edits: &Edits,
    deadline: Instant,
    start: &Barrier,
    trace: bool,
    spans: &mut SpanLog,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    start.wait();
    let mut j = 0u64;
    while Instant::now() < deadline {
        let index = FIRST_TIMED + c + CLIENTS * j;
        let line = edits.request(index);
        let t = Instant::now();
        let reply = client.call(&line);
        let latency = t.elapsed();
        let traced = trace && j % 2 == 1;
        if traced {
            spans.record("fpserved.round_trip", index, None, t, latency);
        }
        let failed = reply.is_err();
        samples.push(Sample {
            index,
            latency,
            traced,
            reply,
        });
        if failed {
            break;
        }
        j += 1;
    }
    samples
}

/// What one checked reply gave.
struct Checked {
    ok: bool,
    hits: u64,
    misses: u64,
    dropped: u64,
}

/// Replies whose area is also compared with an uncached exact run. The
/// rest are compared with an in-process exact run against the checker's
/// own warm block cache, which is much cheaper; this sample shows that
/// the cached and uncached runs agree on this run's edits.
const UNCACHED_CHECKS: usize = 128;

/// Checks every sample outside the clock: status 0, the echoed id, and
/// an area equal to an in-process exact run of the same edited design.
fn check_all(edits: &Edits, samples: &[Sample]) -> Result<Vec<Checked>, String> {
    let cache = shared_cache(CACHE_BYTES);
    let config = OptimizeConfig::default().with_threads(1);
    let exact = |text: &str, cached: bool| -> Option<u128> {
        let instance = parse_instance(text).ok()?;
        let optimizer = Optimizer::new(&instance.tree, &instance.library).config(&config);
        let optimizer = if cached {
            optimizer.cache(&cache)
        } else {
            optimizer
        };
        optimizer.run_best().ok().map(|o| o.area)
    };
    for b in 0..BASES as usize {
        exact(&edits.base_fpt(b), true)
            .ok_or_else(|| format!("checker warm-up of base {b} failed"))?;
    }
    let check = |k: usize, s: &Sample| -> Checked {
        let mut out = Checked {
            ok: false,
            hits: 0,
            misses: 0,
            dropped: 0,
        };
        let Ok(reply) = &s.reply else { return out };
        let Ok(doc) = parse_json(reply) else {
            return out;
        };
        let Some(summary) = doc.get("trace_summary") else {
            return out;
        };
        out.hits = field_u64(summary, "cache_hits").unwrap_or(0);
        out.misses = field_u64(summary, "cache_misses").unwrap_or(0);
        out.dropped = field_u64(summary, "dropped").unwrap_or(0);
        if field_u64(&doc, "status") != Some(0) || field_u64(&doc, "id") != Some(s.index) {
            return out;
        }
        let Some(area) = field_u64(&doc, "area").map(u128::from) else {
            return out;
        };
        let text = edits.fpt(s.index);
        out.ok = exact(&text, true) == Some(area)
            && (k >= UNCACHED_CHECKS || exact(&text, false) == Some(area));
        out
    };
    // Two checker threads take alternate samples.
    let mut results: Vec<Option<Checked>> = samples.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let check = &check;
                scope.spawn(move || {
                    samples
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(2)
                        .map(|(k, s)| (k, check(k, s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (k, c) in h.join().expect("checker thread panicked") {
                results[k] = Some(c);
            }
        }
    });
    Ok(results.into_iter().flatten().collect())
}

/// Cache counters from a `stats` reply: (bytes, evictions, shed).
fn stats(client: &mut Client) -> Result<(u64, u64, u64), String> {
    let doc = call_ok(client, r#"{"id":"stats","method":"stats"}"#)?;
    Ok((
        field_u64(&doc, "cache_bytes").unwrap_or(0),
        field_u64(&doc, "cache_evictions").unwrap_or(0),
        field_u64(&doc, "shed").unwrap_or(0),
    ))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let edits = Edits::new(args.seed)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut spawns = Vec::with_capacity(SETUP_REPS);
    let mut session: Option<Session> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = session.take() {
            previous.close()?;
        }
        let t = Instant::now();
        let s = set_up(args, &edits)?;
        setups.push(t.elapsed().as_secs_f64());
        spawns.push(measure::ms(s.spawn));
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;
    let pid = session.server.pid();
    let (_, evictions0, shed0) = stats(&mut session.clients[0])?;

    let epoch = Instant::now();
    let barrier = Barrier::new(session.clients.len() + 1);
    measure::reset_peak_rss(pid)?;
    let cpu0 = measure::cpu_seconds(pid)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut samples, spans, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (edits, barrier) = (&edits, &barrier);
                scope.spawn(move || {
                    let mut spans = SpanLog::new(epoch);
                    let samples = client_loop(
                        c as u64, client, edits, deadline, barrier, args.trace, &mut spans,
                    );
                    (samples, spans)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut all = Vec::new();
        let mut log = SpanLog::new(epoch);
        for h in handles {
            let (samples, spans) = h.join().expect("client thread panicked");
            all.extend(samples);
            log.absorb(spans);
        }
        (all, log, start)
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = measure::cpu_seconds(pid)? - cpu0;
    let peak_rss = measure::peak_rss_mib(pid)?;
    let (cache_bytes, evictions1, shed1) = stats(&mut session.clients[0])?;
    session.close()?;

    samples.sort_by_key(|s| s.index);
    let t = Instant::now();
    let checked = check_all(&edits, &samples)?;
    eprintln!(
        "perfbench: serve-edit checked {} replies in {:.1} s",
        checked.len(),
        t.elapsed().as_secs_f64()
    );
    let attempted = samples.len() as u64;
    let failed = checked.iter().filter(|c| !c.ok).count() as u64;
    let ok_ms: Vec<f64> = samples
        .iter()
        .zip(&checked)
        .filter(|(_, c)| c.ok)
        .map(|(s, _)| measure::ms(s.latency))
        .collect();
    let tail = measure::tail(&ok_ms, failed as usize);
    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0 && attempted > 0,
        ..Report::default()
    };
    report.info = vec![
        ("bases", BASES.to_string()),
        ("n", N.to_string()),
        ("clients", CLIENTS.to_string()),
        ("workers", WORKERS.to_string()),
        ("server_threads", SERVER_THREADS.to_string()),
        ("cache_bytes_budget", CACHE_BYTES.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("tail_percentile", format!("{:.3}", tail.percentile)),
        ("tail_samples", tail.samples.to_string()),
        ("area_excess_pct", "0".to_owned()),
    ];
    if !args.trace {
        report.metrics = vec![
            ("setup_s", measure::median(&setups)),
            ("ops_per_s", (attempted - failed) as f64 / wall),
            ("p50_ms", measure::median(&ok_ms)),
            ("tail_ms", tail.ms),
            ("cpu_ms_per_op", 1e3 * cpu / attempted.max(1) as f64),
            ("peak_rss_mb", peak_rss),
            // Exact: any area other than the optimum is a failed op.
            ("area_pct_of_opt", 100.0),
        ];
        return Ok(report);
    }

    // Traced run: replay the first request lines in-process, once through
    // the serve layer and once through the calls it makes, each against
    // state warmed like the server's.
    let dropped: u64 = checked.iter().map(|c| c.dropped).sum();
    let hits: u64 = checked.iter().map(|c| c.hits).sum();
    let misses: u64 = checked.iter().map(|c| c.misses).sum();
    let replay: Vec<u64> = samples.iter().take(REPLAY_LINES).map(|s| s.index).collect();
    let mut spans = spans;
    let mut layers = EngineLayers::new(SERVER_THREADS);
    let (request_kb, reply_kb) = replay_serve(&edits, &replay, &mut spans)?;
    replay_calls(&edits, &replay, &mut spans, &mut layers)?;
    if dropped > 0 || layers.dropped() > 0 {
        report.correct = false;
        eprintln!(
            "perfbench: traces dropped {dropped} events in replies, {} in replay",
            layers.dropped()
        );
    }
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for (s, _) in samples.iter().zip(&checked).filter(|(_, c)| c.ok) {
        if s.traced {
            traced_ms.push(measure::ms(s.latency));
        } else {
            untraced_ms.push(measure::ms(s.latency));
        }
    }
    let (traced_p50, untraced_p50) = (measure::median(&traced_ms), measure::median(&untraced_ms));
    let parse_ms = spans.mean_ms("serve.parse_request");
    let execute_ms = spans.mean_ms("serve.execute");
    let children = spans.mean_ms("tree.parse")
        + spans.mean_ms("engine.run_best")
        + spans.mean_ms("layout.realize")
        + spans.mean_ms("geom.polygonize");
    let fpt_bytes: usize = replay.iter().map(|&i| edits.fpt(i).len()).sum();
    // The server's own cache counters replace those of the replay's cache.
    report.metrics = layers.metrics(&spans);
    report.metrics.retain(|(n, _)| !n.starts_with("cache."));
    report.metrics.extend([
        ("tree.parse_ms", spans.mean_ms("tree.parse")),
        (
            "tree.parse_mb_per_s",
            fpt_bytes as f64 / 1e6 / (spans.durations_ms("tree.parse").iter().sum::<f64>() / 1e3),
        ),
        ("cache.hits", hits as f64 / attempted.max(1) as f64),
        ("cache.misses", misses as f64 / attempted.max(1) as f64),
        (
            "cache.hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
        ("cache.bytes", cache_bytes as f64),
        (
            "cache.evictions",
            evictions1.saturating_sub(evictions0) as f64,
        ),
        ("serve.parse_request_ms", parse_ms),
        ("serve.execute_ms", execute_ms),
        ("serve.request_kb", request_kb),
        ("serve.reply_kb", reply_kb),
        ("layout.realize_ms", spans.mean_ms("layout.realize")),
        ("geom.polygonize_ms", spans.mean_ms("geom.polygonize")),
        (
            "fpserved.front_ms",
            measure::mean(&ok_ms) - parse_ms - execute_ms,
        ),
        ("fpserved.spawn_ms", measure::median(&spawns)),
        ("fpserved.shed", shed1.saturating_sub(shed0) as f64),
        (
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        ),
        ("trace.dropped", (dropped + layers.dropped()) as f64),
        ("unattributed_ms", execute_ms - children),
    ]);
    crate::write_spans(args, &spans, &mut report)?;
    Ok(report)
}

/// Warms a fresh in-process [`ServeState`] like the server, then times
/// `parse_request` and `execute` on each replayed line. Returns the mean
/// request and reply sizes in KiB.
fn replay_serve(edits: &Edits, replay: &[u64], spans: &mut SpanLog) -> Result<(f64, f64), String> {
    let state = ServeState::new(CACHE_BYTES).with_threads(SERVER_THREADS);
    let warm = (0..BASES as usize)
        .map(|b| edits.base_request(b))
        .chain((0..FIRST_TIMED).map(|i| edits.request(i)));
    for (n, line) in warm.enumerate() {
        let request = parse_request(&line).map_err(|e| format!("warm line {n}: {e:?}"))?;
        let reply = execute(&request, n as u64 + 1, &state, None);
        if reply.status != 0 {
            return Err(format!("in-process warm-up failed: {}", reply.json));
        }
    }
    let (mut request_bytes, mut reply_bytes) = (0usize, 0usize);
    for &index in replay {
        let line = edits.request(index);
        let t = Instant::now();
        let request = parse_request(&line).map_err(|e| format!("replay {index}: {e:?}"))?;
        spans.record("serve.parse_request", index, None, t, t.elapsed());
        let t = Instant::now();
        let reply = execute(&request, index, &state, None);
        spans.record("serve.execute", index, None, t, t.elapsed());
        if reply.status != 0 {
            return Err(format!("in-process replay failed: {}", reply.json));
        }
        request_bytes += line.len() + 1;
        reply_bytes += reply.json.len() + 1;
    }
    let n = replay.len().max(1) as f64;
    Ok((
        request_bytes as f64 / n / 1024.0,
        reply_bytes as f64 / n / 1024.0,
    ))
}

/// Times the calls one served edit makes — `.fpt` parsing, the cached
/// optimize (traced), layout realization and polygonization — on the
/// replayed edits, against a block cache warmed like the server's.
fn replay_calls(
    edits: &Edits,
    replay: &[u64],
    spans: &mut SpanLog,
    layers: &mut EngineLayers,
) -> Result<(), String> {
    let cache = shared_cache(CACHE_BYTES);
    let config = OptimizeConfig::default().with_threads(SERVER_THREADS);
    let warm = (0..BASES as usize)
        .map(|b| edits.base_fpt(b))
        .chain((0..FIRST_TIMED).map(|i| edits.fpt(i)));
    for text in warm {
        let instance = parse_instance(&text).map_err(|e| format!("warm design: {e}"))?;
        Optimizer::new(&instance.tree, &instance.library)
            .config(&config)
            .cache(&cache)
            .run_best()
            .map_err(|e| format!("warm design: {e}"))?;
    }
    for &index in replay {
        let text = edits.fpt(index);
        let t = Instant::now();
        let instance = parse_instance(&text).map_err(|e| format!("replay {index}: {e}"))?;
        spans.record("tree.parse", index, None, t, t.elapsed());
        let tracer = lossless_tracer();
        let t = Instant::now();
        let outcome = Optimizer::new(&instance.tree, &instance.library)
            .config(&config)
            .cache(&cache)
            .tracer(&tracer)
            .run_best()
            .map_err(|e| format!("replay {index}: {e}"))?;
        let span = spans.record("engine.run_best", index, None, t, t.elapsed());
        layers.add(&tracer.drain(), &outcome.stats, spans, index, span, t);
        let t = Instant::now();
        let layout =
            fp_tree::layout::realize(&instance.tree, &instance.library, &outcome.assignment)
                .map_err(|e| format!("replay {index}: {e}"))?;
        spans.record("layout.realize", index, None, t, t.elapsed());
        let t = Instant::now();
        let whitespace = layout.whitespace();
        let polygons = layout.polygonize();
        spans.record("geom.polygonize", index, None, t, t.elapsed());
        std::hint::black_box((whitespace, polygons));
    }
    Ok(())
}
