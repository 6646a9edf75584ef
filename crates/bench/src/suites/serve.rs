//! `serve`: a mixed optimize/update/pareto/anneal workload replayed
//! through the `fpserved` protocol layer on the shared executor, one
//! `cell` row per executor width.
//!
//! **In-process mode** (default) builds the same stack the `fpserved`
//! binary runs (one `ServeState`, one executor, the real annealing
//! backend) and drives it closed-loop: `2 × threads` client threads,
//! each submitting its next request as a `JobClass::Serve` job and
//! waiting for the reply. Per thread count it reports throughput
//! (requests/s), the p50/p99/p999/max reply latency and the peak RSS
//! when the cell finished, and it asserts that every thread count
//! serves byte-identical areas.
//!
//! **TCP mode** (`--tcp ADDR`) replays the same workload closed-loop
//! over real sockets against an already-running `fpserved`; the
//! server's thread count is outside this process, so the sweep is a
//! single row.
//!
//! Gate: throughput at 4 executor threads must be ≥ 1.8× the 1-thread
//! figure; enforced on full in-process runs on hosts with ≥ 4 cores.
//! `--smoke` runs 40 requests at threads 1/2.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fp_optimizer::cache::SharedBlockCache;
use fp_optimizer::serve::{execute, parse_request, JsonObj, ServeState};
use fp_optimizer::{Executor, JobClass};

use crate::harness::{fixed, Gate, Run, Suite, SMOKE};

pub(crate) const SUITE: Suite = Suite {
    name: "serve",
    benchmark: "fpserved executor serving throughput",
    reps: 1,
    flags: &["--tcp"],
    constants: &["mode", "requests", "cache_bytes", "workload"],
    kinds: &[(
        "cell",
        &[
            "threads",
            "clients",
            "requests",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
            "errors",
            "shed",
            "peak_rss_bytes",
        ],
    )],
    gates: &["throughput_at_4_threads"],
    run,
};

/// Requests per sweep cell (smoke: [`SMOKE_REQUESTS`]).
const REQUESTS: usize = 400;
const SMOKE_REQUESTS: usize = 40;
/// Shared block-cache budget: the workload repeats instances, so the
/// steady state is cache-warm like a real server's.
const CACHE_BYTES: usize = 128 << 20;
/// Required throughput ratio, 4 executor threads over 1.
const THROUGHPUT_GATE: f64 = 1.8;

/// The mixed workload, deterministic in `total`: per 10 requests,
/// 5 optimizes cycling 3 warm instances, 2 "updates" (same benchmark,
/// shifted seed: an edited-design re-optimization), 1 pareto,
/// 1 anneal, 1 ping. Category per line is returned alongside it.
fn workload(total: usize) -> Vec<(&'static str, String)> {
    let mut lines = Vec::with_capacity(total);
    for i in 0..total {
        let line = match i % 10 {
            0 | 2 | 4 | 6 | 8 => {
                let seed = 1 + (i / 2) % 3;
                (
                    "optimize",
                    format!(
                        r#"{{"id": {i}, "method": "optimize", "builtin": "fp1", "n": 5, "seed": {seed}}}"#
                    ),
                )
            }
            1 | 5 => {
                let seed = 100 + i % 7;
                (
                    "update",
                    format!(
                        r#"{{"id": {i}, "method": "optimize", "builtin": "fp2", "n": 5, "seed": {seed}}}"#
                    ),
                )
            }
            3 => (
                "pareto",
                format!(
                    r#"{{"id": {i}, "method": "pareto", "builtin": "fp1", "n": 4, "nets": 8, "net_seed": {}}}"#,
                    1 + i % 3
                ),
            ),
            7 => (
                "anneal",
                format!(
                    r#"{{"id": {i}, "method": "anneal", "builtin": "fp1", "chains": 2, "moves": 30, "anneal_seed": {}}}"#,
                    1 + i % 2
                ),
            ),
            _ => ("ping", format!(r#"{{"id": {i}, "method": "ping"}}"#)),
        };
        lines.push(line);
    }
    lines
}

struct CellResult {
    threads: usize,
    clients: usize,
    elapsed_secs: f64,
    latencies_us: Vec<u64>,
    /// id -> area, for the cross-thread-count determinism check.
    areas: Vec<(u64, String)>,
    errors: usize,
    shed: usize,
}

impl CellResult {
    fn throughput_rps(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed_secs.max(1e-9)
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies_us.len() as f64 * q).ceil() as usize)
            .clamp(1, self.latencies_us.len());
        self.latencies_us[rank - 1] as f64 / 1e3
    }

    fn max_ms(&self) -> f64 {
        self.latencies_us.last().copied().unwrap_or(0) as f64 / 1e3
    }
}

fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
}

/// Per-run accumulator: (latencies µs, `(id, area)` pairs, errors, shed).
type LoopTally = (Vec<u64>, Vec<(u64, String)>, usize, usize);

/// Drives one closed-loop replay: `clients` worker threads pull the
/// next request off a shared cursor, call `serve` (which blocks until
/// the reply), and record the latency.
fn drive_closed_loop(
    lines: &[(&'static str, String)],
    threads: usize,
    clients: usize,
    serve: impl Fn(usize, &str) -> String + Sync,
) -> CellResult {
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<LoopTally> = Mutex::new((Vec::new(), Vec::new(), 0, 0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let cursor = &cursor;
            let collected = &collected;
            let serve = &serve;
            scope.spawn(move || {
                let mut latencies = Vec::new();
                let mut areas = Vec::new();
                let mut errors = 0usize;
                let mut shed = 0usize;
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= lines.len() {
                        break;
                    }
                    let (_, line) = &lines[index];
                    let sent = Instant::now();
                    let reply = serve(client, line);
                    latencies.push(sent.elapsed().as_micros() as u64);
                    let status: u64 = field(&reply, "status")
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(1);
                    match status {
                        0 => {
                            if let (Some(id), Some(area)) =
                                (field(&reply, "id"), field(&reply, "area"))
                            {
                                if let Ok(id) = id.trim().parse() {
                                    areas.push((id, area.trim().to_owned()));
                                }
                            }
                        }
                        7 => shed += 1,
                        _ => errors += 1,
                    }
                }
                let mut all = collected.lock().expect("collector");
                all.0.append(&mut latencies);
                all.1.append(&mut areas);
                all.2 += errors;
                all.3 += shed;
            });
        }
    });
    let elapsed_secs = started.elapsed().as_secs_f64();
    let (mut latencies_us, mut areas, errors, shed) =
        collected.into_inner().expect("collector settles");
    latencies_us.sort_unstable();
    areas.sort();
    CellResult {
        threads,
        clients,
        elapsed_secs,
        latencies_us,
        areas,
        errors,
        shed,
    }
}

/// One in-process sweep cell: fresh state, fresh cache, fresh executor
/// at `threads`; the workload replayed closed-loop by `2 × threads`
/// clients submitting `JobClass::Serve` jobs.
fn run_in_process(lines: &[(&'static str, String)], threads: usize) -> CellResult {
    let exec = Executor::new(threads);
    let state = Arc::new(
        ServeState::with_cache(SharedBlockCache::new(CACHE_BYTES))
            .with_executor(Arc::clone(&exec))
            .with_anneal_backend(fp_anneal::serve_backend()),
    );
    let clients = (threads * 2).clamp(2, 8);
    let cell = drive_closed_loop(lines, threads, clients, |_client, line| {
        let state = Arc::clone(&state);
        let line = line.to_owned();
        exec.submit(JobClass::Serve, move || {
            let request = parse_request(&line).expect("workload lines are well-formed");
            execute(&request, 1, &state, None).json
        })
        .join()
    });
    exec.shutdown();
    cell
}

/// TCP replay against an external `fpserved`: each client owns one
/// connection and runs the same closed loop over it.
fn run_tcp(lines: &[(&'static str, String)], addr: &str, clients: usize) -> CellResult {
    let streams: Vec<Mutex<(TcpStream, BufReader<TcpStream>)>> = (0..clients)
        .map(|_| {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("fpbench serve: cannot connect {addr}: {e}"));
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            Mutex::new((stream, reader))
        })
        .collect();
    drive_closed_loop(lines, 0, clients, |client, line| {
        let mut conn = streams[client].lock().expect("connection");
        // One write per request: a separate write for the newline would
        // sit in Nagle's buffer until the server's delayed ACK (~40 ms).
        conn.0
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
        let mut reply = String::new();
        conn.1.read_line(&mut reply).expect("reply line");
        reply
    })
}

fn run(run: &mut Run) {
    let total = if run.smoke { SMOKE_REQUESTS } else { REQUESTS };
    let lines = workload(total);
    let mut mix = JsonObj::new();
    for kind in ["optimize", "update", "pareto", "anneal", "ping"] {
        mix.u64(
            kind,
            lines.iter().filter(|(k, _)| *k == kind).count() as u64,
        );
    }
    let tcp = run.tcp.clone();
    run.constants(|envelope| {
        envelope
            .str("mode", if tcp.is_some() { "tcp" } else { "in-process" })
            .u64("requests", total as u64)
            .u64("cache_bytes", CACHE_BYTES as u64)
            .raw("workload", &mix.finish());
    });

    // Each cell's peak RSS is read as soon as it finishes.
    let mut cells: Vec<(CellResult, u64)> = Vec::new();
    match &tcp {
        Some(addr) => {
            run.progress(format_args!("replaying {total} requests against {addr}"));
            cells.push((run_tcp(&lines, addr, 4), run.peak_rss()));
        }
        None => {
            let sweep: &[usize] = if run.smoke { &[1, 2] } else { &[1, 2, 4] };
            for &threads in sweep {
                run.progress(format_args!(
                    "replaying {total} requests at {threads} executor thread(s)"
                ));
                cells.push((run_in_process(&lines, threads), run.peak_rss()));
            }
            // Every thread count must answer every successful request
            // with the same area.
            for (cell, _) in &cells[1..] {
                assert_eq!(
                    cell.areas, cells[0].0.areas,
                    "areas diverged between {} and {} executor threads",
                    cells[0].0.threads, cell.threads
                );
            }
        }
    }

    let base = cells[0].0.throughput_rps();
    let at4 = cells
        .iter()
        .find(|(c, _)| c.threads == 4)
        .map(|(c, _)| c.throughput_rps() / base.max(1e-9));
    for (c, peak_rss) in &cells {
        run.row("cell", |row| {
            row.u64("threads", c.threads as u64)
                .u64("clients", c.clients as u64)
                .u64("requests", c.latencies_us.len() as u64)
                .raw("throughput_rps", &fixed(c.throughput_rps(), 2))
                .raw("p50_ms", &fixed(c.quantile_ms(0.50), 3))
                .raw("p99_ms", &fixed(c.quantile_ms(0.99), 3))
                .raw("p999_ms", &fixed(c.quantile_ms(0.999), 3))
                .raw("max_ms", &fixed(c.max_ms(), 3))
                .u64("errors", c.errors as u64)
                .u64("shed", c.shed as u64)
                .u64("peak_rss_bytes", *peak_rss);
        });
    }
    run.gate(
        Gate::at_least("throughput_at_4_threads", THROUGHPUT_GATE, at4)
            .skip_if(run.smoke, SMOKE)
            .skip_if(
                tcp.is_some(),
                "--tcp: the server's thread count is outside this process",
            )
            .skip_if(run.cores < 4, format!("{} core(s), needs 4", run.cores)),
    );
}
