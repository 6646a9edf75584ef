//! `fpserved` — JSON-lines batch server for floorplan optimization,
//! built as a nonblocking event loop in front of the shared job
//! executor.
//!
//! ```sh
//! fpserved --workers 4 < requests.jsonl > responses.jsonl
//! fpserved --tcp 127.0.0.1:7878 --cache-bytes 134217728
//! ```
//!
//! One request per line, one response per line (see
//! `fp_optimizer::serve` for the protocol). All requests — across
//! stdin and every TCP connection — share one content-addressed block
//! cache, so repeated or incrementally edited instances are optimized
//! from warm subtrees. Responses may arrive out of request order; they
//! carry the echoed `id` and the request's `line` for correlation.
//!
//! ## Architecture
//!
//! A single event-loop thread multiplexes the listener and every
//! connection through `poll(2)` — no thread per connection. Complete
//! request lines are parsed on the loop, admission-checked, and
//! submitted as jobs to one executor, whose workers take them from one
//! FIFO queue. A request that splits its tree at `threads` n runs on
//! its executor worker plus n − 1 helpers leased from the pool's spare
//! capacity. Workers
//! hand finished replies back over a channel and wake the loop through
//! a socketpair; the loop owns all socket writes, buffering partial
//! writes until the peer drains them.
//!
//! Per-request `deadline_ms` is enforced twice: the optimizer's
//! governor checks the wall clock itself, and the executor's watchdog
//! additionally fires the request's `CancelToken` so even a stage that
//! misses a poll window is interrupted. Either way the response status
//! is 5 and the server keeps running.
//!
//! A `{"method": "shutdown"}` request (or stdin EOF) drains: no new
//! work is accepted, in-flight requests finish and their responses are
//! written, then the process exits 0.
//!
//! The TCP port doubles as a Prometheus scrape target: a connection
//! whose first line is `GET /metrics ...` receives a one-shot HTTP
//! response with the text exposition of the server's counters (the
//! same numbers as the JSON `{"method": "metrics"}` request) and is
//! then closed.

use std::collections::HashMap;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_ulong;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use fp_optimizer::serve::{
    error_reply, execute, idle_timeout_reply, parse_request, shed_reply, Method, Reply, Request,
    ServeState,
};
use fp_optimizer::{cache::SharedBlockCache, CancelToken, Executor, JobClass};

const USAGE: &str = "\
usage: fpserved [options]

  --tcp <addr>           serve JSON-lines over TCP (e.g. 127.0.0.1:7878);
                         without it, requests are read from stdin and
                         responses written to stdout
  --workers <n>          executor worker threads (default 4): concurrent
                         jobs across requests and anneal chains
  --threads <n>          per-request tree-parallelism default (0 = all
                         cores; default $FP_THREADS or 1); a request's own
                         `threads` field overrides it. Spare executor
                         capacity is leased per run, so the pool never
                         oversubscribes past --workers by much
  --cache-bytes <n>      block-cache byte budget (default 67108864)
  --cache-file <dir>     persist the block cache to an append-only
                         segment store in <dir>; replayed on startup
                         (warm restarts), flushed on drain
  --max-inflight <n>     admission limit: optimize requests beyond <n>
                         queued + executing are shed with status 7
                         (default 0 = unlimited)
  --queue-deadline-ms <n>  shed queued optimize requests older than this
                         at dequeue instead of running them late
                         (default 0 = off)
  --idle-timeout-ms <n>  close TCP connections idle past this, after a
                         clean `timeout` status line (default 60000;
                         0 = off)
  --max-conns <n>        bound concurrent TCP connections; excess
                         connections get one status-7 line and are
                         closed (default 0 = unlimited)

protocol: one JSON request per line; see the README's fpserved section.
observability: `{\"method\": \"metrics\"}` returns the server counters;
with --tcp, an HTTP `GET /metrics` on the same port returns the
Prometheus text exposition (cache, persistence, executor, and overload
gauges included).
statuses reuse the fpopt exit-code contract:
  0 success             4  budget exhausted / injected fault
  1 internal error      5  deadline exceeded or cancelled
  2 malformed request   6  no implementation fits the outline
  3 bad instance        7  overloaded: shed before execution, retry ok
";

const DEFAULT_CACHE_BYTES: usize = 64 << 20;
const DEFAULT_IDLE_TIMEOUT_MS: u64 = 60_000;
/// Event-loop poll window: long enough to idle cheaply, short enough
/// that idle-timeout and drain checks stay responsive.
const POLL_TIMEOUT_MS: i32 = 50;

/// Fixed salt for the server's persistent store. Block fingerprints
/// already mix in the per-request [`fp_optimizer::policy_fingerprint`],
/// so one store safely serves requests with different policies; the
/// salt only isolates fpserved stores from other tools' stores.
const STORE_SALT: u128 = 0x6670_7365_7276_6564_2f73_746f_7265_2f31; // "fpserved/store/1"

// ---------------------------------------------------------------------------
// poll(2)
// ---------------------------------------------------------------------------

/// `struct pollfd` (POSIX layout; the kernel writes `revents` only).
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: i32) -> i32;
}

/// Blocks until any fd is ready or the timeout passes. An interrupted
/// or failed wait is reported as "nothing ready"; the caller's loop
/// re-derives interest from its own state every pass, so that is safe.
fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    // SAFETY: `fds` is an exclusive slice of `pollfd`-layout structs,
    // valid for the duration of the call; poll(2) writes only the
    // `revents` fields within the passed length.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    usize::try_from(ready).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
    tcp: Option<String>,
    workers: usize,
    threads: Option<usize>,
    cache_bytes: usize,
    cache_file: Option<PathBuf>,
    max_inflight: u64,
    queue_deadline: Option<Duration>,
    idle_timeout_ms: u64,
    max_conns: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        workers: 4,
        threads: None,
        cache_bytes: DEFAULT_CACHE_BYTES,
        cache_file: None,
        max_inflight: 0,
        queue_deadline: None,
        idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
        max_conns: 0,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--cache-bytes" => {
                args.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?;
            }
            "--cache-file" => {
                args.cache_file = Some(PathBuf::from(value("--cache-file")?));
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--queue-deadline-ms" => {
                let ms: u64 = value("--queue-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--queue-deadline-ms: {e}"))?;
                args.queue_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Request execution on the executor
// ---------------------------------------------------------------------------

fn heavy(request: &Request) -> bool {
    matches!(
        request.method,
        Method::Optimize(_) | Method::Pareto(_) | Method::Anneal(_)
    )
}

/// The request's own `deadline_ms`, when its method carries one.
fn request_deadline(request: &Request) -> Option<Duration> {
    match &request.method {
        Method::Optimize(req) | Method::Pareto(req) => req.deadline_ms.map(Duration::from_millis),
        _ => None,
    }
}

/// A heavy job's admission slot: when it entered the queue and how
/// stale it may get before being shed at dequeue. `None` for control
/// methods, which bypass admission entirely.
struct QueueSlot {
    enqueued: Instant,
    deadline: Option<Duration>,
}

/// Runs one request on an executor worker and returns the rendered
/// reply. A `Some` slot is the job's in-flight admission, released
/// here exactly once — shed or executed.
fn service_request(
    request: &Request,
    line: &str,
    line_no: u64,
    state: &ServeState,
    cancel: CancelToken,
    slot: Option<QueueSlot>,
) -> Reply {
    // Queue-deadline shedding: a job that waited longer than the client
    // plausibly still cares about is answered with status 7 at dequeue
    // instead of burning a worker on a stale request.
    if let Some(slot) = &slot {
        if slot.deadline.is_some_and(|d| slot.enqueued.elapsed() > d) {
            state.note_shed();
            state.finish_job();
            return shed_reply(line, line_no, "queue_deadline");
        }
    }
    let reply = execute(request, line_no, state, Some(cancel));
    if slot.is_some() {
        state.finish_job();
    }
    reply
}

/// One parsed line's disposition at the event loop / reader.
enum Disposition {
    /// Reply rendered inline (parse error or admission shed).
    Inline(Reply),
    /// Job submitted to the executor; the reply arrives via the
    /// submitting mode's delivery channel.
    Submitted,
}

/// Parses, admission-checks, and (when admitted) submits one request
/// line. `deliver` is invoked exactly once from an executor worker
/// with the finished reply for submitted lines.
fn dispatch_line(
    line: String,
    line_no: u64,
    state: &Arc<ServeState>,
    exec: &Arc<Executor>,
    queue_deadline: Option<Duration>,
    deliver: impl FnOnce(Reply) + Send + 'static,
) -> Disposition {
    let request = match parse_request(&line) {
        Err(e) => return Disposition::Inline(error_reply(line_no, &e)),
        Ok(request) => request,
    };
    // Control methods (ping/stats/metrics/shutdown) always pass — they
    // are cheap, and a drain request must get through even under flood;
    // only optimize/pareto/anneal lines consume admission slots.
    let admitted = heavy(&request);
    if admitted && !state.try_admit() {
        state.note_shed();
        exec.note_shed("queue_full");
        return Disposition::Inline(shed_reply(&line, line_no, "queue_full"));
    }
    let cancel = CancelToken::new();
    let deadline = request_deadline(&request).map(|d| Instant::now() + d);
    let slot = admitted.then(|| QueueSlot {
        enqueued: Instant::now(),
        deadline: queue_deadline,
    });
    let state = Arc::clone(state);
    let _handle = exec.submit_with(JobClass::Serve, deadline, Some(cancel.clone()), move || {
        let reply = service_request(&request, &line, line_no, &state, cancel, slot);
        deliver(reply);
    });
    Disposition::Submitted
}

// ---------------------------------------------------------------------------
// stdin/stdout mode
// ---------------------------------------------------------------------------

fn serve_stdin(
    state: Arc<ServeState>,
    exec: Arc<Executor>,
    shutdown: Arc<AtomicBool>,
    queue_deadline: Option<Duration>,
) {
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let outstanding = Arc::new(AtomicU64::new(0));
    // stdin is read on its own thread: the blocking `lines()` iterator
    // cannot observe the shutdown flag, so a `shutdown` request would
    // otherwise only take effect at the next input line (or EOF). The
    // main thread multiplexes incoming lines and the flag via a channel
    // timeout. The reader thread is left blocked on stdin at exit;
    // process teardown reaps it.
    let (line_tx, line_rx) = mpsc::channel::<(u64, String)>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for (index, line) in stdin.lock().lines().enumerate() {
            let Ok(line) = line else { break };
            if line_tx.send((index as u64 + 1, line)).is_err() {
                break;
            }
        }
    });
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match line_rx.recv_timeout(Duration::from_millis(50)) {
            Ok((line_no, line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let job_out = Arc::clone(&out);
                let outstanding_done = Arc::clone(&outstanding);
                let shutdown_flag = Arc::clone(&shutdown);
                outstanding.fetch_add(1, Ordering::AcqRel);
                let disposition =
                    dispatch_line(line, line_no, &state, &exec, queue_deadline, move |reply| {
                        if let Ok(mut out) = job_out.lock() {
                            let _ = out.write_all(reply.json.as_bytes());
                            let _ = out.write_all(b"\n");
                            let _ = out.flush();
                        }
                        if reply.shutdown {
                            shutdown_flag.store(true, Ordering::SeqCst);
                        }
                        outstanding_done.fetch_sub(1, Ordering::AcqRel);
                    });
                if let Disposition::Inline(reply) = disposition {
                    outstanding.fetch_sub(1, Ordering::AcqRel);
                    if let Ok(mut out) = out.lock() {
                        let _ = out.write_all(reply.json.as_bytes());
                        let _ = out.write_all(b"\n");
                        let _ = out.flush();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        }
    }
    // Graceful drain: every submitted job finishes and flushes its
    // response before the caller tears the executor down.
    while outstanding.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    shutdown.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// TCP event loop
// ---------------------------------------------------------------------------

/// The overload knobs the TCP event loop enforces.
#[derive(Clone, Copy)]
struct TcpPolicy {
    queue_deadline: Option<Duration>,
    idle_timeout_ms: u64,
    max_conns: usize,
}

/// One client connection's loop-owned state.
struct Conn {
    stream: TcpStream,
    /// Bytes of a partial input line (completed lines are consumed).
    rbuf: Vec<u8>,
    /// Rendered output not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// 1-based request line within THIS connection's stream, as the
    /// protocol docs define it.
    line_no: u64,
    /// Jobs submitted for this connection whose replies are pending.
    inflight: usize,
    /// Peer closed its write half (EOF seen); drain and close.
    read_closed: bool,
    /// Close once `wbuf` flushes and `inflight` drains (HTTP one-shot,
    /// idle timeout, server drain).
    close_after_flush: bool,
    /// Advanced on every byte of read progress — partial lines count,
    /// so slow-but-live peers sending fragmented requests are never
    /// cut off.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            line_no: 0,
            inflight: 0,
            read_closed: false,
            close_after_flush: false,
            last_activity: Instant::now(),
        }
    }

    fn queue_line(&mut self, json: &str) {
        self.wbuf.extend_from_slice(json.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn queue_raw(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Writes as much buffered output as the socket accepts. `false`
    /// means the peer is gone and the connection should be dropped.
    fn pump_write(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.flushed() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }
}

/// The HTTP one-shot for `GET` probes on the JSON-lines port: the
/// `/metrics` target gets the Prometheus text exposition, anything
/// else a 404. One response, then close.
fn http_response(state: &ServeState, request_line: &str) -> Vec<u8> {
    let target = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if target == "/metrics" {
        ("200 OK", state.render_prometheus())
    } else {
        ("404 Not Found", "only /metrics is served here\n".to_owned())
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What a poll slot points at.
enum Target {
    Waker,
    Listener,
    Conn(u64),
}

fn serve_tcp(
    addr: &str,
    state: Arc<ServeState>,
    exec: Arc<Executor>,
    policy: TcpPolicy,
) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking: {e}"))?;
    if let Ok(local) = listener.local_addr() {
        // Announced on stderr so test harnesses with `--tcp addr:0` can
        // discover the bound port.
        eprintln!("fpserved: listening on {local}");
    }

    // Workers wake the loop by writing a byte into this socketpair
    // after handing a reply to the channel.
    let (wake_rx, wake_tx) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(|e| format!("socketpair: {e}"))?;
    wake_tx
        .set_nonblocking(true)
        .map_err(|e| format!("socketpair: {e}"))?;
    let wake_tx = Arc::new(wake_tx);
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Reply)>();

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut draining = false;
    let idle_timeout =
        (policy.idle_timeout_ms > 0).then(|| Duration::from_millis(policy.idle_timeout_ms));

    let mut fds: Vec<PollFd> = Vec::new();
    let mut targets: Vec<Target> = Vec::new();
    loop {
        // (Re)build the interest set; connection counts are small
        // enough that rebuilding beats bookkeeping.
        fds.clear();
        targets.clear();
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        targets.push(Target::Waker);
        if !draining {
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            targets.push(Target::Listener);
        }
        for (&token, conn) in &conns {
            let mut events = 0;
            if !conn.read_closed && !conn.close_after_flush && !draining {
                events |= POLLIN;
            }
            if !conn.flushed() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            targets.push(Target::Conn(token));
        }
        let _ready = poll_wait(&mut fds, POLL_TIMEOUT_MS);

        // Reply delivery: queue rendered responses onto their
        // connections' write buffers. A reply for a connection that
        // died in the meantime is dropped; its shutdown bit still
        // counts (the drain must proceed even if the requester left).
        if fds[0].revents & POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (token, reply) in reply_rx.try_iter() {
            if reply.shutdown {
                draining = true;
            }
            if let Some(conn) = conns.get_mut(&token) {
                conn.queue_line(&reply.json);
                conn.inflight -= 1;
            }
        }

        // Accept, read, and write according to readiness.
        let mut dead: Vec<u64> = Vec::new();
        for (slot, target) in targets.iter().enumerate() {
            let revents = fds[slot].revents;
            match target {
                Target::Waker => {}
                Target::Listener => {
                    if revents & POLLIN == 0 {
                        continue;
                    }
                    loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if policy.max_conns > 0 && conns.len() >= policy.max_conns {
                                    // Bounded backlog: one structured
                                    // status-7 line (blocking write is
                                    // fine for a one-shot), then close.
                                    state.note_shed();
                                    exec.note_shed("too_many_connections");
                                    let mut stream = stream;
                                    let reply = shed_reply("", 0, "too_many_connections");
                                    let _ = stream.write_all(reply.json.as_bytes());
                                    let _ = stream.write_all(b"\n");
                                    continue;
                                }
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                next_token += 1;
                                conns.insert(next_token, Conn::new(stream));
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                Target::Conn(token) => {
                    let Some(conn) = conns.get_mut(token) else {
                        continue;
                    };
                    if revents & POLLNVAL != 0 {
                        dead.push(*token);
                        continue;
                    }
                    if revents & (POLLIN | POLLERR | POLLHUP) != 0
                        && !read_conn(conn, *token, &state, &exec, policy, &reply_tx, &wake_tx)
                    {
                        dead.push(*token);
                        continue;
                    }
                    if !conn.flushed() && revents & POLLOUT != 0 && !conn.pump_write() {
                        dead.push(*token);
                    }
                }
            }
        }
        for token in dead {
            conns.remove(&token);
        }

        // Fresh output queued by replies: push it out eagerly rather
        // than waiting one poll cycle for POLLOUT.
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in &mut conns {
            if !conn.flushed() && !conn.pump_write() {
                dead.push(token);
            }
        }
        for token in dead {
            conns.remove(&token);
        }

        // Idle-timeout sweep, and closing of finished connections.
        let now = Instant::now();
        conns.retain(|_, conn| {
            if let Some(limit) = idle_timeout {
                if !conn.read_closed
                    && !conn.close_after_flush
                    && conn.inflight == 0
                    && now.duration_since(conn.last_activity) >= limit
                {
                    // Truly idle: say why, then close.
                    conn.queue_line(&idle_timeout_reply(policy.idle_timeout_ms).json);
                    conn.close_after_flush = true;
                    let _ = conn.pump_write();
                }
            }
            let finished = conn.inflight == 0
                && conn.flushed()
                && (conn.close_after_flush || conn.read_closed || draining);
            !finished
        });

        if draining && conns.values().all(|c| c.inflight == 0 && c.flushed()) {
            // Everything accepted has been answered and delivered (or
            // its connection is gone); stop.
            break;
        }
    }
    Ok(())
}

/// Drains readable bytes from one connection, submitting every
/// completed line. `false` drops the connection immediately (I/O
/// error); EOF is handled gracefully via `read_closed`.
fn read_conn(
    conn: &mut Conn,
    token: u64,
    state: &Arc<ServeState>,
    exec: &Arc<Executor>,
    policy: TcpPolicy,
    reply_tx: &mpsc::Sender<(u64, Reply)>,
    wake_tx: &Arc<UnixStream>,
) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    // Consume complete lines; a trailing unterminated line at EOF
    // still counts as a request.
    loop {
        let line_end = conn.rbuf.iter().position(|&b| b == b'\n');
        let raw = match line_end {
            Some(end) => {
                let mut raw: Vec<u8> = conn.rbuf.drain(..=end).collect();
                raw.pop(); // the newline
                raw
            }
            None if conn.read_closed && !conn.rbuf.is_empty() => std::mem::take(&mut conn.rbuf),
            None => break,
        };
        let line = String::from_utf8_lossy(&raw)
            .trim_end_matches('\r')
            .to_owned();
        // A first line spelling an HTTP request marks a scrape probe,
        // not a JSON peer: one response, then close.
        if conn.line_no == 0 && line.trim_start().starts_with("GET ") {
            let response = http_response(state, &line);
            conn.queue_raw(&response);
            conn.close_after_flush = true;
            conn.read_closed = true;
            return true;
        }
        conn.line_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        let line_no = conn.line_no;
        let reply_tx = reply_tx.clone();
        let wake_tx = Arc::clone(wake_tx);
        let disposition = dispatch_line(
            line,
            line_no,
            state,
            exec,
            policy.queue_deadline,
            move |reply| {
                let _ = reply_tx.send((token, reply));
                // A full wake pipe already guarantees a pending wake.
                let _ = (&*wake_tx).write(&[1]);
            },
        );
        match disposition {
            Disposition::Inline(reply) => conn.queue_line(&reply.json),
            Disposition::Submitted => conn.inflight += 1,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("fpserved: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let cache = match &args.cache_file {
        None => SharedBlockCache::new(args.cache_bytes),
        Some(dir) => match SharedBlockCache::open_persistent(dir, args.cache_bytes, STORE_SALT) {
            Ok(cache) => {
                let recovery = cache.recovery();
                eprintln!(
                    "fpserved: cache store {} replayed {} entries ({} bytes){}",
                    dir.display(),
                    recovery.recovered_entries,
                    recovery.recovered_bytes,
                    if recovery.truncated_segments > 0 {
                        " after truncating a torn tail"
                    } else {
                        ""
                    }
                );
                cache
            }
            Err(e) => {
                eprintln!("fpserved: cannot open cache store: {e}");
                return ExitCode::from(1);
            }
        },
    };
    let exec = Executor::new(args.workers);
    let mut state = ServeState::with_cache(cache)
        .with_max_inflight(args.max_inflight)
        .with_executor(Arc::clone(&exec))
        .with_anneal_backend(fp_anneal::serve_backend());
    if let Some(threads) = args.threads {
        state = state.with_threads(threads);
    }
    let state = Arc::new(state);
    let shutdown = Arc::new(AtomicBool::new(false));

    let served = match &args.tcp {
        Some(addr) => {
            let policy = TcpPolicy {
                queue_deadline: args.queue_deadline,
                idle_timeout_ms: args.idle_timeout_ms,
                max_conns: args.max_conns,
            };
            serve_tcp(addr, Arc::clone(&state), Arc::clone(&exec), policy)
        }
        None => {
            serve_stdin(
                Arc::clone(&state),
                Arc::clone(&exec),
                shutdown,
                args.queue_deadline,
            );
            Ok(())
        }
    };
    if let Err(msg) = served {
        eprintln!("fpserved: {msg}");
        return ExitCode::from(1);
    }
    // Graceful drain: every queued job has run and flushed its
    // response; now stop the workers and make the persistent store
    // durable before exit. Stderr may already be gone (the supervisor
    // stopped listening), so report via a non-panicking write.
    exec.shutdown();
    if state.cache().is_persistent() {
        let mut stderr = std::io::stderr();
        match state.cache().flush() {
            Ok(()) => {
                let _ = writeln!(stderr, "fpserved: cache store flushed clean");
            }
            Err(e) => {
                let _ = writeln!(stderr, "fpserved: cache flush failed: {e}");
            }
        }
    }
    ExitCode::SUCCESS
}
