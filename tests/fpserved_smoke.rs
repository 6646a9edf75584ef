//! Smoke tests driving the real `fpserved` binary: concurrent batch
//! requests over stdin, per-request deadlines that cancel without
//! killing the server, malformed-line fixtures answered with positional
//! errors, graceful drain on EOF and on `shutdown`, and the TCP
//! listener end to end.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn fpserved() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpserved"))
}

fn fixture(name: &str) -> String {
    format!(
        "{}/../../tests/fixtures/malformed/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Pipes `input` through a stdin-mode server and returns (exit code,
/// response lines). EOF after the last request doubles as the drain
/// signal, so a hung drain would hang the test (and trip the harness
/// timeout).
fn batch(args: &[&str], input: &str) -> (i32, Vec<String>) {
    let mut child = fpserved()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fpserved spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("fpserved exits");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    (out.status.code().unwrap_or(-1), lines)
}

fn status_of(line: &str) -> u64 {
    line.split("\"status\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no status in {line}"))
}

fn line_with_id(lines: &[String], id: &str) -> String {
    lines
        .iter()
        .find(|l| l.contains(&format!("\"id\":{id},")))
        .unwrap_or_else(|| panic!("no response with id {id} in {lines:?}"))
        .clone()
}

/// Two optimize requests in flight at once on a two-worker pool, plus a
/// ping; all answered, identical instances agree, and the second
/// identical request is served entirely from the shared cache.
#[test]
fn concurrent_batch_is_answered_and_shares_the_cache() {
    let requests = "\
{\"id\": 1, \"method\": \"optimize\", \"builtin\": \"fp1\", \"n\": 5}\n\
{\"id\": 2, \"method\": \"optimize\", \"builtin\": \"fp1\", \"n\": 5}\n\
{\"id\": 3, \"method\": \"ping\"}\n\
{\"id\": 4, \"method\": \"stats\"}\n";
    let (code, lines) = batch(&["--workers", "2"], requests);
    assert_eq!(code, 0, "clean drain on EOF: {lines:?}");
    assert_eq!(lines.len(), 4, "{lines:?}");

    let first = line_with_id(&lines, "1");
    let second = line_with_id(&lines, "2");
    assert_eq!(status_of(&first), 0, "{first}");
    assert_eq!(status_of(&second), 0, "{second}");
    let area = |l: &str| {
        l.split("\"area\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .map(str::to_owned)
    };
    assert_eq!(area(&first), area(&second), "identical requests agree");
    assert_eq!(status_of(&line_with_id(&lines, "3")), 0);
    // With 2 workers racing on identical requests the interleaving is
    // free, but the four fig-tree joins are cached by whichever run
    // commits first; the stats response proves the cache saw traffic.
    let stats = line_with_id(&lines, "4");
    assert!(stats.contains("\"cache_insertions\":"), "{stats}");
}

/// A `pareto` request over a generated netlist answers with a
/// non-dominated front, and a wirelength-weighted `optimize` on the
/// same connection reports its HPWL; both count as heavy traffic, so
/// the stats line sees them.
#[test]
fn pareto_request_returns_a_front_over_the_wire() {
    let requests = "\
{\"id\": 1, \"method\": \"pareto\", \"builtin\": \"fp1\", \"n\": 5, \"nets\": 12, \"net_seed\": 7}\n\
{\"id\": 2, \"method\": \"optimize\", \"builtin\": \"fp1\", \"n\": 5, \"nets\": 12, \"net_seed\": 7, \"alpha\": 0.5}\n\
{\"id\": 3, \"method\": \"stats\"}\n";
    let (code, lines) = batch(&["--workers", "2"], requests);
    assert_eq!(code, 0, "clean drain: {lines:?}");

    let front = line_with_id(&lines, "1");
    assert_eq!(status_of(&front), 0, "{front}");
    assert!(front.contains("\"front\":["), "{front}");
    assert!(front.contains("\"front_size\":"), "{front}");
    assert!(front.contains("\"hypervolume\":"), "{front}");
    assert!(front.contains("\"hpwl\":"), "{front}");
    let front_size: usize = front
        .split("\"front_size\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("front_size is a number");
    assert!(front_size >= 1, "{front}");

    let weighted = line_with_id(&lines, "2");
    assert_eq!(status_of(&weighted), 0, "{weighted}");
    assert!(weighted.contains("\"hpwl\":"), "{weighted}");
    assert!(weighted.contains("\"alpha\":0.5"), "{weighted}");

    // Stats is control traffic and may be answered before the heavy
    // requests finish, so assert the counters are exposed rather than
    // their racy values (serve-level unit tests pin the exact counts).
    let stats = line_with_id(&lines, "3");
    assert!(stats.contains("\"pareto_requests\":"), "{stats}");
    assert!(stats.contains("\"netlist_requests\":"), "{stats}");
    assert!(stats.contains("\"pareto_points\":"), "{stats}");
}

/// A request whose deadline has already passed is answered with status 5
/// — and the server keeps serving afterwards.
#[test]
fn past_deadline_gets_status_5_and_server_survives() {
    let requests = "\
{\"id\": 1, \"method\": \"optimize\", \"builtin\": \"fp2\", \"n\": 8, \"deadline_ms\": 0}\n\
{\"id\": 2, \"method\": \"ping\"}\n";
    let (code, lines) = batch(&["--workers", "1"], requests);
    assert_eq!(code, 0);
    let timed_out = line_with_id(&lines, "1");
    assert_eq!(status_of(&timed_out), 5, "{timed_out}");
    assert_eq!(status_of(&line_with_id(&lines, "2")), 0, "server survived");
}

/// The malformed fixtures: bad JSON answered with a line/column
/// positional error, unknown method named in the error — and in both
/// files the well-formed neighbours are still served.
#[test]
fn malformed_fixture_lines_get_positional_errors() {
    let bad_json = std::fs::read_to_string(fixture("bad_json.jsonl")).expect("fixture");
    let (code, lines) = batch(&[], &bad_json);
    assert_eq!(code, 0);
    let error = lines
        .iter()
        .find(|l| l.contains("\"line\":2"))
        .expect("line-2 response");
    assert_eq!(status_of(error), 2, "{error}");
    assert!(error.contains("\"col\":51"), "{error}");
    assert!(error.contains("bad JSON"), "{error}");
    assert_eq!(status_of(&line_with_id(&lines, "1")), 0);
    assert_eq!(status_of(&line_with_id(&lines, "3")), 0);

    let unknown = std::fs::read_to_string(fixture("unknown_method.jsonl")).expect("fixture");
    let (code, lines) = batch(&[], &unknown);
    assert_eq!(code, 0);
    let error = lines
        .iter()
        .find(|l| l.contains("\"id\":\"q7\""))
        .expect("q7 response");
    assert_eq!(status_of(error), 2, "{error}");
    assert!(error.contains("unknown method `frobnicate`"), "{error}");
}

/// A `shutdown` request drains: it is acknowledged, queued work
/// finishes, and the process exits 0 without reading further input.
#[test]
fn shutdown_request_drains_gracefully() {
    let requests = "\
{\"id\": 1, \"method\": \"optimize\", \"builtin\": \"fig1\", \"n\": 3}\n\
{\"id\": 2, \"method\": \"shutdown\"}\n";
    let (code, lines) = batch(&["--workers", "2"], requests);
    assert_eq!(code, 0);
    assert_eq!(status_of(&line_with_id(&lines, "1")), 0, "{lines:?}");
    let ack = line_with_id(&lines, "2");
    assert!(ack.contains("\"draining\":true"), "{ack}");
}

/// A `shutdown` request must terminate the server even when stdin is
/// held open — the reply-then-hang regression: the main thread used to
/// block in `lines()` and only notice the drain flag at the next line.
#[test]
fn shutdown_exits_even_while_stdin_stays_open() {
    let mut child = fpserved()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fpserved spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(b"{\"id\": 1, \"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    stdin.flush().expect("flushed");
    // Deliberately keep stdin open while waiting for the exit.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert_eq!(status.code(), Some(0), "clean exit with stdin open");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server hung: shutdown not honored while stdin stays open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(stdin);
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("stdout read");
    assert!(out.contains("\"draining\":true"), "{out}");
}

fn spawn_tcp() -> (Child, String) {
    spawn_tcp_with(&[])
}

fn spawn_tcp_with(extra: &[&str]) -> (Child, String) {
    let mut child = fpserved()
        .args(["--tcp", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fpserved spawns");
    // The server announces the bound address on stderr (possibly after
    // other startup lines, e.g. the cache-store replay report).
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("announce line") > 0,
            "stderr closed before the listen announcement"
        );
        if line.contains("listening on ") {
            let addr = line
                .rsplit("listening on ")
                .next()
                .expect("address")
                .trim()
                .to_owned();
            // Keep draining stderr in the background so later server
            // writes (e.g. the drain-flush report) never block or hit
            // a closed pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = stderr.read_to_string(&mut sink);
            });
            break addr;
        }
    };
    (child, addr)
}

/// TCP end to end: connect, pipeline a ping and an optimize, read both
/// responses, then a `shutdown` drains the whole server.
#[test]
fn tcp_mode_serves_and_drains() {
    let (mut child, addr) = spawn_tcp();
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    stream
        .write_all(
            b"{\"id\": 1, \"method\": \"ping\"}\n\
              {\"id\": 2, \"method\": \"optimize\", \"builtin\": \"fig1\", \"n\": 2}\n",
        )
        .expect("requests written");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        responses.push(line.trim().to_owned());
    }
    assert_eq!(status_of(&line_with_id(&responses, "1")), 0);
    let optimized = line_with_id(&responses, "2");
    assert_eq!(status_of(&optimized), 0, "{optimized}");
    assert!(optimized.contains("\"area\":"), "{optimized}");

    stream
        .write_all(b"{\"id\": 3, \"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.contains("\"draining\":true"), "{rest}");
    let status = child.wait().expect("fpserved exits");
    assert_eq!(status.code(), Some(0), "clean TCP drain");
}

/// A request trickled in over writes spaced past the server's 100ms
/// read timeout must still parse whole — the reader used to discard the
/// partially-read prefix on every timeout and answer with a bogus
/// malformed-request error.
#[test]
fn tcp_slow_fragmented_request_is_not_corrupted() {
    let (mut child, addr) = spawn_tcp();
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    let request = b"{\"id\": 1, \"method\": \"optimize\", \"builtin\": \"fig1\", \"n\": 2}\n";
    for chunk in request.chunks(9) {
        stream.write_all(chunk).expect("chunk written");
        stream.flush().expect("chunk flushed");
        std::thread::sleep(Duration::from_millis(150));
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    assert_eq!(status_of(&line), 0, "{line}");
    assert!(line.contains("\"area\":"), "{line}");

    stream
        .write_all(b"{\"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    assert_eq!(child.wait().expect("exits").code(), Some(0));
}

/// Flooding a one-worker, one-slot server sheds the overflow with
/// structured status-7 replies — and still drains cleanly: every line
/// is answered, admitted requests succeed, nothing hangs.
#[test]
fn overload_flood_sheds_with_structured_status_7() {
    let mut requests = String::new();
    for id in 1..=10 {
        requests.push_str(&format!(
            "{{\"id\": {id}, \"method\": \"optimize\", \"builtin\": \"fp1\", \"n\": 4, \"seed\": {id}}}\n"
        ));
    }
    requests.push_str("{\"id\": 99, \"method\": \"stats\"}\n");
    let (code, lines) = batch(&["--workers", "1", "--max-inflight", "1"], &requests);
    assert_eq!(code, 0, "clean drain under flood: {lines:?}");
    assert_eq!(lines.len(), 11, "every line answered: {lines:?}");

    let shed: Vec<&String> = lines.iter().filter(|l| status_of(l) == 7).collect();
    let served = lines
        .iter()
        .filter(|l| status_of(l) == 0 && l.contains("\"area\":"))
        .count();
    assert!(
        !shed.is_empty(),
        "a 1-slot server under a 10-deep flood sheds"
    );
    assert!(served >= 1, "the admitted request completes: {lines:?}");
    assert_eq!(shed.len() + served, 10, "every optimize is shed xor served");
    for line in &shed {
        assert!(line.contains("\"overloaded\":true"), "{line}");
        assert!(line.contains("\"reason\":\"queue_full\""), "{line}");
        assert!(line.contains("\"id\":"), "shed replies echo the id: {line}");
    }
    // Control traffic is never shed — stats got through and reports it.
    let stats = line_with_id(&lines, "99");
    assert_eq!(status_of(&stats), 0, "{stats}");
    assert!(
        stats.contains(&format!("\"shed\":{}", shed.len())),
        "{stats}"
    );
}

/// A silent TCP connection is reclaimed after the read-idle deadline
/// with a clean `timeout` status line, then closed; the server itself
/// keeps serving.
#[test]
fn tcp_idle_connection_times_out_cleanly() {
    let (mut child, addr) = spawn_tcp_with(&["--idle-timeout-ms", "300"]);
    let idle = TcpStream::connect(&addr).expect("connects");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    let mut reader = BufReader::new(idle);
    let mut line = String::new();
    reader.read_line(&mut line).expect("timeout line");
    assert!(line.contains("\"timeout\":\"idle\""), "{line}");
    assert!(line.contains("\"idle_ms\":300"), "{line}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("closed after line");
    assert!(rest.is_empty(), "nothing after the timeout line: {rest}");

    // The listener is unaffected: a live connection still gets served.
    let mut live = TcpStream::connect(&addr).expect("reconnects");
    live.write_all(b"{\"id\": 1, \"method\": \"ping\"}\n{\"method\": \"shutdown\"}\n")
        .expect("requests written");
    let mut reader = BufReader::new(live.try_clone().expect("clone"));
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong line");
    assert_eq!(status_of(&pong), 0, "{pong}");
    assert_eq!(child.wait().expect("exits").code(), Some(0));
}

/// Beyond `--max-conns`, a new connection receives exactly one
/// status-7 line and is closed — a bounded backlog, not an ever-growing
/// thread list.
#[test]
fn tcp_backlog_is_bounded_by_max_conns() {
    let (mut child, addr) = spawn_tcp_with(&["--max-conns", "1"]);
    let held = TcpStream::connect(&addr).expect("first connects");
    // Give the acceptor time to register the held connection.
    std::thread::sleep(Duration::from_millis(200));

    let refused = TcpStream::connect(&addr).expect("second connects");
    refused
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    assert_eq!(status_of(&line), 7, "{line}");
    assert!(
        line.contains("\"reason\":\"too_many_connections\""),
        "{line}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("closed");
    assert!(rest.is_empty(), "one line then close: {rest}");

    // The held connection still works and can drain the server.
    let mut held = held;
    held.write_all(b"{\"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    assert_eq!(child.wait().expect("exits").code(), Some(0));
}

/// End-to-end warm restart: a `--cache-file` server is run, drained,
/// and restarted over the same store; the replayed entries show up in
/// the Prometheus `/metrics` exposition and the repeat request is
/// served entirely from the recovered cache.
#[test]
fn tcp_warm_restart_shows_recovered_entries_in_metrics() {
    let dir = std::env::temp_dir().join(format!("fpserved-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 temp path").to_owned();
    let request =
        b"{\"id\": 1, \"method\": \"optimize\", \"builtin\": \"fp1\", \"n\": 4}\n" as &[u8];

    // First life: populate the store, drain cleanly (the drain flushes).
    let (mut child, addr) = spawn_tcp_with(&["--cache-file", &store]);
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    stream.write_all(request).expect("request written");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    assert_eq!(status_of(&line), 0, "{line}");
    stream
        .write_all(b"{\"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    assert_eq!(child.wait().expect("exits").code(), Some(0));

    // Second life: /metrics proves the replay before any request runs.
    let (mut child, addr) = spawn_tcp_with(&["--cache-file", &store]);
    let mut probe = TcpStream::connect(&addr).expect("probe connects");
    probe
        .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
        .expect("probe written");
    let mut exposition = String::new();
    BufReader::new(probe)
        .read_to_string(&mut exposition)
        .expect("exposition read");
    let recovered: u64 = exposition
        .lines()
        .find_map(|l| l.strip_prefix("fp_cache_recovered_entries "))
        .expect("recovered gauge present")
        .trim()
        .parse()
        .expect("gauge is a number");
    assert!(
        recovered > 0,
        "warm restart replayed entries:\n{exposition}"
    );
    assert!(
        exposition.contains("fp_cache_persist_appended_records_total"),
        "{exposition}"
    );

    // And the repeat request is a pure cache hit: zero misses.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    stream.write_all(request).expect("request written");
    stream
        .write_all(b"{\"id\": 2, \"method\": \"stats\"}\n{\"method\": \"shutdown\"}\n")
        .expect("tail written");
    // Replies may arrive out of request order and are matched by id (the
    // README's contract): the inline `stats` reply and the id-less
    // shutdown ack can overtake the executor-run `optimize`. Read until
    // both ids are in.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses: Vec<String> = Vec::new();
    let has_id =
        |lines: &[String], id: &str| lines.iter().any(|l| l.contains(&format!("\"id\":{id},")));
    while !(has_id(&responses, "1") && has_id(&responses, "2")) {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("response line");
        assert!(
            read > 0,
            "connection closed before ids 1 and 2: {responses:?}"
        );
        responses.push(line.trim().to_owned());
    }
    assert_eq!(status_of(&line_with_id(&responses, "1")), 0);
    let stats = line_with_id(&responses, "2");
    assert!(stats.contains("\"cache_persistent\":true"), "{stats}");
    assert!(
        stats.contains(&format!("\"cache_recovered_entries\":{recovered}")),
        "{stats}"
    );
    assert_eq!(child.wait().expect("exits").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Response `line` numbers count each connection's own stream, as the
/// protocol documents — not a server-global request counter.
#[test]
fn tcp_line_numbers_are_per_connection() {
    let (mut child, addr) = spawn_tcp();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout set");
        stream
            .write_all(b"{\"id\": 1, \"method\": \"ping\"}\n{\"id\": 2, \"method\": \"ping\"}\n")
            .expect("requests written");
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("response line");
            responses.push(line.trim().to_owned());
        }
        // Every fresh connection starts at line 1 again.
        assert!(
            line_with_id(&responses, "1").contains("\"line\":1"),
            "{responses:?}"
        );
        assert!(
            line_with_id(&responses, "2").contains("\"line\":2"),
            "{responses:?}"
        );
    }
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(b"{\"method\": \"shutdown\"}\n")
        .expect("shutdown written");
    assert_eq!(child.wait().expect("exits").code(), Some(0));
}
