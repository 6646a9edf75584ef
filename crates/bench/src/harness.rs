//! The `fpbench` harness: one runner for every benchmark suite.
//!
//! ```sh
//! cargo run --release -p fp-bench --bin fpbench -- <suite> [--smoke] [--out PATH]
//! ```
//!
//! A suite (`crate::suites`) runs its cases, keeps its determinism
//! asserts, and hands back rows, constants and gates through a `Run`.
//! The harness owns everything around that: argument parsing, the
//! best-of timer, the peak-RSS running maximum, the artifact envelope,
//! the schema check, writing, the console report and the gate verdict.
//!
//! Every artifact is one JSON object:
//!
//! * `benchmark`, `smoke`, `reps`, `cores`, `rev` (`git describe
//!   --always --dirty` of the checkout the binary was built from, or
//!   `"unknown"`);
//! * the suite's constants (`cache_bytes`, `nets`, `mode`, ...);
//! * `gates`: one object per gate with `name`, `threshold`, `measured`,
//!   `enforced`, `passed` and `reason` (why it was not enforced, or
//!   `null`);
//! * `results`: the rows, one per line. Each row starts with its `kind`,
//!   and the kind fixes the keys that follow.
//!
//! [`check_artifact`] checks a document against that layout and the
//! suite's own key lists; the harness runs it on every artifact before
//! writing it. The console shows the artifact's row and gate lines.
//! Exit codes: 0, 1 for a failed enforced gate or a failed write, 2 for
//! a usage error.

use std::fmt::{Debug, Display};
use std::time::{Duration, Instant};

use fp_optimizer::serve::{parse_json, Json, JsonObj};
use fp_tree::generators::{self, Benchmark};

use crate::suites::SUITES;

const USAGE: &str = "usage: fpbench <suite> [--smoke] [--out PATH]\n\
    suites: cspp, geom, netlist, parallel [--all], persist, serve [--tcp ADDR], \
    session [--threads N], trace";

/// Envelope members every artifact starts with.
const HEAD: [&str; 5] = ["benchmark", "smoke", "reps", "cores", "rev"];
/// Members of every gate object.
const GATE_KEYS: [&str; 6] = [
    "name",
    "threshold",
    "measured",
    "enforced",
    "passed",
    "reason",
];
/// The `reason` of a gate that only full runs enforce.
pub(crate) const SMOKE: &str = "smoke run";

/// One benchmark suite: its artifact layout and the function that runs it.
pub(crate) struct Suite {
    /// Name on the command line; the default artifact is `BENCH_<name>.json`.
    pub(crate) name: &'static str,
    /// The artifact's `benchmark` member.
    pub(crate) benchmark: &'static str,
    /// Repetitions per timed cell in a full run (a smoke run makes one).
    pub(crate) reps: usize,
    /// Suite flags accepted after the suite name.
    pub(crate) flags: &'static [&'static str],
    /// The suite's constants, in envelope order.
    pub(crate) constants: &'static [&'static str],
    /// Every row kind with the keys that follow `kind`, in order.
    pub(crate) kinds: &'static [(&'static str, &'static [&'static str])],
    /// The gates, in artifact order.
    pub(crate) gates: &'static [&'static str],
    /// Runs the cases, filling `run`.
    pub(crate) run: fn(&mut Run),
}

/// `value` with `decimals` digits after the point, as a JSON number
/// (`null` when it is not finite).
pub(crate) fn fixed(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_owned()
    }
}

/// A pass/fail threshold on one measured value.
#[derive(Debug)]
pub(crate) struct Gate {
    name: &'static str,
    threshold: f64,
    /// `measured <= threshold` passes; otherwise `measured >= threshold`.
    at_most: bool,
    /// `None` when the run has nothing the gate can measure.
    measured: Option<f64>,
    /// Why the gate is not enforced on this run.
    skipped: Option<String>,
}

impl Gate {
    /// Passes when `measured >= threshold`.
    pub(crate) fn at_least(name: &'static str, threshold: f64, measured: Option<f64>) -> Gate {
        Gate {
            name,
            threshold,
            at_most: false,
            measured,
            skipped: None,
        }
    }

    /// Passes when `measured <= threshold`.
    pub(crate) fn at_most(name: &'static str, threshold: f64, measured: Option<f64>) -> Gate {
        Gate {
            at_most: true,
            ..Gate::at_least(name, threshold, measured)
        }
    }

    /// Leaves the gate unenforced, for `reason`, when `skip` holds. The
    /// first reason given is the one recorded.
    pub(crate) fn skip_if(mut self, skip: bool, reason: impl Into<String>) -> Gate {
        if skip && self.skipped.is_none() {
            self.skipped = Some(reason.into());
        }
        self
    }

    fn passed(&self) -> bool {
        self.measured.is_some_and(|m| {
            if self.at_most {
                m <= self.threshold
            } else {
                m >= self.threshold
            }
        })
    }

    fn failed(&self) -> bool {
        self.skipped.is_none() && !self.passed()
    }

    fn measured(&self) -> String {
        self.measured.map_or("null".to_owned(), |m| fixed(m, 2))
    }

    fn json(&self) -> String {
        let mut obj = JsonObj::new();
        obj.str("name", self.name)
            .raw("threshold", &self.threshold.to_string())
            .raw("measured", &self.measured())
            .bool("enforced", self.skipped.is_none())
            .bool("passed", self.passed());
        match &self.skipped {
            Some(reason) => obj.str("reason", reason),
            None => obj.raw("reason", "null"),
        };
        obj.finish()
    }
}

/// One suite run: the options it was given, the harness state it may
/// use, and what it has produced so far.
pub(crate) struct Run {
    /// `--smoke`: the suite's reduced matrix.
    pub(crate) smoke: bool,
    /// Repetitions per timed cell: the suite's count, or 1 under `--smoke`.
    pub(crate) reps: usize,
    /// Logical cores of the host.
    pub(crate) cores: usize,
    /// `parallel --all`.
    pub(crate) all: bool,
    /// `serve --tcp ADDR`.
    pub(crate) tcp: Option<String>,
    /// `session --threads N`.
    pub(crate) threads: Option<usize>,
    suite: &'static Suite,
    out: String,
    /// The largest peak-RSS reading so far (see [`Run::peak_rss`]).
    rss_high: u64,
    /// The envelope so far: the head members, then the constants.
    envelope: JsonObj,
    rows: Vec<String>,
    gates: Vec<Gate>,
}

impl Run {
    /// Reports progress on stderr.
    pub(crate) fn progress(&self, what: impl Display) {
        eprintln!("fpbench {}: {what} ...", self.suite.name);
    }

    /// The process peak RSS so far, as the running maximum of
    /// [`crate::host::peak_rss_bytes`] readings, so a series of readings
    /// never falls even where the kernel's does.
    pub(crate) fn peak_rss(&mut self) -> u64 {
        self.rss_high = self.rss_high.max(crate::host::peak_rss_bytes());
        self.rss_high
    }

    /// Adds the suite's constants to the envelope.
    pub(crate) fn constants(&mut self, fill: impl FnOnce(&mut JsonObj)) {
        fill(&mut self.envelope);
    }

    /// Records a row of `kind`; `fill` adds the kind's members in order.
    pub(crate) fn row(&mut self, kind: &str, fill: impl FnOnce(&mut JsonObj)) {
        let mut row = JsonObj::new();
        row.str("kind", kind);
        fill(&mut row);
        self.rows.push(row.finish());
    }

    pub(crate) fn gate(&mut self, gate: Gate) {
        self.gates.push(gate);
    }

    /// The paper's FP1–FP4, or FP1–FP2 under `--smoke`.
    pub(crate) fn paper_benchmarks(&self) -> Vec<Benchmark> {
        let mut benches = generators::paper_benchmarks();
        benches.truncate(if self.smoke { 2 } else { 4 });
        benches
    }

    /// The finished artifact, and the gates it records.
    fn artifact(self) -> (String, Vec<Gate>) {
        let mut envelope = self.envelope;
        let gates: Vec<String> = self.gates.iter().map(Gate::json).collect();
        envelope
            .raw("gates", &format!("[\n{}\n]", gates.join(",\n")))
            .raw("results", &format!("[\n{}\n]", self.rows.join(",\n")));
        (envelope.finish() + "\n", self.gates)
    }
}

/// Times one call of `f`.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// The fastest of a series of timed repetitions. Every repetition must
/// return the same value, so the repetitions double as a determinism
/// check.
#[derive(Debug)]
pub(crate) struct Best<T>(Option<(Duration, T)>);

impl<T: PartialEq + Debug> Best<T> {
    pub(crate) fn new() -> Best<T> {
        Best(None)
    }

    /// Records one repetition, as [`timed`] returns it.
    pub(crate) fn add(&mut self, (elapsed, value): (Duration, T)) {
        match &mut self.0 {
            None => self.0 = Some((elapsed, value)),
            Some((best, kept)) => {
                assert_eq!(*kept, value, "repetitions must agree");
                *best = (*best).min(elapsed);
            }
        }
    }

    /// The fastest time in milliseconds, and the repetitions' value.
    pub(crate) fn finish(self) -> (f64, T) {
        let (best, value) = self.0.expect("at least one repetition");
        (best.as_secs_f64() * 1e3, value)
    }
}

/// Runs `rep` `reps` times and keeps the fastest (see [`Best`]). Each
/// call times its own span with [`timed`], so set-up and checks stay off
/// the clock.
pub(crate) fn best_of<T: PartialEq + Debug>(
    reps: usize,
    mut rep: impl FnMut() -> (Duration, T),
) -> (f64, T) {
    let mut best = Best::new();
    for _ in 0..reps {
        best.add(rep());
    }
    best.finish()
}

fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// Checks the command line and sets up the run it asks for.
fn parse_args(args: &[String]) -> Result<Run, String> {
    let (name, rest) = args.split_first().ok_or("no suite given")?;
    let suite = suite(name).ok_or_else(|| format!("unknown suite `{name}`"))?;
    let mut run = Run {
        smoke: false,
        reps: suite.reps,
        cores: crate::host::cores(),
        all: false,
        tcp: None,
        threads: None,
        suite,
        out: format!("BENCH_{name}.json"),
        rss_high: 0,
        envelope: JsonObj::new(),
        rows: Vec::new(),
        gates: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if matches!(flag, "--all" | "--tcp" | "--threads") && !suite.flags.contains(&flag) {
            return Err(format!("{flag} is not an option of suite {name}"));
        }
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--smoke" => {
                run.smoke = true;
                run.reps = 1;
            }
            "--out" => run.out = value()?.clone(),
            "--all" => run.all = true,
            "--tcp" => run.tcp = Some(value()?.clone()),
            "--threads" => {
                let n = value()?;
                let n = n
                    .parse()
                    .map_err(|_| format!("--threads needs a number, not `{n}`"))?;
                run.threads = Some(n);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(run)
}

/// `git describe --always --dirty` of the checkout this crate was built
/// from, or `"unknown"` when git is unavailable or fails.
fn rev() -> String {
    std::process::Command::new("git")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs `fpbench` on `args` (the program name excluded) and returns the
/// exit code: 0, 1 for a failed enforced gate or a failed write, 2 for a
/// usage error.
#[must_use]
pub fn main(args: &[String]) -> u8 {
    let mut run = match parse_args(args) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("fpbench: {message}\n{USAGE}");
            return 2;
        }
    };
    let (suite, out) = (run.suite, run.out.clone());
    run.envelope
        .str("benchmark", suite.benchmark)
        .bool("smoke", run.smoke)
        .u64("reps", run.reps as u64)
        .u64("cores", run.cores as u64)
        .str("rev", &rev());
    (suite.run)(&mut run);
    let (artifact, gates) = run.artifact();

    if let Err(e) = check_artifact(suite.name, &artifact) {
        eprintln!(
            "fpbench {}: the artifact breaks its schema: {e}",
            suite.name
        );
        return 1;
    }
    print!("{artifact}");
    for gate in &gates {
        if let Some(reason) = &gate.skipped {
            eprintln!(
                "fpbench {}: WARNING: gate {} was NOT enforced ({reason}); measured {} is \
                 informational only",
                suite.name,
                gate.name,
                gate.measured()
            );
        } else if gate.failed() {
            eprintln!(
                "fpbench {}: FAIL: gate {} measured {}, needs {} {}",
                suite.name,
                gate.name,
                gate.measured(),
                if gate.at_most { "<=" } else { ">=" },
                gate.threshold
            );
        }
    }
    if let Err(e) = std::fs::write(&out, &artifact) {
        eprintln!("fpbench {}: cannot write {out}: {e}", suite.name);
        return 1;
    }
    eprintln!("fpbench {}: wrote {out}", suite.name);
    u8::from(gates.iter().any(Gate::failed))
}

/// The names of the suites `fpbench` runs.
pub fn suite_names() -> impl Iterator<Item = &'static str> {
    SUITES.iter().map(|s| s.name)
}

fn expect_keys(value: &Json, want: &[&str], what: &str) -> Result<(), String> {
    match value {
        Json::Obj(members) => {
            let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            if got == want {
                Ok(())
            } else {
                Err(format!("{what} has keys {got:?}, expected {want:?}"))
            }
        }
        _ => Err(format!("{what} is not an object")),
    }
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn kind(row: &Json) -> &str {
    row.get("kind").and_then(Json::as_str).unwrap_or("")
}

/// Checks `text` as the artifact of suite `suite`: the envelope members
/// in order, its `benchmark`, `smoke`, `cores` and `rev` values, the
/// suite's constants, one object per gate the suite declares, and rows
/// whose keys are exactly their kind's list, with every kind present.
/// Returns the parsed document.
///
/// # Errors
///
/// A message naming the first thing that does not match.
pub fn check_artifact(suite: &str, text: &str) -> Result<Json, String> {
    let suite = self::suite(suite).ok_or_else(|| format!("unknown suite `{suite}`"))?;
    let doc = parse_json(text).map_err(|e| format!("column {}: {}", e.col, e.message))?;
    let envelope: Vec<&str> = HEAD
        .iter()
        .chain(suite.constants)
        .chain(&["gates", "results"])
        .copied()
        .collect();
    expect_keys(&doc, &envelope, "the envelope")?;
    if doc.get("benchmark").and_then(Json::as_str) != Some(suite.benchmark) {
        return Err(format!("`benchmark` is not \"{}\"", suite.benchmark));
    }
    if doc.get("smoke").and_then(Json::as_bool).is_none()
        || doc.get("cores").and_then(Json::as_u64).unwrap_or(0) == 0
        || doc
            .get("rev")
            .and_then(Json::as_str)
            .unwrap_or("")
            .is_empty()
    {
        return Err("`smoke`, `cores` or `rev` is missing its value".to_owned());
    }

    let gates = array(&doc, "gates")?;
    for (at, gate) in gates.iter().enumerate() {
        expect_keys(gate, &GATE_KEYS, &format!("gate {at}"))?;
        if gate.get("name").and_then(Json::as_str) != suite.gates.get(at).copied() {
            return Err(format!("gate {at} is not {:?}", suite.gates.get(at)));
        }
    }
    if gates.len() != suite.gates.len() {
        return Err(format!("{} gates, expected {:?}", gates.len(), suite.gates));
    }

    let rows = array(&doc, "results")?;
    for (at, row) in rows.iter().enumerate() {
        let (kind, keys) = suite
            .kinds
            .iter()
            .find(|(k, _)| *k == self::kind(row))
            .ok_or_else(|| format!("row {at} has no known kind"))?;
        let want: Vec<&str> = std::iter::once("kind")
            .chain(keys.iter().copied())
            .collect();
        expect_keys(row, &want, &format!("row {at} ({kind})"))?;
    }
    if let Some((missing, _)) = suite
        .kinds
        .iter()
        .find(|(k, _)| !rows.iter().any(|r| self::kind(r) == *k))
    {
        return Err(format!("no `{missing}` row"));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Run, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&words)
    }

    #[test]
    fn suite_flags_belong_to_their_suite() {
        let run = args("parallel --smoke --all --out x.json").expect("valid");
        assert_eq!(run.suite.name, "parallel");
        assert!(run.smoke && run.all);
        assert_eq!((run.reps, run.out.as_str()), (1, "x.json"));
        let tcp = args("serve --tcp 127.0.0.1:1").expect("valid").tcp;
        assert_eq!(tcp.as_deref(), Some("127.0.0.1:1"));
        assert_eq!(args("session --threads 3").expect("valid").threads, Some(3));
        let cspp = args("cspp").expect("valid");
        assert_eq!((cspp.reps, cspp.out.as_str()), (7, "BENCH_cspp.json"));

        for bad in [
            "",
            "nosuch",
            "--smoke",
            "cspp --all",
            "parallel --tcp 127.0.0.1:1",
            "serve --threads 2",
            "session --threads",
            "session --threads two",
            "serve --tcp",
            "geom --out",
            "trace --fast",
        ] {
            assert!(args(bad).is_err(), "`{bad}` must be a usage error");
        }
        assert_eq!(main(&["geom".to_owned(), "--all".to_owned()]), 2);
    }

    /// A smoke artifact of `suite` with one row of every kind and every
    /// member set to 1.
    fn fake_artifact(suite: &str) -> String {
        let mut run = args(&format!("{suite} --smoke")).expect("valid");
        let suite = run.suite;
        let ones = |keys: &[&str], obj: &mut JsonObj| {
            for key in keys {
                obj.raw(key, "1");
            }
        };
        run.envelope
            .str("benchmark", suite.benchmark)
            .bool("smoke", true)
            .u64("reps", 1)
            .u64("cores", 2)
            .str("rev", "abc1234");
        run.constants(|obj| ones(suite.constants, obj));
        for (kind, keys) in suite.kinds {
            run.row(kind, |row| ones(keys, row));
        }
        for gate in suite.gates {
            run.gate(Gate::at_least(gate, 2.0, Some(1.5)).skip_if(true, SMOKE));
        }
        run.artifact().0
    }

    #[test]
    fn every_suite_layout_passes_its_own_check() {
        for name in suite_names() {
            let doc = check_artifact(name, &fake_artifact(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for gate in array(&doc, "gates").expect("gates") {
                assert_eq!(gate.get("enforced").and_then(Json::as_bool), Some(false));
                assert_eq!(gate.get("passed").and_then(Json::as_bool), Some(false));
                assert_eq!(gate.get("reason").and_then(Json::as_str), Some(SMOKE));
            }
        }
    }

    #[test]
    fn the_check_rejects_a_broken_layout() {
        let good = fake_artifact("session");
        assert!(check_artifact("session", &good).is_ok());
        for (from, to) in [
            ("\"threads\":1,", ""),
            ("\"rev\":\"abc1234\"", "\"rev\":\"\""),
            ("\"cores\":2", "\"cores\":0"),
            ("\"smoke\":true", "\"smoke\":1"),
            ("\"hit_rate\":1,", ""),
            ("\"kind\":\"warm\"", "\"kind\":\"hot\""),
            ("\"name\":\"warm_speedup\"", "\"name\":\"x\""),
            (",\"reason\":\"smoke run\"", ""),
            ("{\"benchmark\"", "[\"benchmark\""),
        ] {
            let broken = good.replace(from, to);
            assert_ne!(broken, good, "`{from}` must occur");
            assert!(
                check_artifact("session", &broken).is_err(),
                "{from} -> {to}"
            );
        }
        assert!(
            check_artifact("geom", &good).is_err(),
            "another suite's artifact"
        );
    }

    #[test]
    fn gates_fail_only_when_enforced() {
        let low = Gate::at_least("g", 2.0, Some(1.5));
        assert!(!low.passed() && low.failed());
        assert!(!low.skip_if(true, SMOKE).failed());
        let under = Gate::at_most("g", 2.0, Some(-1.0));
        assert!(under.passed() && !under.failed());
        let unmeasured = Gate::at_most("g", 2.0, None);
        assert!(!unmeasured.passed() && unmeasured.failed());
        let first = Gate::at_least("g", 1.0, Some(1.0))
            .skip_if(false, "a")
            .skip_if(true, "b")
            .skip_if(true, "c");
        assert_eq!(first.skipped.as_deref(), Some("b"));
    }

    #[test]
    fn best_keeps_the_fastest_of_agreeing_repetitions() {
        let mut best = Best::new();
        for millis in [5, 2, 9] {
            best.add((Duration::from_millis(millis), 7));
        }
        assert_eq!(best.finish(), (2.0, 7));
        let disagree = std::panic::catch_unwind(|| {
            let mut best = Best::new();
            best.add((Duration::from_millis(5), 7));
            best.add((Duration::from_millis(2), 8));
        });
        assert!(disagree.is_err(), "repetitions must agree");
    }
}
