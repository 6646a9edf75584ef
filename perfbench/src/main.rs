//! The repository benchmark. One invocation runs one workload for a fixed
//! time and prints, as the last line of stdout, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`):
//!
//! ```sh
//! bash perfbench/run.sh --workload mega-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see README.md for why each exists):
//!
//! * `mega-cold` — cold exact optimization of FP6-class 50k-module designs
//!   through the `Optimizer` facade at 2 threads;
//! * `paper-rl` — FP4 with N = 12 under the paper's R/L selection;
//! * `serve-edit` — one-module what-if edits of FP4 designs served by a
//!   real `fpserved` over TCP.
//!
//! Every op is checked against an exact reference outside the clock; a
//! failed check makes `correct` false and the exit code 1.

mod engine_layers;
mod inproc;
mod measure;
mod mega_cold;
mod paper_rl;
mod serve_edit;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("area_pct_of_opt", "%"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("tree.parse_ms", "ms"),
    ("tree.parse_mb_per_s", "MB/s"),
    ("tree.restructure_ms", "ms"),
    ("shape.join_self_ms", "ms"),
    ("shape.joins", "count"),
    ("shape.generated", "count"),
    ("shape.kept_ratio", "ratio"),
    ("shape.peak_impls", "count"),
    ("select.ms", "ms"),
    ("select.r_reductions", "count"),
    ("select.l_reductions", "count"),
    ("cspp.solves", "count"),
    ("cspp.monge_ratio", "ratio"),
    ("cspp.monge_fallbacks", "count"),
    ("sched.busy_ratio", "ratio"),
    ("sched.replay_ms", "ms"),
    ("sched.steals", "count"),
    ("sched.split_inlines", "count"),
    ("sched.replay_discards", "count"),
    ("engine.run_ms", "ms"),
    ("engine.trace_back_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("cache.evictions", "count"),
    ("serve.parse_request_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.request_kb", "KiB"),
    ("serve.reply_kb", "KiB"),
    ("layout.realize_ms", "ms"),
    ("geom.polygonize_ms", "ms"),
    ("fpserved.front_ms", "ms"),
    ("fpserved.spawn_ms", "ms"),
    ("fpserved.shed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    ("unattributed_ms", "ms"),
];

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `fpserved` binary serve-edit spawns.
    pub fpserved: PathBuf,
    /// Source revision recorded in the run info.
    pub rev: String,
    /// Where the traced run writes its span log.
    pub spans_dir: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (failed ops included).
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra run facts for the info line, as raw JSON values.
    pub info: Vec<(&'static str, String)>,
}

const USAGE: &str = "usage: perfbench --workload <mega-cold|paper-rl|serve-edit> --seed <n> \
--seconds <s> --trace <0|1> --fpserved <path> [--rev <rev>] [--spans-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        fpserved: PathBuf::new(),
        rev: "none".to_owned(),
        spans_dir: PathBuf::from("perfbench-spans"),
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--fpserved" => args.fpserved = PathBuf::from(value),
            "--rev" => args.rev = value,
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !seen_seed
        || !args.seconds.is_finite()
        || args.seconds <= 0.0
        || args.fpserved.as_os_str().is_empty()
    {
        return Err("--seed, --seconds > 0 and --fpserved are required".to_owned());
    }
    Ok(args)
}

/// Writes a traced run's span log and names the file in the run info.
pub fn write_spans(
    args: &Args,
    spans: &measure::SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let path = args
        .spans_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    spans.write_jsonl(&path)?;
    report
        .info
        .push(("spans", format!("\"{}\"", path.display())));
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "mega-cold" => mega_cold::run(args),
        "paper-rl" => paper_rl::run(args),
        "serve-edit" => serve_edit::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Renders `report` as the result line, in the metric order of the table
/// for this mode. Fails if a metric is missing, unknown or not finite.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &report.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("workload reported unknown metric {name}"));
        }
    }
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            // Layers a workload bypasses read 0; end-to-end metrics are
            // never optional.
            None if trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&report, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut info = vec![
        format!(r#""workload":"{}""#, args.workload),
        format!(r#""seed":{}"#, args.seed),
        format!(r#""seconds":{}"#, args.seconds),
        format!(r#""trace":{}"#, args.trace),
        format!(r#""nproc":{nproc}"#),
        format!(r#""rev":"{}""#, args.rev),
    ];
    info.extend(report.info.iter().map(|(k, v)| format!(r#""{k}":{v}"#)));
    println!(r#"{{"info":{{{}}}}}"#, info.join(","));
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: output checks failed ({} of {} ops failed)",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
