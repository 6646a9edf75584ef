//! The closed loop shared by the two in-process workloads: one caller
//! parses its designs' `.fpt` text in set-up, then runs `Optimizer::run_best`
//! on them in turn until the time is up. Each op is checked against its
//! design's exact reference outside the clock.

use std::time::{Duration, Instant};

use fp_optimizer::{OptimizeConfig, Optimizer, Outcome};
use fp_tree::format::{parse_instance, FloorplanInstance};

use crate::engine_layers::{lossless_tracer, EngineLayers};
use crate::measure::{self, SpanLog};
use crate::{Args, Report};

/// Set-up is repeated this many times per run and its median reported: a
/// single set-up is too short to repeat within the metric's bound.
const SETUP_REPS: usize = 3;

/// One input design and its exact reference.
pub struct Design {
    /// The `.fpt` text the program parses in set-up.
    pub text: String,
    /// Exact optimum area.
    pub optimum: u128,
    /// Digest of the exact run's assignment, for workloads that must
    /// reproduce it.
    pub digest: Option<u64>,
}

/// How an op's outcome is checked against its design's reference.
pub enum Check {
    /// Exact run: area and assignment digest equal the reference.
    Exact,
    /// Selection run: area at least the optimum, and the assignment
    /// realizes to a valid layout of exactly the reported area.
    Bounded,
}

/// A workload run by [`run`].
pub struct Workload {
    pub designs: Vec<Design>,
    pub config: OptimizeConfig,
    pub check: Check,
    /// Facts for the info line.
    pub info: Vec<(&'static str, String)>,
}

fn check(design: &Design, instance: &FloorplanInstance, outcome: &Outcome, how: &Check) -> bool {
    match how {
        Check::Exact => {
            outcome.area == design.optimum
                && design.digest == Some(measure::digest(&outcome.assignment.choices))
        }
        Check::Bounded => {
            outcome.area >= design.optimum
                && fp_tree::layout::realize(&instance.tree, &instance.library, &outcome.assignment)
                    .is_ok_and(|layout| {
                        layout.area() == outcome.area && layout.validate().is_none()
                    })
        }
    }
}

/// Parses every design and runs each once (the warm-up), returning the
/// parsed instances; parse spans go to `spans`.
fn set_up(w: &Workload, spans: &mut SpanLog, rep: usize) -> Result<Vec<FloorplanInstance>, String> {
    let mut instances = Vec::with_capacity(w.designs.len());
    for (i, d) in w.designs.iter().enumerate() {
        let t = Instant::now();
        let instance = parse_instance(&d.text).map_err(|e| format!("design {i}: {e}"))?;
        spans.record("tree.parse", rep as u64, None, t, t.elapsed());
        instances.push(instance);
    }
    for (i, (d, instance)) in w.designs.iter().zip(&instances).enumerate() {
        let outcome = Optimizer::new(&instance.tree, &instance.library)
            .config(&w.config)
            .run_best()
            .map_err(|e| format!("warm-up of design {i}: {e}"))?;
        if !check(d, instance, &outcome, &w.check) {
            return Err(format!("warm-up of design {i} failed its check"));
        }
    }
    Ok(instances)
}

/// Runs workload `w` for `args.seconds` and reports its metrics.
pub fn run(args: &Args, mut w: Workload) -> Result<Report, String> {
    measure::release_free_memory();
    let epoch = Instant::now();
    let mut spans = SpanLog::new(epoch);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut instances = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(std::mem::take(&mut instances));
        let t = Instant::now();
        instances = set_up(&w, &mut spans, rep)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let parse_bytes: usize = w.designs.iter().map(|d| d.text.len()).sum::<usize>() * SETUP_REPS;
    for d in &mut w.designs {
        d.text = String::new();
    }

    let pid = std::process::id();
    let threads = w.config.resolved_threads();
    let mut layers = EngineLayers::new(threads);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let mut area_pct = Vec::new();
    let mut off_clock = Duration::ZERO;

    measure::reset_peak_rss(pid)?;
    let cpu0 = measure::cpu_seconds(pid)?;
    let start = Instant::now();
    let limit = Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    while start.elapsed() < limit {
        let k = op as usize % w.designs.len();
        let (design, instance) = (&w.designs[k], &instances[k]);
        // Alternate whole passes over the designs, so traced and untraced
        // ops see the same designs.
        let traced = args.trace && (op as usize / w.designs.len()) % 2 == 1;
        let tracer = traced.then(lossless_tracer);
        let optimizer = Optimizer::new(&instance.tree, &instance.library).config(&w.config);
        let optimizer = match &tracer {
            Some(tracer) => optimizer.tracer(tracer),
            None => optimizer,
        };
        let t = Instant::now();
        let result = optimizer.run_best();
        let latency = t.elapsed();

        let c = Instant::now();
        attempted += 1;
        match &result {
            Ok(outcome) if check(design, instance, outcome, &w.check) => {
                area_pct.push(100.0 * outcome.area as f64 / design.optimum as f64);
                if traced {
                    traced_ms.push(measure::ms(latency));
                } else {
                    untraced_ms.push(measure::ms(latency));
                }
            }
            _ => failed += 1,
        }
        if let (Some(tracer), Ok(outcome)) = (&tracer, &result) {
            let span = spans.record("engine.run_best", op, None, t, latency);
            layers.add(&tracer.drain(), &outcome.stats, &mut spans, op, span, t);
        }
        drop(result);
        off_clock += c.elapsed();
        op += 1;
    }
    let wall = start.elapsed().saturating_sub(off_clock).as_secs_f64();
    let cpu = measure::cpu_seconds(pid)? - cpu0;
    let peak_rss = measure::peak_rss_mib(pid)?;

    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0 && attempted > 0,
        ..Report::default()
    };
    let tail = measure::tail(&untraced_ms, failed as usize);
    report.info = w.info;
    report.info.extend([
        ("threads", threads.to_string()),
        ("designs", w.designs.len().to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        (
            "check_ms_per_op",
            format!("{}", measure::ms(off_clock) / attempted.max(1) as f64),
        ),
        ("tail_percentile", format!("{:.3}", tail.percentile)),
        ("tail_samples", tail.samples.to_string()),
        (
            "area_excess_pct",
            format!("{}", measure::mean(&area_pct) - 100.0),
        ),
    ]);
    if args.trace {
        if layers.dropped() > 0 {
            report.correct = false;
            eprintln!("perfbench: traced runs dropped {} events", layers.dropped());
        }
        let parse_ms = spans.durations_ms("tree.parse");
        let untraced_p50 = measure::median(&untraced_ms);
        report.metrics = layers.metrics(&spans);
        report.metrics.extend([
            ("tree.parse_ms", measure::mean(&parse_ms)),
            (
                "tree.parse_mb_per_s",
                parse_bytes as f64 / 1e6 / (parse_ms.iter().sum::<f64>() / 1e3),
            ),
            (
                "trace.overhead_pct",
                100.0 * (measure::median(&traced_ms) - untraced_p50) / untraced_p50,
            ),
            (
                "unattributed_ms",
                spans.self_ms_per_op(&["engine.run_best", "engine.run"], traced_ms.len()),
            ),
        ]);
        crate::write_spans(args, &spans, &mut report)?;
    } else {
        report.metrics = vec![
            ("setup_s", measure::median(&setups)),
            ("ops_per_s", (attempted - failed) as f64 / wall),
            ("p50_ms", measure::median(&untraced_ms)),
            ("tail_ms", tail.ms),
            ("cpu_ms_per_op", 1e3 * cpu / attempted.max(1) as f64),
            ("peak_rss_mb", peak_rss),
            ("area_pct_of_opt", measure::mean(&area_pct)),
        ];
    }
    Ok(report)
}
