//! `trace`: the observability layer's overhead budget. For each paper
//! benchmark the same optimization runs three ways:
//!
//! * **disabled**: no tracer attached (the facade's `None` fast path);
//! * **unsubscribed**: `Tracer::unsubscribed()` attached, so every
//!   emission site takes one extra branch but records nothing. This is
//!   the mode production callers pay for "tracing available but off";
//! * **subscribed**: `Tracer::new()` attached and drained per run: the
//!   full ring-buffer collection cost.
//!
//! Gate: the unsubscribed overhead must stay ≤ 2% on every row whose
//! disabled run takes ≥ 10 ms, the shortest run this host can time to
//! 2%; enforced on full runs. FP1–FP4 at `n = 8` all run in a few
//! milliseconds, so no row reaches that floor and the gate records
//! itself as not enforced. `--smoke` runs FP1–FP2 at `n = 4`.

use fp_optimizer::{OptimizeConfig, Optimizer, Tracer};
use fp_tree::generators;
use fp_tree::{FloorplanTree, ModuleLibrary};

use crate::harness::{best_of, fixed, timed, Gate, Run, Suite, SMOKE};

pub(crate) const SUITE: Suite = Suite {
    name: "trace",
    benchmark: "trace_overhead",
    reps: 5,
    flags: &[],
    constants: &[],
    kinds: &[(
        "overhead",
        &[
            "bench",
            "disabled_millis",
            "unsubscribed_millis",
            "subscribed_millis",
            "unsubscribed_overhead_pct",
            "subscribed_events",
        ],
    )],
    gates: &["unsubscribed_overhead_pct"],
    run,
};

/// Maximum tolerated unsubscribed overhead, percent.
const OVERHEAD_GATE_PCT: f64 = 2.0;
/// Benchmarks faster than this are too noisy to gate on.
const GATE_FLOOR_MILLIS: f64 = 10.0;

fn run(run: &mut Run) {
    let n = if run.smoke { 4 } else { 8 };
    // The largest overhead over the rows long enough to gate on.
    let mut gated: Option<f64> = None;
    for bench in run.paper_benchmarks() {
        let name = &bench.name;
        run.progress(format_args!("{name} (n = {n}, reps = {})", run.reps));
        let library = generators::module_library(&bench.tree, n, 7);
        let times = overheads(name, &bench.tree, &library, run.reps);
        let pct = if times.disabled > 0.0 {
            100.0 * (times.unsubscribed - times.disabled) / times.disabled
        } else {
            0.0
        };
        if times.disabled >= GATE_FLOOR_MILLIS {
            gated = Some(gated.map_or(pct, |worst| worst.max(pct)));
        }
        run.row("overhead", |row| {
            row.str("bench", name)
                .raw("disabled_millis", &fixed(times.disabled, 3))
                .raw("unsubscribed_millis", &fixed(times.unsubscribed, 3))
                .raw("subscribed_millis", &fixed(times.subscribed, 3))
                .raw("unsubscribed_overhead_pct", &fixed(pct, 2))
                .u64("subscribed_events", times.events as u64);
        });
    }
    run.gate(
        Gate::at_most("unsubscribed_overhead_pct", OVERHEAD_GATE_PCT, gated)
            .skip_if(run.smoke, SMOKE)
            .skip_if(
                gated.is_none(),
                format!("no row runs {GATE_FLOOR_MILLIS} ms or longer"),
            ),
    );
}

/// Best times of the three modes, in milliseconds.
struct Overheads {
    disabled: f64,
    unsubscribed: f64,
    subscribed: f64,
    /// Events the last subscribed run collected.
    events: usize,
}

fn overheads(name: &str, tree: &FloorplanTree, library: &ModuleLibrary, reps: usize) -> Overheads {
    let config = OptimizeConfig::default().with_r_selection(8);
    let optimizer = || Optimizer::new(tree, library).config(&config);
    // Warm-up: page in the instance and the allocator.
    let baseline = optimizer().run_best().expect("baseline solves").area;

    let (disabled, area) = best_of(reps, || {
        timed(|| optimizer().run_best().expect("disabled run solves").area)
    });
    assert_eq!(area, baseline, "{name}: tracing changed the result");

    let muted = Tracer::unsubscribed();
    let (unsubscribed, area) = best_of(reps, || {
        timed(|| {
            optimizer()
                .tracer(&muted)
                .run_best()
                .expect("unsubscribed run solves")
                .area
        })
    });
    assert_eq!(area, baseline, "{name}: tracing changed the result");

    let mut events = 0;
    let (subscribed, area) = best_of(reps, || {
        let tracer = Tracer::new();
        let run = timed(|| {
            optimizer()
                .tracer(&tracer)
                .run_best()
                .expect("subscribed run solves")
                .area
        });
        events = tracer.drain().events.len();
        run
    });
    assert_eq!(area, baseline, "{name}: tracing changed the result");

    Overheads {
        disabled,
        unsubscribed,
        subscribed,
        events,
    }
}
