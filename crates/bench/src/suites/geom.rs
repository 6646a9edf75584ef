//! `geom`: throughput of the scanline polygonize / whitespace pass on a
//! paper benchmark (FP4, optimized placement) and a mega-scale instance
//! (FP5-10k, first-fit placement).
//!
//! The timed span is [`fp_tree::layout::Layout::polygonize`] alone (the
//! scanline union into dead-space regions plus the merged block
//! outlines) over an already-realized layout; how the layout was found
//! is reported but not timed. Every repetition must return the same
//! geometry.
//!
//! Gate, in every mode: whitespace conservation on every row. The
//! whitespace total must equal envelope area − Σ block areas, exactly,
//! in integer coordinates. `--smoke` runs the same instances with one
//! repetition.

use fp_optimizer::{OptimizeConfig, Optimizer};
use fp_tree::layout::{realize, Assignment, Layout};
use fp_tree::{generators, mega};

use crate::harness::{best_of, fixed, timed, Gate, Run, Suite};

pub(crate) const SUITE: Suite = Suite {
    name: "geom",
    benchmark: "layout polygonize / whitespace pass",
    reps: 5,
    flags: &[],
    constants: &[],
    kinds: &[(
        "polygonize",
        &[
            "bench",
            "modules",
            "blocks",
            "placement",
            "envelope_area",
            "dead_space",
            "whitespace_regions",
            "whitespace_total",
            "whitespace_largest",
            "outline_rings",
            "pass_millis",
            "blocks_per_sec",
            "conserved",
            "peak_rss_bytes",
        ],
    )],
    gates: &["unconserved_rows"],
    run,
};

fn run(run: &mut Run) {
    // FP4 under its optimal assignment: the dead-space distribution of
    // a placement the paper's optimizer actually picks.
    run.progress("FP4 (optimized placement)");
    let fp4 = generators::fp4();
    let lib4 = generators::module_library(&fp4.tree, 8, 7);
    let outcome = Optimizer::new(&fp4.tree, &lib4)
        .config(&OptimizeConfig::default())
        .run_best()
        .expect("FP4 solves");
    let layout4 = realize(&fp4.tree, &lib4, &outcome.assignment).expect("FP4 realizes");
    let mut unconserved = polygonize_row(run, "FP4", "optimized", &layout4);

    // FP5-10k under a first-fit assignment: the pass is the subject,
    // not the optimizer, so the mega instance skips the solve.
    run.progress("FP5-10k (first-fit placement)");
    let fp5 = mega::fp5();
    let lib5 = mega::mega_library(&fp5.tree, &mega::fp5_config());
    let first_fit = Assignment::first_fit(fp5.tree.module_count());
    let layout5 = realize(&fp5.tree, &lib5, &first_fit).expect("FP5-10k realizes");
    unconserved += polygonize_row(run, "FP5-10k", "first_fit", &layout5);

    run.gate(Gate::at_most(
        "unconserved_rows",
        0.0,
        Some(unconserved as f64),
    ));
}

/// Times the pass over `layout` and records its row; returns 1 when the
/// whitespace is not conserved, else 0.
fn polygonize_row(run: &mut Run, name: &str, placement: &str, layout: &Layout) -> usize {
    let (millis, poly) = best_of(run.reps, || timed(|| layout.polygonize()));
    let ws = &poly.whitespace;
    let conserved = ws.total == layout.dead_space();
    let blocks = layout.placed.len();
    let peak_rss = run.peak_rss();
    run.row("polygonize", |row| {
        row.str("bench", name)
            .u64("modules", blocks as u64)
            .u64("blocks", blocks as u64)
            .str("placement", placement)
            .u128("envelope_area", layout.area())
            .u128("dead_space", layout.dead_space())
            .u64("whitespace_regions", ws.count() as u64)
            .u128("whitespace_total", ws.total)
            .u128("whitespace_largest", ws.largest())
            .u64("outline_rings", poly.outlines.len() as u64)
            .raw("pass_millis", &fixed(millis, 3))
            .raw(
                "blocks_per_sec",
                &fixed(blocks as f64 / (millis / 1e3).max(1e-9), 0),
            )
            .bool("conserved", conserved)
            .u64("peak_rss_bytes", peak_rss);
    });
    usize::from(!conserved)
}
