//! `mega-cold`: cold exact optimization of FP6-class mega floorplans.
//!
//! FP6-50k's recipe (50 000 modules, deep profile) with generator seeds
//! derived from the workload seed. The optimizer runs exact, uncached, at
//! two scheduler threads, so the shape kernels, restructuring and the
//! tree-split scheduler do all the work; selection, the block cache and
//! the serving layers do none. Consecutive ops never see the same design.

use std::time::Instant;

use fp_optimizer::{OptimizeConfig, Optimizer};
use fp_tree::format::{write_instance, FloorplanInstance};
use fp_tree::mega::{mega_floorplan, mega_library, DepthProfile, MegaConfig};

use crate::inproc::{self, Check, Design, Workload};
use crate::measure;
use crate::{Args, Report};

const MODULES: usize = 50_000;
/// Designs per run, cycled.
const DESIGNS: u64 = 4;
/// Scheduler threads of the measured runs. Pinned, not taken from the
/// host or `$FP_THREADS`.
const THREADS: usize = 2;

/// Generates one design and its exact reference. The reference runs the
/// serial path on the generated tree, so neither parsing nor the parallel
/// scheduler under test takes part in it.
fn design(seed: u64) -> Result<Design, String> {
    let cfg = MegaConfig::new(MODULES)
        .with_profile(DepthProfile::Deep)
        .with_seed(seed);
    let bench = mega_floorplan(&cfg);
    let library = mega_library(&bench.tree, &cfg);
    let reference = Optimizer::new(&bench.tree, &library)
        .config(&OptimizeConfig::default().with_threads(1))
        .run_best()
        .map_err(|e| format!("reference of design {seed}: {e}"))?;
    let layout = fp_tree::layout::realize(&bench.tree, &library, &reference.assignment)
        .map_err(|e| format!("reference layout of design {seed}: {e}"))?;
    if layout.area() != reference.area || layout.validate().is_some() {
        return Err(format!(
            "reference layout of design {seed} does not validate"
        ));
    }
    let text = write_instance(&FloorplanInstance {
        name: cfg.name(),
        tree: bench.tree,
        library,
    })
    .map_err(|e| format!("design {seed}: {e}"))?;
    Ok(Design {
        text,
        optimum: reference.area,
        digest: Some(measure::digest(&reference.assignment.choices)),
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let t = Instant::now();
    let seeds: Vec<u64> = (0..DESIGNS)
        .map(|i| measure::derive_seed(args.seed, 0x6d65_6761, i))
        .collect();
    let designs = seeds
        .iter()
        .map(|&s| design(s))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!(
        "perfbench: mega-cold generated {} designs with references in {:.1} s",
        designs.len(),
        t.elapsed().as_secs_f64()
    );
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    inproc::run(
        args,
        Workload {
            designs,
            config: OptimizeConfig::default().with_threads(THREADS),
            check: Check::Exact,
            info: vec![
                ("modules", MODULES.to_string()),
                ("design_seeds", format!("[{}]", seed_list.join(","))),
            ],
        },
    )
}
