//! `paper-rl`: the paper's Table 4 setting under R/L selection.
//!
//! FP4 (245 modules, wheel-rich) with N = 12 implementations per module,
//! `K1 = 2N = 24`, `K2 = 300`, prefilter `S = 1000`, θ = 1, one thread, no
//! cache. This is the only workload where `fp-select` and the CSPP solvers
//! run, and where L-list kernels dominate instead of R-lists. Selection
//! trades area for speed, so every op's area is compared with the design's
//! exact optimum.

use std::time::Instant;

use fp_optimizer::{OptimizeConfig, Optimizer};
use fp_select::LReductionPolicy;
use fp_tree::format::{write_instance, FloorplanInstance};
use fp_tree::generators;

use crate::inproc::{self, Check, Design, Workload};
use crate::measure;
use crate::{Args, Report};

const N: usize = 12;
const K1: usize = 2 * N;
const K2: usize = 300;
const PREFILTER: usize = 1000;
/// Module libraries per run, cycled. Area loss differs a lot from one
/// library to the next (0.2–3 % on FP4), so a run averages over many to
/// repeat across seeds.
const DESIGNS: u64 = 32;

fn config() -> OptimizeConfig {
    OptimizeConfig::default()
        .with_threads(1)
        .with_r_selection(K1)
        .with_l_selection(
            LReductionPolicy::new(K2)
                .with_theta(1.0)
                .with_prefilter(PREFILTER)
                .with_workers(1),
        )
}

/// One design with its exact optimum, computed before set-up starts.
fn design(seed: u64) -> Result<Design, String> {
    let bench = generators::fp4();
    let library = generators::module_library(&bench.tree, N, seed);
    let exact = Optimizer::new(&bench.tree, &library)
        .config(&OptimizeConfig::default().with_threads(1))
        .run_best()
        .map_err(|e| format!("exact reference of library {seed}: {e}"))?;
    let text = write_instance(&FloorplanInstance {
        name: format!("FP4-N{N}-lib{seed}"),
        tree: bench.tree,
        library,
    })
    .map_err(|e| format!("library {seed}: {e}"))?;
    Ok(Design {
        text,
        optimum: exact.area,
        digest: None,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let t = Instant::now();
    let seeds: Vec<u64> = (0..DESIGNS)
        .map(|i| measure::derive_seed(args.seed, 0x7061_7065, i))
        .collect();
    let designs = seeds
        .iter()
        .map(|&s| design(s))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!(
        "perfbench: paper-rl generated {} designs with exact optima in {:.1} s",
        designs.len(),
        t.elapsed().as_secs_f64()
    );
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    inproc::run(
        args,
        Workload {
            designs,
            config: config(),
            check: Check::Bounded,
            info: vec![
                ("n", N.to_string()),
                ("k1", K1.to_string()),
                ("k2", K2.to_string()),
                ("prefilter", PREFILTER.to_string()),
                ("library_seeds", format!("[{}]", seed_list.join(","))),
            ],
        },
    )
}
