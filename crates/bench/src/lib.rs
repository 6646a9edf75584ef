//! Benchmark harness regenerating the evaluation of Wang–Wong DAC'92.
//!
//! The paper's evaluation (its §5) consists of Tables 1–4 over the test
//! floorplans FP1–FP4 of Figure 8. This crate provides:
//!
//! * the experiment protocols ([`table_r`], [`table4`]) that produce rows
//!   in the paper's format — `N`, `K₁`/`K₂`, `M` (peak implementations
//!   stored), CPU seconds, and area-degradation percentages;
//! * quality ablations ([`ablation`]) for the design decisions called out
//!   in `DESIGN.md`;
//! * the `tables` binary (`cargo run -p fp-bench --release --bin tables`)
//!   that prints every table, and Criterion benches for the runtime
//!   components;
//! * the `fpbench` binary ([`harness`]) that runs the gated benchmark
//!   suites and writes their `BENCH_<suite>.json` artifacts.
//!
//! The 1991 SPARCstation's physical memory is emulated by the
//! implementation budget [`PAPER_MEMORY_CAP`] (the paper's failed runs
//! report `M > 8·10⁵`, so the cap is 800 000 implementations). Absolute
//! numbers differ from the paper's hardware; the reproduction targets the
//! *shape*: R_Selection cutting `M` and CPU severalfold at sub-percent
//! area loss, plain \[9\] dying on FP3/FP4, and `L_Selection` rescuing FP4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chart;
pub mod harness;
pub mod host;
mod suites;

use std::time::Duration;

use fp_geom::Area;
use fp_optimizer::{OptError, OptimizeConfig, Optimizer, Outcome};
use fp_select::LReductionPolicy;
use fp_tree::generators::{module_library, Benchmark};
use fp_tree::{FloorplanTree, ModuleLibrary};

/// Facade shorthand shared by the bench suites: optimize `tree` over
/// `library` under `config` and return the best outcome.
///
/// # Errors
///
/// Any [`OptError`] the engine reports.
pub fn optimize_best(
    tree: &FloorplanTree,
    library: &ModuleLibrary,
    config: &OptimizeConfig,
) -> Result<Outcome, OptError> {
    Optimizer::new(tree, library).config(config).run_best()
}

/// The emulated machine memory: the paper's failed runs report
/// `M > 8·10⁵` implementations.
pub const PAPER_MEMORY_CAP: usize = 800_000;

/// The result of one optimization run in a table protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunResult {
    /// The run completed.
    Done {
        /// Peak implementations stored (`M`).
        m: usize,
        /// CPU time.
        cpu: Duration,
        /// Time spent inside the R/L selection kernels (a subset of `cpu`).
        sel: Duration,
        /// Final floorplan area.
        area: Area,
    },
    /// The run exhausted the memory budget (the paper's `-` rows, with
    /// `M` reported as `> peak`).
    OutOfMemory {
        /// Peak implementations at failure.
        peak: usize,
        /// CPU time until failure.
        cpu: Duration,
    },
    /// The run tripped the budget but the rescue ladder completed it
    /// under automatically degraded policies — the tables report this
    /// usable (near-optimal) value instead of a bare `-` row.
    Rescued {
        /// Peak implementations stored (`M`).
        m: usize,
        /// CPU time including the rescue retries.
        cpu: Duration,
        /// Time spent inside the R/L selection kernels (a subset of `cpu`).
        sel: Duration,
        /// Final floorplan area under the degraded policies.
        area: Area,
        /// How many degradation rungs the ladder descended.
        degradations: usize,
    },
}

impl RunResult {
    /// The completed area, if the run finished.
    #[must_use]
    pub fn area(&self) -> Option<Area> {
        match self {
            RunResult::Done { area, .. } | RunResult::Rescued { area, .. } => Some(*area),
            RunResult::OutOfMemory { .. } => None,
        }
    }

    /// The peak storage (`M`), whether or not the run finished.
    #[must_use]
    pub fn peak(&self) -> usize {
        match self {
            RunResult::Done { m, .. } | RunResult::Rescued { m, .. } => *m,
            RunResult::OutOfMemory { peak, .. } => *peak,
        }
    }

    /// CPU time spent.
    #[must_use]
    pub fn cpu(&self) -> Duration {
        match self {
            RunResult::Done { cpu, .. }
            | RunResult::OutOfMemory { cpu, .. }
            | RunResult::Rescued { cpu, .. } => *cpu,
        }
    }

    /// Degradation rungs applied (0 unless the run was rescued).
    #[must_use]
    pub fn degradations(&self) -> usize {
        match self {
            RunResult::Rescued { degradations, .. } => *degradations,
            _ => 0,
        }
    }

    /// Time spent in the R/L selection kernels (zero for failed runs,
    /// which don't carry stats).
    #[must_use]
    pub fn selection(&self) -> Duration {
        match self {
            RunResult::Done { sel, .. } | RunResult::Rescued { sel, .. } => *sel,
            RunResult::OutOfMemory { .. } => Duration::ZERO,
        }
    }

    /// The selection kernels' share of total CPU, in percent (`None`
    /// when the run failed or took no measurable time).
    #[must_use]
    pub fn selection_share_pct(&self) -> Option<f64> {
        let cpu = self.cpu().as_secs_f64();
        match self {
            RunResult::OutOfMemory { .. } => None,
            _ if cpu <= 0.0 => None,
            _ => Some(100.0 * self.selection().as_secs_f64() / cpu),
        }
    }
}

/// Runs one configuration, translating `OutOfMemory` into a row value.
///
/// # Panics
///
/// Panics on structural errors (invalid tree/library) — benchmark inputs
/// are generated and must be valid.
#[must_use]
pub fn run_case(bench: &Benchmark, n: usize, seed: u64, config: &OptimizeConfig) -> RunResult {
    let library = module_library(&bench.tree, n, seed);
    match optimize_best(&bench.tree, &library, config) {
        Ok(Outcome { area, stats, .. }) => RunResult::Done {
            m: stats.peak_impls,
            cpu: stats.elapsed,
            sel: stats.selection_time,
            area,
        },
        Err(OptError::OutOfMemory { peak, .. }) => {
            // The failure elapsed time is not in the error; re-measure
            // cheaply as zero rather than lying. Callers print `-`.
            RunResult::OutOfMemory {
                peak,
                cpu: Duration::ZERO,
            }
        }
        Err(e) => panic!("benchmark input must be valid: {e}"),
    }
}

/// Like [`run_case`], but with the engine's rescue ladder enabled: a
/// budget trip degrades the selection policies and retries instead of
/// failing, yielding a [`RunResult::Rescued`] row.
///
/// # Panics
///
/// Panics on structural errors (invalid tree/library), like [`run_case`].
#[must_use]
pub fn run_case_rescued(
    bench: &Benchmark,
    n: usize,
    seed: u64,
    config: &OptimizeConfig,
) -> RunResult {
    let library = module_library(&bench.tree, n, seed);
    let cfg = config.clone().with_auto_rescue(true);
    match Optimizer::new(&bench.tree, &library).config(&cfg).run() {
        Ok(report) => {
            let degradations = report.degradations().len();
            let Outcome { area, stats, .. } = report.outcome;
            if degradations == 0 {
                RunResult::Done {
                    m: stats.peak_impls,
                    cpu: stats.elapsed,
                    sel: stats.selection_time,
                    area,
                }
            } else {
                RunResult::Rescued {
                    m: stats.peak_impls,
                    cpu: stats.elapsed,
                    sel: stats.selection_time,
                    area,
                    degradations,
                }
            }
        }
        Err(OptError::OutOfMemory { peak, .. }) => RunResult::OutOfMemory {
            peak,
            cpu: Duration::ZERO,
        },
        Err(e) => panic!("benchmark input must be valid: {e}"),
    }
}

/// [`run_case`], falling back to [`run_case_rescued`] when the plain run
/// dies on the budget — the table protocols use this so failed cells
/// carry a degradation report instead of a bare `-`.
#[must_use]
pub fn run_case_or_rescue(
    bench: &Benchmark,
    n: usize,
    seed: u64,
    config: &OptimizeConfig,
) -> RunResult {
    match run_case(bench, n, seed, config) {
        RunResult::OutOfMemory { .. } => run_case_rescued(bench, n, seed, config),
        done => done,
    }
}

/// One row of a Table 1–3 protocol: a test case at a given `K₁`.
#[derive(Debug, Clone)]
pub struct RTableRow {
    /// Test case number (1-based, as in the paper).
    pub case_no: usize,
    /// Implementations per module (`N`).
    pub n: usize,
    /// The plain \[9\] run of this case.
    pub plain: RunResult,
    /// The `K₁` of this row.
    pub k1: usize,
    /// The \[9\] + `R_Selection` run.
    pub reduced: RunResult,
}

impl RTableRow {
    /// `(A_R − A_OPT) / A_OPT` in percent, when both runs finished.
    #[must_use]
    pub fn area_excess_pct(&self) -> Option<f64> {
        let a_opt = self.plain.area()?;
        let a_r = self.reduced.area()?;
        Some(100.0 * (a_r as f64 - a_opt as f64) / a_opt as f64)
    }
}

/// A test case of the paper's protocol: 4 cases per floorplan, two `N`
/// levels, three `K₁` values each.
#[derive(Debug, Clone, Copy)]
pub struct RCase {
    /// Case number (1-based).
    pub case_no: usize,
    /// Implementations per module.
    pub n: usize,
    /// Module-set seed.
    pub seed: u64,
    /// The three `K₁` sweeps.
    pub k1s: [usize; 3],
}

/// The paper's case layout for Tables 1–3: cases 1–2 at the small `N`,
/// cases 3–4 at the large `N`, with `K₁` sweeping `{N, 1.5N, 2N}`.
#[must_use]
pub fn paper_cases(n_small: usize, n_large: usize) -> [RCase; 4] {
    let k1s = |n: usize| [n, n * 3 / 2, n * 2];
    [
        RCase {
            case_no: 1,
            n: n_small,
            seed: 101,
            k1s: k1s(n_small),
        },
        RCase {
            case_no: 2,
            n: n_small,
            seed: 102,
            k1s: k1s(n_small),
        },
        RCase {
            case_no: 3,
            n: n_large,
            seed: 103,
            k1s: k1s(n_large),
        },
        RCase {
            case_no: 4,
            n: n_large,
            seed: 104,
            k1s: k1s(n_large),
        },
    ]
}

/// Runs a Table 1/2/3 protocol: plain \[9\] vs \[9\] + `R_Selection` across
/// the cases, under the emulated memory cap.
#[must_use]
pub fn table_r(bench: &Benchmark, cases: &[RCase], cap: usize) -> Vec<RTableRow> {
    let mut rows = Vec::new();
    for case in cases {
        let plain_cfg = OptimizeConfig::default().with_memory_limit(Some(cap));
        let plain = run_case_or_rescue(bench, case.n, case.seed, &plain_cfg);
        for &k1 in &case.k1s {
            let cfg = plain_cfg.clone().with_r_selection(k1);
            let reduced = run_case_or_rescue(bench, case.n, case.seed, &cfg);
            rows.push(RTableRow {
                case_no: case.case_no,
                n: case.n,
                plain: plain.clone(),
                k1,
                reduced,
            });
        }
    }
    rows
}

/// One row of the Table 4 protocol: `R_Selection` alone vs
/// `R_Selection` + `L_Selection` at a given `K₂`.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Test case number.
    pub case_no: usize,
    /// Implementations per module.
    pub n: usize,
    /// `K₁` used by both runs.
    pub k1: usize,
    /// The \[9\] + `R_Selection` run.
    pub r_only: RunResult,
    /// `K₂` of this row.
    pub k2: usize,
    /// The \[9\] + `R_Selection` + `L_Selection` run.
    pub r_and_l: RunResult,
}

impl Table4Row {
    /// `(A_{R+L} − A_R) / A_R` in percent, when both runs finished.
    #[must_use]
    pub fn area_excess_pct(&self) -> Option<f64> {
        let a_r = self.r_only.area()?;
        let a_rl = self.r_and_l.area()?;
        Some(100.0 * (a_rl as f64 - a_r as f64) / a_r as f64)
    }
}

/// A Table 4 test case.
#[derive(Debug, Clone, Copy)]
pub struct LCase {
    /// Case number.
    pub case_no: usize,
    /// Implementations per module.
    pub n: usize,
    /// Module-set seed.
    pub seed: u64,
    /// `K₁` for the R-selection layer.
    pub k1: usize,
    /// The three `K₂` sweeps.
    pub k2s: [usize; 3],
}

/// Runs the Table 4 protocol on FP4-style inputs.
#[must_use]
pub fn table4(bench: &Benchmark, cases: &[LCase], cap: usize, prefilter: usize) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for case in cases {
        let r_cfg = OptimizeConfig::default()
            .with_memory_limit(Some(cap))
            .with_r_selection(case.k1);
        let r_only = run_case_or_rescue(bench, case.n, case.seed, &r_cfg);
        for &k2 in &case.k2s {
            let cfg = r_cfg
                .clone()
                .with_l_selection(LReductionPolicy::new(k2).with_prefilter(prefilter.max(k2 + 1)));
            let r_and_l = run_case_or_rescue(bench, case.n, case.seed, &cfg);
            rows.push(Table4Row {
                case_no: case.case_no,
                n: case.n,
                k1: case.k1,
                r_only: r_only.clone(),
                k2,
                r_and_l,
            });
        }
    }
    rows
}

/// Serializes Table 1–3 rows as CSV (one header, one line per row) for
/// downstream plotting.
///
/// ```
/// use fp_bench::{table_r, to_csv_r, RCase, PAPER_MEMORY_CAP};
/// use fp_tree::generators;
///
/// let bench = generators::fp1();
/// let case = RCase { case_no: 1, n: 4, seed: 1, k1s: [4, 6, 8] };
/// let rows = table_r(&bench, &[case], PAPER_MEMORY_CAP);
/// let csv = to_csv_r(&rows);
/// assert!(csv.starts_with("case,n,plain_m,plain_cpu_s,plain_area,k1,"));
/// assert_eq!(csv.lines().count(), 4); // header + 3 K1 rows
/// ```
#[must_use]
pub fn to_csv_r(rows: &[RTableRow]) -> String {
    let mut out = String::from(
        "case,n,plain_m,plain_cpu_s,plain_area,k1,m,cpu_s,area,area_excess_pct,sel_share_pct\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            row.case_no,
            row.n,
            csv_m(&row.plain),
            csv_cpu(&row.plain),
            csv_area(&row.plain),
            row.k1,
            csv_m(&row.reduced),
            csv_cpu(&row.reduced),
            csv_area(&row.reduced),
            row.area_excess_pct()
                .map_or(String::new(), |p| format!("{p:.4}")),
            csv_sel_share(&row.reduced),
        ));
    }
    out
}

/// Serializes Table 4 rows as CSV.
#[must_use]
pub fn to_csv_4(rows: &[Table4Row]) -> String {
    let mut out = String::from(
        "case,n,k1,r_m,r_cpu_s,r_area,k2,rl_m,rl_cpu_s,rl_area,area_excess_pct,sel_share_pct\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            row.case_no,
            row.n,
            row.k1,
            csv_m(&row.r_only),
            csv_cpu(&row.r_only),
            csv_area(&row.r_only),
            row.k2,
            csv_m(&row.r_and_l),
            csv_cpu(&row.r_and_l),
            csv_area(&row.r_and_l),
            row.area_excess_pct()
                .map_or(String::new(), |p| format!("{p:.4}")),
            csv_sel_share(&row.r_and_l),
        ));
    }
    out
}

fn csv_m(r: &RunResult) -> String {
    match r {
        RunResult::Done { m, .. } => m.to_string(),
        RunResult::OutOfMemory { peak, .. } => format!(">{peak}"),
        // `*<rungs>` marks an auto-rescued value so downstream plots can
        // tell degraded rows from exact ones.
        RunResult::Rescued {
            m, degradations, ..
        } => format!("{m}*{degradations}"),
    }
}

fn csv_cpu(r: &RunResult) -> String {
    match r {
        RunResult::Done { cpu, .. } | RunResult::Rescued { cpu, .. } => {
            format!("{:.6}", cpu.as_secs_f64())
        }
        RunResult::OutOfMemory { .. } => String::new(),
    }
}

fn csv_area(r: &RunResult) -> String {
    r.area().map_or(String::new(), |a| a.to_string())
}

fn csv_sel_share(r: &RunResult) -> String {
    r.selection_share_pct()
        .map_or(String::new(), |p| format!("{p:.2}"))
}

/// Formats a [`RunResult`]'s `M` column (`>peak` for failed runs, as in
/// the paper; a `*` suffix marks auto-rescued rows).
#[must_use]
pub fn fmt_m(r: &RunResult) -> String {
    match r {
        RunResult::Done { m, .. } => m.to_string(),
        RunResult::OutOfMemory { peak, .. } => format!("> {peak}"),
        RunResult::Rescued { m, .. } => format!("{m}*"),
    }
}

/// Formats a CPU column in seconds (`-` for failed runs).
#[must_use]
pub fn fmt_cpu(r: &RunResult) -> String {
    match r {
        RunResult::Done { cpu, .. } | RunResult::Rescued { cpu, .. } => {
            format!("{:.3}", cpu.as_secs_f64())
        }
        RunResult::OutOfMemory { .. } => "-".to_owned(),
    }
}

/// Formats an area-excess percentage (`-` when unavailable).
#[must_use]
pub fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(v) => format!("{v:.2}%"),
        None => "-".to_owned(),
    }
}

/// Formats a run's selection-kernel time share (`-` for failed runs).
#[must_use]
pub fn fmt_sel_share(r: &RunResult) -> String {
    fmt_pct(r.selection_share_pct())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_tree::generators;

    #[test]
    fn paper_cases_sweep_k1_proportionally() {
        let cases = paper_cases(20, 40);
        assert_eq!(cases[0].k1s, [20, 30, 40]);
        assert_eq!(cases[3].k1s, [40, 60, 80]);
        assert_eq!(cases.iter().filter(|c| c.n == 20).count(), 2);
    }

    #[test]
    fn table_r_smoke_on_fp1() {
        let bench = generators::fp1();
        let cases = [RCase {
            case_no: 1,
            n: 6,
            seed: 9,
            k1s: [6, 9, 12],
        }];
        let rows = table_r(&bench, &cases, PAPER_MEMORY_CAP);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let plain_area = row.plain.area().expect("plain fits at N=6");
            let red_area = row.reduced.area().expect("reduced fits");
            assert!(red_area >= plain_area);
            assert!(row.reduced.peak() <= row.plain.peak());
            assert!(row.area_excess_pct().expect("both ran") >= 0.0);
        }
    }

    #[test]
    fn table4_smoke_on_fp1() {
        let bench = generators::fp1();
        let cases = [LCase {
            case_no: 1,
            n: 6,
            seed: 9,
            k1: 8,
            k2s: [50, 100, 200],
        }];
        let rows = table4(&bench, &cases, PAPER_MEMORY_CAP, 4000);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.r_and_l.area().is_some());
        }
        // Larger K2 never increases area in this sweep ordering.
        let areas: Vec<_> = rows
            .iter()
            .map(|r| r.r_and_l.area().expect("ran"))
            .collect();
        assert!(areas[0] >= areas[2]);
    }

    #[test]
    fn csv_serialization() {
        let bench = generators::fp1();
        let cases = [RCase {
            case_no: 1,
            n: 4,
            seed: 9,
            k1s: [4, 6, 8],
        }];
        let rows = table_r(&bench, &cases, PAPER_MEMORY_CAP);
        let csv = to_csv_r(&rows);
        assert_eq!(csv.lines().count(), 4);
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 11, "{line}");
        }
        let lcases = [LCase {
            case_no: 1,
            n: 4,
            seed: 9,
            k1: 6,
            k2s: [40, 80, 160],
        }];
        let rows4 = table4(&bench, &lcases, PAPER_MEMORY_CAP, 1000);
        let csv4 = to_csv_4(&rows4);
        assert_eq!(csv4.lines().count(), 4);
        for line in csv4.lines().skip(1) {
            assert_eq!(line.split(',').count(), 12, "{line}");
        }
    }

    #[test]
    fn formatting_helpers() {
        let done = RunResult::Done {
            m: 42,
            cpu: Duration::from_millis(1500),
            sel: Duration::from_millis(300),
            area: 7,
        };
        let oom = RunResult::OutOfMemory {
            peak: 99,
            cpu: Duration::ZERO,
        };
        let rescued = RunResult::Rescued {
            m: 64,
            cpu: Duration::from_millis(250),
            sel: Duration::from_millis(100),
            area: 11,
            degradations: 3,
        };
        assert_eq!(fmt_m(&done), "42");
        assert_eq!(fmt_m(&oom), "> 99");
        assert_eq!(fmt_m(&rescued), "64*");
        assert_eq!(fmt_cpu(&done), "1.500");
        assert_eq!(fmt_cpu(&oom), "-");
        assert_eq!(fmt_cpu(&rescued), "0.250");
        assert_eq!(fmt_pct(Some(1.234)), "1.23%");
        assert_eq!(fmt_pct(None), "-");
        assert_eq!(done.area(), Some(7));
        assert_eq!(oom.area(), None);
        assert_eq!(oom.peak(), 99);
        assert_eq!(rescued.area(), Some(11));
        assert_eq!(rescued.peak(), 64);
        assert_eq!(rescued.degradations(), 3);
        assert_eq!(done.degradations(), 0);
        assert_eq!(done.selection(), Duration::from_millis(300));
        assert_eq!(oom.selection(), Duration::ZERO);
        assert_eq!(fmt_sel_share(&done), "20.00%");
        assert_eq!(fmt_sel_share(&rescued), "40.00%");
        assert_eq!(fmt_sel_share(&oom), "-");
    }

    #[test]
    fn rescue_replaces_dash_rows() {
        // A budget that kills the plain FP1 run at N=6: the table
        // protocol now reports a rescued row instead of `-`.
        let bench = generators::fp1();
        let plain = run_case(&bench, 6, 9, &OptimizeConfig::default());
        let budget = plain.peak() * 3 / 4;
        let tiny = OptimizeConfig::default().with_memory_limit(Some(budget));
        assert!(matches!(
            run_case(&bench, 6, 9, &tiny),
            RunResult::OutOfMemory { .. }
        ));
        let rescued = run_case_or_rescue(&bench, 6, 9, &tiny);
        match &rescued {
            RunResult::Rescued {
                area, degradations, ..
            } => {
                assert!(*degradations > 0);
                assert!(*area >= plain.area().expect("plain ran"));
            }
            other => panic!("expected a rescued row, got {other:?}"),
        }
        // The rescued row renders with the `*` marker in both formats.
        assert!(fmt_m(&rescued).ends_with('*'));
        assert!(csv_m(&rescued).contains('*'));
    }
}
