//! Criterion benches for the DESIGN.md §6 ablations (runtime side; the
//! quality side is printed by `tables -- ablations`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_bench::optimize_best;
use fp_optimizer::OptimizeConfig;
use fp_select::{LReductionPolicy, Metric};
use fp_tree::generators::{self, module_library};

/// Ablation: the θ trigger's runtime effect (vetoing reductions trades
/// memory for selection time).
fn bench_theta(c: &mut Criterion) {
    let bench = generators::fp1();
    let lib = module_library(&bench.tree, 10, 7);
    let mut group = c.benchmark_group("ablation_theta_fp1_n10");
    group.sample_size(10);
    for theta in [0.25f64, 0.5, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(theta), &theta, |b, &theta| {
            let cfg = OptimizeConfig::default()
                .with_l_selection(LReductionPolicy::new(150).with_theta(theta));
            b.iter(|| optimize_best(&bench.tree, &lib, &cfg).expect("fits"));
        });
    }
    group.finish();
}

/// Ablation: the prefilter S makes large-list reduction affordable.
fn bench_prefilter(c: &mut Criterion) {
    let bench = generators::fp1();
    let lib = module_library(&bench.tree, 10, 7);
    let mut group = c.benchmark_group("ablation_prefilter_fp1_n10");
    group.sample_size(10);
    group.bench_function("off", |b| {
        let cfg = OptimizeConfig::default().with_l_selection(LReductionPolicy::new(150));
        b.iter(|| optimize_best(&bench.tree, &lib, &cfg).expect("fits"));
    });
    for s in [400usize, 1000] {
        group.bench_with_input(BenchmarkId::new("s", s), &s, |b, &s| {
            let cfg = OptimizeConfig::default()
                .with_l_selection(LReductionPolicy::new(150).with_prefilter(s));
            b.iter(|| optimize_best(&bench.tree, &lib, &cfg).expect("fits"));
        });
    }
    group.finish();
}

/// Ablation: metric choice (L1 runs on exact integers; L2/Linf go through
/// the float CSPP path).
fn bench_metric(c: &mut Criterion) {
    let bench = generators::fp1();
    let lib = module_library(&bench.tree, 8, 7);
    let mut group = c.benchmark_group("ablation_metric_fp1_n8");
    group.sample_size(10);
    for (name, metric) in [
        ("L1", Metric::L1),
        ("L2", Metric::L2),
        ("Linf", Metric::Linf),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &metric, |b, &metric| {
            let cfg = OptimizeConfig::default()
                .with_l_selection(LReductionPolicy::new(120).with_metric(metric));
            b.iter(|| optimize_best(&bench.tree, &lib, &cfg).expect("fits"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_theta, bench_prefilter, bench_metric);
criterion_main!(benches);
