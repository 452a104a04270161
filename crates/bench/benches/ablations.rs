//! Ablation benches for the design choices the paper argues for, timed on
//! the virtual clock of `p2mdie_cluster::vtime` over the synthetic data of
//! `p2mdie_datasets`:
//! pipelined data-parallelism (p²-mdie) vs data-parallel coverage testing
//! (§6 related work) vs per-epoch repartitioning (§4.1's rejected
//! alternative), all on the same virtual cluster.

use criterion::{criterion_group, criterion_main, Criterion};
use p2mdie_cluster::CostModel;
use p2mdie_core::baselines::{run_coverage_parallel, EvalGranularity};
use p2mdie_core::driver::{run_parallel, ParallelConfig};
use p2mdie_datasets::carcinogenesis;
use p2mdie_ilp::settings::Width;
use std::hint::black_box;

const SCALE: f64 = 0.08;
const SEED: u64 = 2005;
const P: usize = 4;

fn bench_strategies(c: &mut Criterion) {
    let d = carcinogenesis(SCALE, SEED);
    let model = CostModel::beowulf_2005();
    let mut g = c.benchmark_group("strategy_ablation");
    g.sample_size(10);
    g.bench_function("p2mdie_width10", |b| {
        b.iter(|| {
            let cfg = ParallelConfig::new(P, Width::Limit(10), SEED);
            black_box(run_parallel(&d.engine, &d.examples, &cfg).unwrap())
        })
    });
    g.bench_function("p2mdie_repartition", |b| {
        b.iter(|| {
            let cfg = ParallelConfig::new(P, Width::Limit(10), SEED).with_repartition();
            black_box(run_parallel(&d.engine, &d.examples, &cfg).unwrap())
        })
    });
    g.bench_function("coverage_parallel_per_level", |b| {
        b.iter(|| {
            black_box(
                run_coverage_parallel(
                    &d.engine,
                    &d.examples,
                    P,
                    EvalGranularity::PerLevel,
                    model,
                    SEED,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("coverage_parallel_per_clause", |b| {
        b.iter(|| {
            black_box(
                run_coverage_parallel(
                    &d.engine,
                    &d.examples,
                    P,
                    EvalGranularity::PerClause,
                    model,
                    SEED,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

fn bench_width_sweep(c: &mut Criterion) {
    // The pipeline-width ablation behind Tables 2-4.
    let d = carcinogenesis(SCALE, SEED);
    let mut g = c.benchmark_group("width_ablation");
    g.sample_size(10);
    for width in [
        Width::Limit(1),
        Width::Limit(10),
        Width::Limit(100),
        Width::Unlimited,
    ] {
        g.bench_function(format!("width_{}", width.label()), |b| {
            b.iter(|| {
                let cfg = ParallelConfig::new(P, width, SEED);
                black_box(run_parallel(&d.engine, &d.examples, &cfg).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_strategies, bench_width_sweep);
criterion_main!(benches);
