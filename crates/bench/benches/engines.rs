//! Ablation B: fault-model routing cost (partial vs total faults) and
//! step-8 strategy (bitonic merge vs the paper's literal full sort),
//! plus an engine wall-clock group whose rows carry a per-phase
//! breakdown of each iteration's wall time (via `iter_spanned`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ft_bench::{random_faults, random_keys};
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{
    fault_tolerant_sort, fault_tolerant_sort_configured, fault_tolerant_sort_observed, FtConfig,
    FtPlan, Step8Strategy,
};
use hypercube::cost::CostModel;
use hypercube::fault::FaultModel;
use hypercube::sim::EngineKind;
use std::hint::black_box;
use std::time::Instant;

const M: usize = 16_000;

fn bench_fault_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_model");
    group.sample_size(20);
    for model in [FaultModel::Partial, FaultModel::Total] {
        group.bench_function(format!("{model:?}"), |b| {
            let mut rng = ft_bench::rng(6);
            let faults = random_faults(6, 5, &mut rng).with_model(model);
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| {
                    black_box(
                        fault_tolerant_sort(
                            &faults,
                            CostModel::default(),
                            data,
                            Protocol::HalfExchange,
                        )
                        .unwrap(),
                    )
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_step8_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("step8_strategy");
    group.sample_size(20);
    let mut rng = ft_bench::rng(7);
    let faults = random_faults(6, 5, &mut rng);
    let plan = FtPlan::new(&faults).unwrap();
    for step8 in [Step8Strategy::BitonicMerge, Step8Strategy::FullSort] {
        group.bench_function(format!("{step8:?}"), |b| {
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| {
                    black_box(fault_tolerant_sort_configured(
                        &plan,
                        &FtConfig {
                            step8,
                            ..FtConfig::default()
                        },
                        data,
                    ))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_routers(c: &mut Criterion) {
    use hypercube::sim::RouterKind;
    let mut group = c.benchmark_group("router");
    group.sample_size(20);
    let mut rng = ft_bench::rng(8);
    let faults = random_faults(6, 5, &mut rng).with_model(FaultModel::Total);
    let plan = FtPlan::new(&faults).unwrap();
    for router in [RouterKind::Oracle, RouterKind::Adaptive] {
        group.bench_function(format!("{router:?}"), |b| {
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| {
                    black_box(fault_tolerant_sort_configured(
                        &plan,
                        &FtConfig {
                            router,
                            ..FtConfig::default()
                        },
                        data,
                    ))
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_engine_wall(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_wall");
    group.sample_size(10);
    let mut rng = ft_bench::rng(9);
    let faults = random_faults(6, 5, &mut rng);
    let plan = FtPlan::new(&faults).unwrap();
    let data = random_keys(M, &mut rng);
    for engine in [EngineKind::Seq, EngineKind::Par] {
        group.bench_function(format!("{engine:?}"), |b| {
            let config = FtConfig {
                protocol: Protocol::HalfExchange,
                engine,
                ..FtConfig::default()
            };
            b.iter_spanned(|rec| {
                let input = data.clone();
                let start = Instant::now();
                let (out, phases, _) = fault_tolerant_sort_observed(&plan, &config, input);
                let wall = start.elapsed();
                // Attribute the iteration's wall clock across the sort's
                // phases in proportion to their virtual-time split — the
                // engines interleave phases across host threads, so the
                // virtual profile is the only consistent attribution base.
                let split = [
                    ("scatter", phases.host_scatter_us),
                    ("step3", phases.step3_us),
                    ("step7", phases.step7_us),
                    ("step8", phases.step8_us),
                    ("gather", phases.host_gather_us),
                ];
                let total: f64 = split.iter().map(|(_, us)| us).sum();
                if total > 0.0 {
                    for (name, us) in split {
                        if us > 0.0 {
                            rec.record(name, wall.mul_f64(us / total));
                        }
                    }
                }
                black_box(out)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_models,
    bench_step8_strategies,
    bench_routers,
    bench_engine_wall
);
criterion_main!(benches);
