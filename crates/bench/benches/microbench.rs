//! Microbenchmarks of the substrates: the injection hook's overhead on
//! tracked arithmetic, fabric point-to-point latency, collective cost vs
//! rank count, and single fault-free runs of every application.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim_inject::{ctx, InjectionPlan, RankCtx, Tf64};
use resilim_simmpi::{ReduceOp, World};
use std::time::Duration;

/// Tracked arithmetic with and without an installed context, against raw
/// `f64` — quantifies what the F-SEFI-substitute instrumentation costs.
fn bench_tf64(c: &mut Criterion) {
    let mut group = c.benchmark_group("tf64");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let xs: Vec<f64> = (0..1024).map(|i| 1.0 + i as f64 * 0.001).collect();

    group.bench_function("raw_f64_fma_chain", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &x in &xs {
                acc = acc * 0.999 + x;
            }
            black_box(acc)
        })
    });

    group.bench_function("tracked_no_ctx", |b| {
        b.iter(|| {
            let mut acc = Tf64::ZERO;
            for &x in &xs {
                acc = acc * 0.999 + x;
            }
            black_box(acc.value())
        })
    });

    group.bench_function("tracked_with_ctx", |b| {
        ctx::install(RankCtx::profiling(0));
        b.iter(|| {
            let mut acc = Tf64::ZERO;
            for &x in &xs {
                acc = acc * 0.999 + x;
            }
            black_box(acc.value())
        });
        ctx::take();
    });

    group.bench_function("tracked_with_pending_target", |b| {
        // A plan whose target never fires: the common case during a test.
        ctx::install(RankCtx::new(
            0,
            InjectionPlan::single(resilim_inject::Target {
                region: resilim_inject::Region::Common,
                op_index: u64::MAX,
                bit: 3,
                operand: resilim_inject::Operand::A,
            }),
        ));
        b.iter(|| {
            let mut acc = Tf64::ZERO;
            for &x in &xs {
                acc = acc * 0.999 + x;
            }
            black_box(acc.value())
        });
        ctx::take();
    });

    // The observability hooks in the same hot path, off vs on: "off" is
    // the production default (one relaxed load per potential record) and
    // must stay indistinguishable from tracked_with_ctx above.
    for (label, enabled) in [("obs_off", false), ("obs_on", true)] {
        group.bench_function(format!("tracked_with_ctx_{label}"), |b| {
            resilim_obs::set_enabled(enabled);
            ctx::install(RankCtx::profiling(0));
            b.iter(|| {
                let mut acc = Tf64::ZERO;
                for &x in &xs {
                    acc = acc * 0.999 + x;
                }
                black_box(acc.value())
            });
            ctx::take();
            resilim_obs::set_enabled(false);
        });
    }
    group.finish();
}

/// Collectives and world-spawn cost as rank count grows.
fn bench_simmpi(c: &mut Criterion) {
    let mut group = c.benchmark_group("simmpi");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(20);

    for p in [2usize, 8, 32, 64] {
        // Pooled (the default path: rank coroutines on cached stacks)…
        group.bench_with_input(BenchmarkId::new("spawn_barrier", p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|comm| {
                    comm.barrier();
                    comm.rank()
                })
            })
        });
        // …vs p fresh OS threads per trial (the reference carrier).
        group.bench_with_input(
            BenchmarkId::new("spawn_barrier_unpooled", p),
            &p,
            |b, &p| {
                let world = World::new(p);
                b.iter(|| {
                    world.run_spawned(
                        |_| None,
                        |comm| {
                            comm.barrier();
                            comm.rank()
                        },
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("allreduce_100x", p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|comm| {
                    let mut acc = Tf64::ZERO;
                    for _ in 0..100 {
                        acc = comm.allreduce_scalar(ReduceOp::Sum, Tf64::ONE);
                    }
                    acc.value()
                })
            })
        });
    }
    group.finish();
}

/// One fault-free run of every application, serial and at 8 ranks — the
/// unit of campaign cost.
fn bench_apps(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);

    for app in App::ALL {
        for p in [1usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(app.name(), p),
                &(app, p),
                |b, &(app, p)| {
                    let world = World::new(p);
                    b.iter(|| {
                        world.run_with_ctx(
                            |rank| Some(RankCtx::profiling(rank)),
                            move |comm| app.run_rank(comm),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// End-to-end trial throughput (trials/sec) of the execution engine: a
/// fixed CG p=4 deployment over a pre-warmed golden store, jobs=1 vs
/// jobs=auto. The CI bench-smoke step runs this once per build.
fn bench_trial_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_throughput");
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);

    let tests = 16usize;
    group.throughput(Throughput::Elements(tests as u64));
    for (label, auto) in [("cg_p4_jobs1", false), ("cg_p4_jobs_auto", true)] {
        let runner = if auto {
            CampaignRunner::new().with_auto_parallelism()
        } else {
            CampaignRunner::new()
        };
        let spec = CampaignSpec::new(
            App::Cg.default_spec(),
            4,
            ErrorSpec::OneParallel,
            tests,
            2018,
        );
        // Profile outside the timed region: the bench measures trial
        // execution, not golden measurement.
        runner.golden().get(&spec.spec, spec.procs);
        group.bench_function(label, |b| b.iter(|| runner.run_uncached(&spec)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tf64,
    bench_simmpi,
    bench_apps,
    bench_trial_throughput
);
criterion_main!(benches);
