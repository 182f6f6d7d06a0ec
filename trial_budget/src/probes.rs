//! Workload-independent per-layer probes: each times one layer's
//! **public** API from the outside, once per traced invocation. The
//! numbers have no bound; they exist so a change to one layer can be
//! located (and so two commits can be compared on what each layer
//! costs, not only on the end-to-end result).

use crate::drive::{
    mirror_campaign, serve_config, served_segment, served_setup, Ctx, Env, MirrorOpts, StoreDirs,
    Tally, TmpDir,
};
use crate::stats::median;
use crate::workload::{campaign_seed, served_tenants, Sizes, Workload};
use resilim_apps::util::splitmix64;
use resilim_apps::App;
use resilim_core::{
    FiAccumulator, FiResult, LogisticModel, ModelInputs, OutcomeKind, PaperEq8, PropagationProfile,
    SamplePoints, TrialFeatures,
};
use resilim_harness::campaign::{TrialConsumer, TrialPipeline, TrialRecord};
use resilim_harness::{
    CampaignAccumulator, CampaignRunner, CampaignSpec, ErrorSpec, FeatureStore, GoldenStore,
    TrialLedger,
};
use resilim_inject::{ctx, InjectionPlan, Operand, RankCtx, Region, Target, TestOutcome, Tf64};
use resilim_obs as obs;
use resilim_serve::{Client, Request, SubmitSpec};
use resilim_simmpi::{ReduceOp, World, WorldPool};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The scales of the budget grid.
pub const SCALES: [usize; 4] = [1, 4, 8, 64];

/// Probe results: metric name → value, plus the per-app figures the
/// per-workload shares are computed from.
#[derive(Debug, Default)]
pub struct Probes {
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// `apps.untracked_ms_p1.<app>`, in `App::ALL` order.
    pub untracked_ms: [f64; 6],
    /// `apps.tracked_ms_p1.<app>`, in `App::ALL` order.
    pub tracked_ms: [f64; 6],
    /// `inject.ns_per_op_ctx − inject.ns_per_op_raw`.
    pub hook_ns_per_op: f64,
}

impl Probes {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `n` scaled by the run's probe scale, at least `floor`.
fn scaled(sizes: &Sizes, n: usize, floor: usize) -> usize {
    ((n as f64 * sizes.probe_scale) as usize).max(floor)
}

/// Run every probe. `parent` is the probe root span.
pub fn run_probes(c: &Ctx<'_>, parent: u64) -> Probes {
    let mut p = Probes::default();
    let tmp = TmpDir::new("probes");
    host_and_inject(c, &mut p);
    apps(c, &mut p);
    simmpi(c, &mut p);
    golden(c, &mut p, tmp.path());
    exec_grid(c, &mut p, parent);
    stream_and_accum(c, &mut p);
    ledger_and_features(c, &mut p, tmp.path());
    runner(c, &mut p, tmp.path(), parent);
    core_models(c, &mut p);
    obs_overhead(c, &mut p);
    serve(c, &mut p, parent);
    p
}

// ---------------------------------------------------------------------
// host, inject
// ---------------------------------------------------------------------

/// ns per op of a mul+add chain over `n` iterations (two ops each),
/// the better of two passes after a warm-up pass.
fn ns_per_op(n: u64, mut run: impl FnMut(u64) -> f64) -> f64 {
    black_box(run(n / 8));
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        black_box(run(black_box(n)));
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / (2 * n) as f64);
    }
    best
}

fn tracked_chain(n: u64, seed: Tf64) -> f64 {
    let mut acc = seed;
    for i in 0..n {
        acc = acc * 0.999 + (i as f64);
    }
    acc.value()
}

fn host_and_inject(c: &Ctx<'_>, p: &mut Probes) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    p.put("host.cores", cores as f64);

    let n = scaled(&c.sizes, 2_000_000, 20_000) as u64;
    let raw_run = |n: u64| {
        let mut acc = 0.0f64;
        for i in 0..n {
            acc = acc * 0.999 + (i as f64);
        }
        acc
    };
    // The calibration unit: a fixed amount of untracked f64 work, so
    // numbers from two hosts can be put on one scale.
    let cal = {
        let start = Instant::now();
        black_box(raw_run(black_box(4 * n)));
        ms(start)
    };
    p.put("host.cal_unit_ms", cal);

    let raw = ns_per_op(n, raw_run);
    let with_ctx = ns_per_op(n, |n| {
        ctx::install(RankCtx::profiling(0));
        let v = tracked_chain(n, Tf64::ZERO);
        ctx::take();
        v
    });
    let pending = ns_per_op(n, |n| {
        // A target that never fires: the common case during a trial.
        ctx::install(RankCtx::new(
            0,
            InjectionPlan::single(Target {
                region: Region::Common,
                op_index: u64::MAX,
                bit: 3,
                operand: Operand::A,
            }),
        ));
        let v = tracked_chain(n, Tf64::ZERO);
        ctx::take();
        v
    });
    let tainted = ns_per_op(n, |n| {
        ctx::install(RankCtx::profiling(0));
        let v = tracked_chain(n, Tf64::from_parts(1.0, 1.0 + 1e-12));
        ctx::take();
        v
    });
    p.put("inject.ns_per_op_raw", raw);
    p.put("inject.ns_per_op_ctx", with_ctx);
    p.put("inject.ns_per_op_pending", pending);
    p.put("inject.ns_per_op_tainted", tainted);
    p.put("inject.hook_ratio", with_ctx / raw);
    p.hook_ns_per_op = (with_ctx - raw).max(0.0);
}

// ---------------------------------------------------------------------
// apps
// ---------------------------------------------------------------------

fn apps(c: &Ctx<'_>, p: &mut Probes) {
    let reps = scaled(&c.sizes, 5, 1);
    for (i, app) in App::ALL.into_iter().enumerate() {
        let spec = app.default_spec();
        let world = World::new(1);
        let time = |tracked: bool| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    let out = world.run_with_ctx(
                        |rank| tracked.then(|| RankCtx::profiling(rank)),
                        |comm| spec.run_rank(comm),
                    );
                    black_box(out);
                    ms(start)
                })
                .collect();
            median(&samples)
        };
        p.untracked_ms[i] = time(false);
        p.tracked_ms[i] = time(true);
        p.put(
            format!("apps.untracked_ms_p1.{}", app.name()),
            p.untracked_ms[i],
        );
        p.put(
            format!("apps.tracked_ms_p1.{}", app.name()),
            p.tracked_ms[i],
        );
    }
}

// ---------------------------------------------------------------------
// simmpi
// ---------------------------------------------------------------------

/// µs per iteration of `body` run `iters` times inside one world of
/// `procs` ranks (so dispatch is paid once, not per iteration).
fn per_iter_us(procs: usize, iters: usize, body: impl Fn(&resilim_simmpi::Comm) + Sync) -> f64 {
    let world = World::new(procs);
    // One short pass first: the pool's threads exist and are warm.
    world.run(|comm| body(comm));
    let start = Instant::now();
    world.run(|comm| {
        for _ in 0..iters {
            body(comm);
        }
    });
    us(start) / iters as f64
}

fn simmpi(c: &Ctx<'_>, p: &mut Probes) {
    for (procs, reps) in [(1, 400), (4, 200), (8, 100), (64, 30)] {
        let reps = scaled(&c.sizes, reps, 3);
        let world = World::new(procs);
        world.run(|_| ());
        let start = Instant::now();
        for _ in 0..reps {
            black_box(world.run_pooled(WorldPool::global(), |_| None, |_| ()));
        }
        p.put(
            format!("simmpi.dispatch_us_p{procs}"),
            us(start) / reps as f64,
        );
    }
    let one = [Tf64::ONE];
    for (procs, iters) in [(4, 2000), (64, 60)] {
        let iters = scaled(&c.sizes, iters, 3);
        p.put(
            format!("simmpi.barrier_us_p{procs}"),
            per_iter_us(procs, iters, |comm| comm.barrier()),
        );
        p.put(
            format!("simmpi.allreduce_us_p{procs}"),
            per_iter_us(procs, iters, |comm| {
                black_box(comm.allreduce(ReduceOp::Sum, &one));
            }),
        );
    }
    p.put(
        "simmpi.alltoall_us_p64",
        per_iter_us(64, scaled(&c.sizes, 20, 2), |comm| {
            black_box(comm.alltoallv(vec![vec![Tf64::ONE]; 64]));
        }),
    );
    p.put(
        "simmpi.p2p_rtt_us",
        per_iter_us(2, scaled(&c.sizes, 4000, 10), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &one);
                black_box(comm.recv(1, 7));
            } else {
                let got = comm.recv(0, 7);
                comm.send(0, 7, &got);
            }
        }),
    );
}

// ---------------------------------------------------------------------
// harness.golden
// ---------------------------------------------------------------------

fn golden(_c: &Ctx<'_>, p: &mut Probes, tmp: &Path) {
    let dir = tmp.join("golden");
    let per_app = |store: &GoldenStore| {
        let samples: Vec<f64> = App::ALL
            .into_iter()
            .map(|app| {
                let start = Instant::now();
                black_box(store.get(&app.default_spec(), 4));
                us(start)
            })
            .collect();
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    // Empty store + empty directory: every get profiles (and saves).
    let cold = GoldenStore::new().with_disk_dir(&dir);
    p.put("harness.golden.measure_ms", per_app(&cold) / 1e3);
    // Fresh store over the now-populated directory: every get is a
    // disk load; the second round hits memory.
    let warm = GoldenStore::new().with_disk_dir(&dir);
    p.put("harness.golden.disk_hit_us", per_app(&warm));
    p.put("harness.golden.mem_hit_us", per_app(&warm));
}

// ---------------------------------------------------------------------
// harness.exec: the 24-cell grid and the per-trial harness overhead
// ---------------------------------------------------------------------

fn exec_grid(c: &Ctx<'_>, p: &mut Probes, parent: u64) {
    let runner = crate::drive::user_runner();
    let mut overhead_us = Vec::new();
    for (si, procs) in SCALES.into_iter().enumerate() {
        let trials = c.sizes.grid_trials[si];
        for (ai, app) in App::ALL.into_iter().enumerate() {
            let errors = if procs == 1 {
                ErrorSpec::SerialErrors(1)
            } else {
                ErrorSpec::OneParallel
            };
            let cell = (si * 6 + ai) as u64;
            let spec = CampaignSpec::new(
                app.default_spec(),
                procs,
                errors,
                trials,
                campaign_seed(c.seed, c.workload, u64::MAX, cell),
            );
            let executor = runner.trial_executor(&spec);
            let timed_trial = |t: usize| {
                let start = Instant::now();
                c.tracer
                    .span("harness.exec.run_trial", parent, 1000 + cell, |_| {
                        black_box(executor.run_trial(t))
                    });
                ms(start)
            };
            // The same body on the same pool with a context that injects
            // nothing: what is left of `run_trial` is plan draw + harvest
            // + classify + feature extraction.
            let golden = Arc::clone(executor.golden());
            let world = World::new(procs);
            let timed_bare = || {
                let start = Instant::now();
                c.tracer
                    .span("simmpi.world.run_pooled", parent, 1000 + cell, |_| {
                        black_box(world.run_pooled(
                            WorldPool::global(),
                            |rank| {
                                Some(
                                    RankCtx::new(rank, InjectionPlan::none())
                                        .with_op_cap(golden.op_cap())
                                        .with_taint_threshold(spec.taint_threshold)
                                        .with_op_mask(spec.op_mask),
                                )
                            },
                            |comm| spec.spec.run_rank(comm),
                        ))
                    });
                ms(start)
            };
            let samples: Vec<f64> = (0..trials)
                .map(|t| {
                    let trial_ms = timed_trial(t);
                    if procs == 1 {
                        // Back to back, so host drift cancels in the
                        // difference.
                        overhead_us.push((trial_ms - timed_bare()) * 1e3);
                    }
                    trial_ms
                })
                .collect();
            p.put(
                format!("harness.exec.trial_ms_p{procs}.{}", app.name()),
                median(&samples),
            );
        }
    }
    p.put("harness.exec.overhead_us", median(&overhead_us));
}

// ---------------------------------------------------------------------
// harness.stream, core.accum
// ---------------------------------------------------------------------

fn synthetic_outcome(i: usize) -> TestOutcome {
    match i % 5 {
        0 => TestOutcome::sdc(1 + i % 4, 1),
        1 => TestOutcome::success(false, 1, 1),
        _ => TestOutcome::success(true, 1, 1),
    }
}

fn synthetic_features(i: usize) -> TrialFeatures {
    let h = splitmix64(i as u64);
    let unit = |shift: u32| ((h >> shift) & 0xffff) as f64 / 65535.0;
    let mut f = TrialFeatures::quiet(
        OutcomeKind::ALL[(h % 3) as usize],
        4,
        100_000 + h % 50_000,
        [0.4, 0.1, 0.4, 0.05, 0.05],
    );
    f.contaminated_ranks = 1 + (h % 4) as u32;
    f.unique_frac = unit(0) * 0.2;
    f.first_contam_op = (h % 90_000) as i64;
    f.spread_window = [(h % 2) as u32, ((h >> 1) % 2) as u32, 0, 1];
    f.spread_rate = unit(16) * 1e-3;
    f.inject_rank_msg_share = unit(32);
    f.msgs_sent_before_contam = h % 300;
    f.msgs_recvd_before_contam = (h >> 8) % 300;
    f.taint_crossings = (h >> 16) % 40;
    f
}

fn record(index: usize) -> TrialRecord {
    TrialRecord {
        index,
        outcome: synthetic_outcome(index),
        attempts: 1,
        resumed: false,
        latency_us: 0,
        features: None,
    }
}

fn stream_and_accum(c: &Ctx<'_>, p: &mut Probes) {
    let n = scaled(&c.sizes, 20_000, 200);
    let push_all = |order: &mut dyn Iterator<Item = usize>| {
        let mut acc = CampaignAccumulator::new(4, None);
        let consumers: Vec<&mut dyn TrialConsumer> = vec![&mut acc];
        let mut pipeline = TrialPipeline::new((0..n).collect(), consumers);
        let start = Instant::now();
        for i in order {
            pipeline.push_batch([record(i)]);
        }
        let took = us(start);
        assert!(pipeline.is_drained());
        took / n as f64
    };
    p.put(
        "harness.stream.push_us_per_record_inorder",
        push_all(&mut (0..n)),
    );
    // Worst case for the reorder buffer: everything parks until the
    // last push releases the whole campaign.
    p.put(
        "harness.stream.push_us_per_record_reversed",
        push_all(&mut (0..n).rev()),
    );

    let n = scaled(&c.sizes, 400_000, 1000);
    let outcomes: Vec<TestOutcome> = (0..64).map(synthetic_outcome).collect();
    let mut acc = FiAccumulator::new(4);
    let start = Instant::now();
    for i in 0..n {
        acc.record(black_box(&outcomes[i % 64]));
    }
    black_box(acc.total());
    p.put(
        "core.accum.push_ns_per_outcome",
        start.elapsed().as_secs_f64() * 1e9 / n as f64,
    );
}

// ---------------------------------------------------------------------
// harness.ledger, harness.features
// ---------------------------------------------------------------------

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ledger_and_features(c: &Ctx<'_>, p: &mut Probes, tmp: &Path) {
    const KEY: &str = "trial_budget|probe";
    // Batch 1: one write + flush per record (the default `--batch 1`).
    let n1 = scaled(&c.sizes, 512, 64);
    let dir = tmp.join("ledger-b1");
    let ledger = TrialLedger::open(&dir, KEY, 1).expect("scratch ledger");
    let start = Instant::now();
    for i in 0..n1 {
        ledger.append_batch(&[(i, synthetic_outcome(i), 1)]);
    }
    ledger.sync();
    p.put(
        "harness.ledger.append_us_per_record_b1",
        us(start) / n1 as f64,
    );
    drop(ledger);

    let n = scaled(&c.sizes, 8192, 128);
    let dir = tmp.join("ledger-b64");
    let ledger = TrialLedger::open(&dir, KEY, 1).expect("scratch ledger");
    let records: Vec<(usize, TestOutcome, u32)> =
        (0..n).map(|i| (i, synthetic_outcome(i), 1)).collect();
    let start = Instant::now();
    for chunk in records.chunks(64) {
        ledger.append_batch(chunk);
    }
    ledger.sync();
    p.put(
        "harness.ledger.append_us_per_record_b64",
        us(start) / n as f64,
    );
    drop(ledger);
    p.put(
        "harness.ledger.bytes_per_record",
        dir_bytes(&dir) as f64 / n as f64,
    );
    let start = Instant::now();
    let loaded = TrialLedger::load(&dir, KEY, 1);
    p.put("harness.ledger.load_us_per_record", us(start) / n as f64);
    assert_eq!(loaded.len(), n, "ledger probe reloads what it wrote");

    let n = scaled(&c.sizes, 4096, 128);
    let dir = tmp.join("features-b64");
    let store = FeatureStore::open(&dir, KEY, 1).expect("scratch feature store");
    let records: Vec<(usize, TrialFeatures)> = (0..n).map(|i| (i, synthetic_features(i))).collect();
    let start = Instant::now();
    for chunk in records.chunks(64) {
        store.append_batch(chunk);
    }
    store.sync();
    p.put(
        "harness.features.append_us_per_record_b64",
        us(start) / n as f64,
    );
    drop(store);
    p.put(
        "harness.features.bytes_per_record",
        dir_bytes(&dir) as f64 / n as f64,
    );
    let start = Instant::now();
    let loaded = FeatureStore::load(&dir, KEY, 1);
    p.put("harness.features.load_us_per_record", us(start) / n as f64);
    assert_eq!(loaded.len(), n, "feature probe reloads what it wrote");
}

// ---------------------------------------------------------------------
// harness.runner
// ---------------------------------------------------------------------

fn runner(c: &Ctx<'_>, p: &mut Probes, tmp: &Path, parent: u64) {
    // Resume and merge per record: a store whose ledger and feature
    // shard already hold every trial (written directly — the records'
    // content does not matter to the load path), so nothing executes.
    let n = scaled(&c.sizes, 2000, 50);
    let dirs = StoreDirs::under(&tmp.join("resume"));
    let spec = CampaignSpec::new(App::Cg.default_spec(), 1, ErrorSpec::SerialErrors(1), n, 1);
    {
        let key = spec.ledger_key();
        let ledger =
            TrialLedger::open(tmp.join("resume/ledger"), &key, spec.seed).expect("scratch ledger");
        let outcomes: Vec<(usize, TestOutcome, u32)> =
            (0..n).map(|i| (i, synthetic_outcome(i), 1)).collect();
        ledger.append_batch(&outcomes);
        let store = FeatureStore::open(tmp.join("resume/features"), &key, spec.seed)
            .expect("scratch feature store");
        let features: Vec<(usize, TrialFeatures)> =
            (0..n).map(|i| (i, synthetic_features(i))).collect();
        store.append_batch(&features);
    }
    // First resume profiles CG p=1 and saves it; the timed ones load it.
    let jobs_before = WorldPool::global().jobs_dispatched();
    dirs.runner().with_resume(true).run_uncached(&spec);
    let profiling_jobs = WorldPool::global().jobs_dispatched() - jobs_before;
    let start = Instant::now();
    let resumed = dirs.runner().with_resume(true).run_uncached(&spec);
    p.put("harness.runner.resume_us_per_record", us(start) / n as f64);
    let start = Instant::now();
    let merged = dirs
        .runner()
        .merged_from_ledger(&spec)
        .expect("probe ledger is complete");
    p.put("harness.runner.merge_us_per_record", us(start) / n as f64);
    assert_eq!(Tally::of_result(&resumed), Tally::of_result(&merged));
    assert_eq!(
        WorldPool::global().jobs_dispatched() - jobs_before,
        profiling_jobs,
        "resume and merge execute no trial"
    );

    // One p=1 campaign at explicit worker counts: the multi-worker
    // entry. MG has the longest p=1 trial, so claim/lock overhead is
    // at its smallest share here.
    let trials = scaled(&c.sizes, 60, 4);
    let spec = CampaignSpec::new(
        App::Mg.default_spec(),
        1,
        ErrorSpec::SerialErrors(1),
        trials,
        campaign_seed(c.seed, c.workload, u64::MAX, 500),
    );
    let jobs1 = CampaignRunner::new();
    let jobs2 = CampaignRunner::new().with_test_parallelism(2);
    jobs1.golden().get(&spec.spec, 1);
    jobs2.golden().get(&spec.spec, 1);
    p.put(
        "harness.runner.jobs_resolved",
        crate::drive::user_runner().effective_parallelism(1) as f64,
    );
    let wall = |r: &CampaignRunner| {
        let start = Instant::now();
        let tally = Tally::of_result(&r.run_uncached(&spec));
        (start.elapsed().as_secs_f64(), tally)
    };
    let (wall1, tally1) = wall(&jobs1);
    let (wall2, tally2) = wall(&jobs2);
    assert_eq!(tally1, tally2, "worker count never changes a result");
    p.put("harness.runner.jobs2_speedup", wall1 / wall2);
    let opts = MirrorOpts::default();
    let (_, exec1) = mirror_campaign(c.tracer, parent, 2001, &jobs1, &opts, &spec);
    let (_, exec2) = mirror_campaign(c.tracer, parent, 2002, &jobs2, &opts, &spec);
    // Of the mirrored loop (asserted bitwise-equal to the runner's):
    // the runner's own split is not observable from outside it.
    p.put(
        "harness.runner.engine_overhead_share",
        1.0 - exec1.busy_ns() as f64 / exec1.campaign_ns.max(1) as f64,
    );
    p.put(
        "harness.runner.worker_util",
        exec2.busy_ns() as f64 / exec2.region_ns.max(1) as f64,
    );
}

// ---------------------------------------------------------------------
// core.model, core.learn
// ---------------------------------------------------------------------

fn core_models(c: &Ctx<'_>, p: &mut Probes) {
    let fi = FiResult {
        counts: [60, 30, 10],
        masked: 20,
    };
    let (scale, small) = (64, 8);
    let strategy = SamplePoints::default();
    let inputs = ModelInputs {
        p: scale,
        s: small,
        strategy,
        serial: resilim_core::sample_cases(scale, small, strategy)
            .into_iter()
            .map(|x| (x, fi))
            .collect(),
        small_prop: PropagationProfile {
            p: small,
            counts: (1..=small as u64).collect(),
        },
        small_by_contam: vec![Some(fi); small],
        unique_share: 0.1,
        fi_unique: Some(fi),
        alpha_threshold: 0.2,
    };
    let reps = scaled(&c.sizes, 2000, 10);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(PaperEq8::new(black_box(inputs.clone())).predict());
    }
    p.put("core.model.eq8_predict_us", us(start) / reps as f64);

    let rows = scaled(&c.sizes, 500, 20);
    let data: Vec<TrialFeatures> = (0..rows).map(synthetic_features).collect();
    let start = Instant::now();
    black_box(LogisticModel::fit(&data).expect("≥ 2 rows"));
    p.put(
        "core.learn.logistic_fit_ms_per_1k",
        ms(start) * 1000.0 / rows as f64,
    );
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

fn obs_overhead(c: &Ctx<'_>, p: &mut Probes) {
    let trials = scaled(&c.sizes, 20, 2);
    let runner = crate::drive::user_runner();
    let specs: Vec<CampaignSpec> = App::ALL
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            CampaignSpec::new(
                app.default_spec(),
                1,
                ErrorSpec::SerialErrors(1),
                trials,
                campaign_seed(c.seed, c.workload, u64::MAX, 600 + i as u64),
            )
        })
        .collect();
    for s in &specs {
        runner.golden().get(&s.spec, 1);
    }
    let run_mix = || {
        let start = Instant::now();
        for s in &specs {
            black_box(runner.run_uncached(s));
        }
        start.elapsed().as_secs_f64()
    };
    run_mix();
    let disabled = run_mix();
    let sink = Arc::new(obs::MemorySink::new());
    obs::add_sink(sink.clone());
    obs::set_enabled(true);
    let enabled = run_mix();
    obs::set_enabled(false);
    obs::clear_sinks();
    p.put("obs.enabled_over_disabled", enabled / disabled);
    p.put(
        "obs.events_per_trial",
        sink.events().len() as f64 / (trials * specs.len()) as f64,
    );
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

fn serve(c: &Ctx<'_>, p: &mut Probes, parent: u64) {
    // A small daemon of its own, so the numbers are the same probe on
    // every workload (served_mix's own daemon is busy being measured).
    let mut sizes = c.sizes;
    sizes.served_a_trials = scaled(&c.sizes, 10, 2);
    sizes.served_b_trials = scaled(&c.sizes, 6, 2);
    let probe_ctx = Ctx {
        workload: Workload::ServedMix,
        sizes,
        seed: c.seed,
        tracer: c.tracer,
    };
    let start = Instant::now();
    let mut env = served_setup(&probe_ctx, &sizes, parent);
    p.put("serve.daemon_start_ms", ms(start));
    let restart = match &env {
        Env::Served { dir, .. } => serve_config(dir.path()),
        _ => unreachable!("served_setup builds a served environment"),
    };

    let tenants = served_tenants(&sizes, c.seed, u64::MAX);
    let Env::Served { clients, .. } = &mut env else {
        unreachable!()
    };
    let seg_start = Instant::now();
    let seg = served_segment(c.tracer, clients, &tenants, parent);
    let seg_wall = seg_start.elapsed().as_secs_f64();
    assert_eq!(seg.failed(), 0, "serve probe campaigns complete");
    p.put("serve.turnaround_s_p50", median(&seg.served.turnaround_s));
    p.put(
        "serve.first_progress_ms",
        median(&seg.served.first_progress_ms),
    );
    p.put(
        "serve.fair_share_skew",
        fair_share_skew(&seg.served.tenant_finish_s, seg_wall),
    );
    // Tenant B's campaigns one-shot, on a runner of the user's kind.
    let oneshot = crate::drive::user_runner();
    for s in &tenants[1] {
        oneshot.golden().get(&s.spec, s.procs);
    }
    let start = Instant::now();
    for s in &tenants[1] {
        black_box(oneshot.run_uncached(s));
    }
    let oneshot_tps = seg.served.tenant_trials[1] as f64 / start.elapsed().as_secs_f64();
    let served_tps = seg.served.tenant_trials[1] as f64 / seg.served.tenant_finish_s[1];
    p.put("serve.vs_oneshot_ratio", served_tps / oneshot_tps);

    // Round trips on an idle daemon: a fresh submission (golden in
    // memory, ledger scanned), the same submission again (dedup), and
    // a status query.
    let client = &mut clients[0];
    let reps = scaled(&c.sizes, 20, 2);
    let mut submit = Vec::new();
    let mut dedup = Vec::new();
    let mut status = Vec::new();
    for i in 0..reps {
        let spec = SubmitSpec::of_campaign(&CampaignSpec::new(
            App::Lu.default_spec(),
            1,
            ErrorSpec::SerialErrors(1),
            1,
            campaign_seed(c.seed, c.workload, u64::MAX, 700 + i as u64),
        ));
        let start = Instant::now();
        let (id, deduped) = client.submit(spec.clone()).expect("probe submit");
        submit.push(us(start));
        assert!(!deduped);
        client.watch(id, |_, _| ()).expect("probe watch");
        let start = Instant::now();
        let (again, deduped) = client.submit(spec).expect("probe resubmit");
        dedup.push(us(start));
        assert!(deduped && again == id);
        let start = Instant::now();
        client.call(&Request::status(id)).expect("probe status");
        status.push(us(start));
    }
    p.put("serve.submit_rtt_us", median(&submit));
    p.put("serve.dedup_rtt_us", median(&dedup));
    p.put("serve.status_rtt_us", median(&status));

    let drained = env.stop_daemon(&probe_ctx, parent).expect("served env");
    p.put("serve.drain_ms", drained.as_secs_f64() * 1e3);

    // Restart on the populated store: journal replay + ledger resume of
    // every journaled campaign, before the first connection is served.
    let start = Instant::now();
    let socket = restart.socket.clone();
    let daemon = resilim_serve::Daemon::spawn(restart).expect("daemon restart");
    let mut client = Client::connect(&socket).expect("reconnect");
    client.call(&Request::list()).expect("list after restart");
    p.put("serve.journal_replay_ms", ms(start));
    drop(client);
    daemon.stop();
}

/// How unevenly two closed-loop tenants finish a segment:
/// `|finish_A − finish_B| ÷ segment wall` (0 = together).
pub fn fair_share_skew(finish_s: &[f64; 2], wall_s: f64) -> f64 {
    (finish_s[0] - finish_s[1]).abs() / wall_s.max(1e-9)
}
