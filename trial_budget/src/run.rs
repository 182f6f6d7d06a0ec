//! One benchmark run of one workload: set-ups, warm-up, measured
//! segments, the cross-driver identity checks, and (traced) the probes
//! and the per-layer numbers.

use crate::drive::{
    prepare_segment, run_segment, setup, user_runner, Ctx, Driver, Env, Fingerprint, SegmentOutput,
    Tally,
};
use crate::metrics::{per_layer, END_TO_END};
use crate::probes::{fair_share_skew, run_probes, Probes};
use crate::procfs::{cpu_times, peak_rss_mib};
use crate::stats::{median, quartiles, tail_percentile, Quartiles};
use crate::trace::{by_name, self_times, Tracer};
use crate::workload::{memory_mix, segment_specs, served_tenants, Sizes, Workload};
use resilim_apps::util::splitmix64;
use resilim_apps::App;
use resilim_harness::{CampaignRunner, GoldenRun, GoldenStore};
use resilim_simmpi::{World, WorldPool};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A set-up cheaper than this is timed once more after every measured
/// segment: seven 10 ms samples taken within one second all land in
/// whichever speed regime the host is in at that moment (it has two,
/// 1.45× apart, lasting seconds), and the median then flips between
/// runs; samples spread over the whole run see the mix.
const CHEAP_SETUP_S: f64 = 0.1;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep measuring segments for.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Trial counts.
    pub sizes: Sizes,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Every identity and determinism check held.
    pub correct: bool,
    /// Records delivered to an aggregate (warm-up + measured segments).
    pub attempted: u64,
    /// Records of campaigns that panicked, errored, or failed a check.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer metrics
    /// (traced), in registry order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/inf; a ratio over nothing reads 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (m.name.clone(), json!({"value": value, "unit": m.unit}))
            })
            .collect();
        serde_json::to_string(&json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics)
        }))
        .expect("a result object serializes")
    }
}

/// One measured segment.
struct Measured {
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
    out: SegmentOutput,
}

impl Measured {
    fn records(&self) -> f64 {
        self.out.records().max(1) as f64
    }
}

/// A failed check: say what, mark the run incorrect.
struct Verdict {
    correct: bool,
    failed_records: u64,
}

impl Verdict {
    fn fail(&mut self, records: u64, what: impl std::fmt::Display) {
        println!("CHECK FAILED: {what}");
        self.correct = false;
        self.failed_records += records;
    }
}

fn timed_segment(ctx: &Ctx<'_>, env: &mut Env, segment: u64, driver: Driver) -> Measured {
    prepare_segment(ctx, env);
    let cpu0 = cpu_times();
    let start = Instant::now();
    // Only the mirror driver's segments have spans below them; the
    // span-coverage figure is taken over those.
    let name = match driver {
        Driver::Mirror => "bench.segment",
        Driver::Runner => "bench.segment_untraced",
    };
    let out = ctx.tracer.span(name, 0, 0, |span| {
        run_segment(ctx, env, segment, driver, span)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu = cpu_times().since(&cpu0);
    Measured {
        wall_s,
        user_s: cpu.user_s,
        sys_s: cpu.sys_s,
        out,
    }
}

/// Rank threads the workload's widest campaign keeps busy at once.
fn pool_threads_needed(ctx: &Ctx<'_>) -> usize {
    let runner = user_runner();
    segment_specs(ctx.workload, &ctx.sizes, ctx.seed, 0)
        .iter()
        .map(|s| {
            let workers = match ctx.workload {
                Workload::ServedMix => 2,
                _ => runner.effective_parallelism(s.procs),
            };
            s.procs * workers
        })
        .max()
        .unwrap_or(1)
}

/// The goldens an environment classifies against, in deployment order.
fn env_goldens(ctx: &Ctx<'_>, env: &Env) -> Vec<Arc<GoldenRun>> {
    let disk;
    let store = match env {
        Env::Memory { runner } => runner.golden(),
        Env::Store { dir, .. } => {
            disk = GoldenStore::new().with_disk_dir(dir.path().join("golden"));
            &disk
        }
        Env::Served { daemon, .. } => daemon
            .as_ref()
            .expect("live daemon")
            .scheduler()
            .runner()
            .golden(),
    };
    segment_specs(ctx.workload, &ctx.sizes, ctx.seed, 0)
        .iter()
        .map(|s| store.get_masked(&s.spec, s.procs, s.op_mask))
        .collect()
}

/// Run one workload once.
pub fn run_workload(args: &RunArgs) -> RunReport {
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        workload: args.workload,
        sizes: args.sizes,
        seed: args.seed,
        tracer: &tracer,
    };
    let (primary, secondary) = if args.trace {
        (Driver::Mirror, Driver::Runner)
    } else {
        (Driver::Runner, Driver::Mirror)
    };
    let mut verdict = Verdict {
        correct: true,
        failed_records: 0,
    };

    // First use of the global pool spawns its rank threads; timed once
    // and kept out of the set-ups, which would otherwise differ by
    // whether they ran first.
    let pool_spawn_ms = {
        let start = Instant::now();
        World::new(pool_threads_needed(&ctx)).run(|_| ());
        start.elapsed().as_secs_f64() * 1e3
    };

    // Cold set-ups. The last one is the environment the segments use.
    let mut setup_s = Vec::new();
    let mut first_goldens = Vec::new();
    let mut env = None;
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let built = tracer.span("bench.setup", 0, 0, |span| setup(&ctx, primary, span));
        setup_s.push(start.elapsed().as_secs_f64());
        built
    };
    for i in 0..args.sizes.setups {
        drop(env.take());
        let built = timed_setup(&mut setup_s);
        if i == 0 {
            first_goldens = env_goldens(&ctx, &built);
        }
        env = Some(built);
    }
    let mut env = env.expect("at least one set-up");
    // Fault-free digests: two independent profiling runs of every
    // deployment must agree to within the app's checker.
    for (a, b) in first_goldens.iter().zip(env_goldens(&ctx, &env)) {
        let eps = a.spec.app().epsilon();
        if !b.output.passes_checker(&a.output, eps) || a.profiles != b.profiles {
            verdict.fail(
                0,
                format!("golden of {:?} p={} does not repeat", a.spec.app(), a.procs),
            );
        }
    }

    // Warm-up (segment 0: discarded for timing, kept for the checks),
    // then measured segments of fresh seeds until the time is up.
    let warmup = timed_segment(&ctx, &mut env, 0, primary);
    let budget = if args.trace {
        // Traced runs also pay for the probes; keep the run's length.
        args.seconds * 0.6
    } else {
        args.seconds
    };
    let mut measured: Vec<Measured> = Vec::new();
    let measuring = Instant::now();
    while measured.len() < args.sizes.min_segments || measuring.elapsed().as_secs_f64() < budget {
        let segment = measured.len() as u64 + 1;
        measured.push(timed_segment(&ctx, &mut env, segment, primary));
        if median(&setup_s) < CHEAP_SETUP_S {
            drop(timed_setup(&mut setup_s));
        }
    }

    for (i, m) in measured.iter().enumerate() {
        println!(
            "segment {:>2}: {:>6} records in {:.3} s wall, {:.2} s user + {:.2} s sys",
            i + 1,
            m.out.records(),
            m.wall_s,
            m.user_s,
            m.sys_s
        );
    }

    // A full store: nothing executes, and every resumed or merged
    // result is the seeding run's aggregate.
    if let Env::Store { reference, .. } = &env {
        for (i, m) in std::iter::once(&warmup).chain(&measured).enumerate() {
            if m.out.pool_jobs != 0 {
                verdict.fail(0, format!("segment {i} executed trials on a full store"));
            }
            for (j, tally) in m.out.tallies.iter().enumerate() {
                if tally
                    .as_ref()
                    .is_some_and(|t| *t != reference[j % reference.len()])
                {
                    verdict.fail(
                        m.out.expected[j],
                        format!(
                            "segment {i}: resumed/merged campaign {j} differs from the seeding run"
                        ),
                    );
                }
            }
        }
    }

    // The other driver on the same seeds: tallies (and so the
    // fingerprint, which is a fold of them) must agree exactly.
    // Segment 0 always; traced runs add segment 1, which also times
    // the untraced driver on identical inputs.
    let mut traced_over_untraced = 1.0;
    let compare: &[u64] = if args.trace { &[0, 1] } else { &[0] };
    for &segment in compare {
        let ours = if segment == 0 {
            &warmup
        } else {
            &measured[segment as usize - 1]
        };
        let theirs = timed_segment(&ctx, &mut env, segment, secondary);
        if ours.out.tallies != theirs.out.tallies {
            verdict.fail(
                ours.out.records(),
                format!(
                    "segment {segment}: traced and untraced drivers disagree \
                     (digest {:08x} vs {:08x})",
                    ours.out.fingerprint().digest32(),
                    theirs.out.fingerprint().digest32()
                ),
            );
        }
        if segment == 1 {
            traced_over_untraced = ours.wall_s / theirs.wall_s;
        }
    }

    // Identity against an independent execution of the same specs.
    let mut oneshot_b_tps = None;
    match &env {
        Env::Memory { .. } => {
            let specs = memory_mix(args.workload, &args.sizes, args.seed, 0);
            for (ai, app) in App::ALL.into_iter().enumerate() {
                let of_app: Vec<usize> = (0..specs.len())
                    .filter(|&i| specs[i].spec.app() == app)
                    .collect();
                let pick =
                    of_app[(splitmix64(args.seed ^ ai as u64) % of_app.len() as u64) as usize];
                let reference = Tally::of_result(
                    &CampaignRunner::new()
                        .with_spawn_per_trial()
                        .run_uncached(&specs[pick]),
                );
                if warmup.out.tallies[pick].as_ref() != Some(&reference) {
                    verdict.fail(
                        warmup.out.expected[pick],
                        format!(
                            "{} p={}: pooled campaign differs from its spawn-per-trial re-run",
                            app.name(),
                            specs[pick].procs
                        ),
                    );
                }
            }
        }
        Env::Store { .. } => {} // checked per segment above
        Env::Served { .. } => {
            let tenants = served_tenants(&args.sizes, args.seed, 0);
            let oneshot = user_runner();
            let mut b_trials = 0;
            let mut b_wall = 0.0;
            for (i, spec) in tenants.concat().iter().enumerate() {
                oneshot
                    .golden()
                    .get_masked(&spec.spec, spec.procs, spec.op_mask);
                let start = Instant::now();
                let reference = Tally::of_result(&oneshot.run_uncached(spec)).summary_only();
                if i >= tenants[0].len() {
                    b_wall += start.elapsed().as_secs_f64();
                    b_trials += spec.tests;
                }
                if warmup.out.tallies[i].as_ref() != Some(&reference) {
                    verdict.fail(
                        warmup.out.expected[i],
                        format!("served campaign {i} differs from run_uncached of the same spec"),
                    );
                }
            }
            oneshot_b_tps = Some(b_trials as f64 / b_wall);
        }
    }

    let attempted: u64 = std::iter::once(&warmup)
        .chain(&measured)
        .map(|m| m.out.records() + m.out.failed())
        .sum();
    let failed: u64 = std::iter::once(&warmup)
        .chain(&measured)
        .map(|m| m.out.failed())
        .sum::<u64>()
        + verdict.failed_records;
    if failed > 0 {
        verdict.correct = false;
    }

    let tps = quartiles(
        &measured
            .iter()
            .map(|m| m.records() / m.wall_s)
            .collect::<Vec<_>>(),
    );
    let cpu_ms = quartiles(
        &measured
            .iter()
            .map(|m| (m.user_s + m.sys_s) * 1e3 / m.records())
            .collect::<Vec<_>>(),
    );
    let setup = quartiles(&setup_s);

    let metrics = if args.trace {
        let probes = tracer.span("bench.probes", 0, 0, |span| run_probes(&ctx, span));
        let mix = mix_profile(&ctx, &env, &probes);
        let drain = env.stop_daemon(&ctx, 0);
        let m = traced_metrics(TracedInputs {
            ctx: &ctx,
            env: &env,
            probes,
            mix,
            warmup: &warmup,
            measured: &measured,
            cpu_ms_per_trial: cpu_ms.median,
            pool_spawn_ms,
            traced_over_untraced,
            oneshot_b_tps,
            drain_ms: drain.map(|d| d.as_secs_f64() * 1e3),
        });
        write_trace(&tracer, args.workload);
        m
    } else {
        print_quartiles("trials_per_s", "1/s", &tps);
        print_quartiles("cpu_ms_per_trial", "ms", &cpu_ms);
        print_quartiles("setup_s", "s", &setup);
        // Tear the environment down before reading the peak, so the
        // number covers the whole life of the workload's process.
        drop(env);
        let values = [tps.median, cpu_ms.median, setup.median, peak_rss_mib()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name.to_string(),
                value,
                unit: m.unit,
            })
            .collect()
    };
    for m in &metrics {
        println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    RunReport {
        correct: verdict.correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

fn print_quartiles(name: &str, unit: &str, q: &Quartiles) {
    println!(
        "{name:<20} median {:.4} {unit}  (q1 {:.4}, q3 {:.4}, spread {:.2} %, n = {})",
        q.median,
        q.q1,
        q.q3,
        q.spread() * 100.0,
        q.n
    );
}

/// Ops, messages and serial compute of the workload's mix, per
/// executed trial — exact, from the golden profiles.
struct MixProfile {
    ops_per_trial: f64,
    msgs_per_trial: f64,
    untracked_ms_per_trial: f64,
    tracked_ms_per_trial: f64,
}

fn mix_profile(ctx: &Ctx<'_>, env: &Env, probes: &Probes) -> MixProfile {
    let (specs, goldens) = match ctx.workload {
        // Nothing executes: a delivered record costs no ops, no
        // messages, no compute.
        Workload::StoreResumeP4 => (Vec::new(), Vec::new()),
        w => (
            segment_specs(w, &ctx.sizes, ctx.seed, 0),
            env_goldens(ctx, env),
        ),
    };
    let (mut trials, mut ops, mut msgs, mut untracked, mut tracked) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (spec, golden) in specs.iter().zip(&goldens) {
        let n = spec.tests as f64;
        let app = App::ALL
            .iter()
            .position(|a| *a == spec.spec.app())
            .expect("known app");
        trials += n;
        ops += n * golden.profiles.iter().map(|p| p.total()).sum::<u64>() as f64;
        msgs += n * golden.profiles.iter().map(|p| p.msgs_sent).sum::<u64>() as f64;
        untracked += n * probes.untracked_ms[app];
        tracked += n * probes.tracked_ms[app];
    }
    let per = |x: f64| if trials > 0.0 { x / trials } else { 0.0 };
    MixProfile {
        ops_per_trial: per(ops),
        msgs_per_trial: per(msgs),
        untracked_ms_per_trial: per(untracked),
        tracked_ms_per_trial: per(tracked),
    }
}

struct TracedInputs<'a> {
    ctx: &'a Ctx<'a>,
    env: &'a Env,
    probes: Probes,
    mix: MixProfile,
    warmup: &'a Measured,
    measured: &'a [Measured],
    cpu_ms_per_trial: f64,
    pool_spawn_ms: f64,
    traced_over_untraced: f64,
    oneshot_b_tps: Option<f64>,
    drain_ms: Option<f64>,
}

/// Probe values plus the workload's own per-trial numbers and shares,
/// in registry order.
fn traced_metrics(t: TracedInputs<'_>) -> Vec<Metric> {
    let mix = t.mix;
    let mut v: BTreeMap<String, f64> = t.probes.values;
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let wall_ms_per_trial = median(
        &t.measured
            .iter()
            .map(|m| m.wall_s * 1e3 / m.records())
            .collect::<Vec<_>>(),
    );
    put(
        "host.slowdown_x",
        if mix.untracked_ms_per_trial > 0.0 {
            wall_ms_per_trial / mix.untracked_ms_per_trial
        } else {
            0.0
        },
    );
    put("inject.ops_per_trial", mix.ops_per_trial);
    // CPU, not wall, in the denominator: with two workers the wall per
    // delivered trial is half a trial's latency.
    put(
        "inject.hook_share",
        mix.ops_per_trial * t.probes.hook_ns_per_op / (t.cpu_ms_per_trial * 1e6),
    );
    put("simmpi.msgs_per_trial", mix.msgs_per_trial);
    let records: u64 = t.measured.iter().map(|m| m.out.records()).sum();
    let jobs: u64 = t.measured.iter().map(|m| m.out.pool_jobs).sum();
    put(
        "simmpi.rank_jobs_per_record",
        jobs as f64 / records.max(1) as f64,
    );
    put("simmpi.pool_spawn_ms", t.pool_spawn_ms);
    put(
        "simmpi.pool_threads_spawned",
        WorldPool::global().threads_spawned() as f64,
    );
    put(
        "simmpi.sys_cpu_share",
        median(
            &t.measured
                .iter()
                .map(|m| m.sys_s / (m.user_s + m.sys_s).max(1e-9))
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "simmpi.overhead_share",
        1.0 - mix.tracked_ms_per_trial / t.cpu_ms_per_trial,
    );

    // Latency of the benchmark's own `run_trial` calls (none on
    // workloads whose trials run elsewhere or not at all).
    let trial_us: Vec<f64> = t
        .measured
        .iter()
        .flat_map(|m| m.out.exec.trial_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let p50 = if trial_us.is_empty() {
        0.0
    } else {
        median(&trial_us)
    };
    let tail = tail_percentile(&trial_us);
    if let Some((pct, _)) = tail {
        println!(
            "harness.exec.trial_us_p95 is the p{pct:.1} of {} samples",
            trial_us.len()
        );
    }
    put("harness.exec.trial_us_p50", p50);
    put(
        "harness.exec.trial_us_p95",
        tail.map_or(p50, |(_, value)| value),
    );
    put("harness.exec.trial_samples", trial_us.len() as f64);

    let Fingerprint {
        success,
        sdc,
        failure,
        ..
    } = t.warmup.out.fingerprint();
    put("harness.exec.outcomes_success", success as f64);
    put("harness.exec.outcomes_sdc", sdc as f64);
    put("harness.exec.outcomes_failure", failure as f64);
    put(
        "harness.exec.outcome_digest32",
        t.warmup.out.fingerprint().digest32() as f64,
    );
    put("bench.traced_over_untraced", t.traced_over_untraced);
    put("bench.span_coverage", span_report(t.ctx.tracer));

    if let Env::Served { .. } = t.env {
        // The workload's own segments beat the small probe daemon.
        let all = |f: fn(&Measured) -> &Vec<f64>| -> Vec<f64> {
            t.measured
                .iter()
                .flat_map(|m| f(m).iter().copied())
                .collect()
        };
        put(
            "serve.turnaround_s_p50",
            median(&all(|m| &m.out.served.turnaround_s)),
        );
        put(
            "serve.first_progress_ms",
            median(&all(|m| &m.out.served.first_progress_ms)),
        );
        put(
            "serve.fair_share_skew",
            median(
                &t.measured
                    .iter()
                    .map(|m| fair_share_skew(&m.out.served.tenant_finish_s, m.wall_s))
                    .collect::<Vec<_>>(),
            ),
        );
        let served_b_tps = median(
            &t.measured
                .iter()
                .map(|m| m.out.served.tenant_trials[1] as f64 / m.out.served.tenant_finish_s[1])
                .collect::<Vec<_>>(),
        );
        if let Some(oneshot) = t.oneshot_b_tps {
            put("serve.vs_oneshot_ratio", served_b_tps / oneshot);
        }
        if let Some(ms) = t.drain_ms {
            put("serve.drain_ms", ms);
        }
    }

    per_layer()
        .into_iter()
        .map(|m| Metric {
            value: *v
                .get(&m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name)),
            name: m.name,
            unit: m.unit,
        })
        .collect()
}

/// Print the self-time table; return the share of the traced
/// segments' wall time that their child spans account for.
fn span_report(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "bench.segment") {
        wall += s.dur_ns();
        unattributed += selfs[&s.id];
    }
    println!(
        "{:<36} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    let table = by_name(&spans);
    let total_self: u64 = table.values().map(|r| r.self_ns).sum();
    for (name, row) in table {
        println!(
            "{name:<36} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / total_self.max(1) as f64
        );
    }
    let coverage = 1.0 - unattributed as f64 / wall.max(1) as f64;
    println!(
        "spans below bench.segment account for {:.1} % of the traced segments' wall time",
        coverage * 100.0
    );
    coverage
}

fn write_trace(tracer: &Tracer, workload: Workload) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/bench")
        .join(format!("trace-{}.jsonl", workload.name()));
    tracer
        .write_jsonl(&path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote spans to {}", path.display());
}
