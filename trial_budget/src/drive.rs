//! Set-up and segment execution for every workload, through two
//! drivers: the *runner* driver (what a CLI user gets —
//! `CampaignRunner::run_uncached`, timed end to end) and the *mirror*
//! driver (the benchmark's own claim → `run_trial` → `push_batch` loop
//! with a span around every call across a layer boundary). Both must
//! produce bitwise-identical tallies; [`Fingerprint`] is how that is
//! checked cheaply.

use crate::trace::Tracer;
use crate::workload::{memory_mix, served_tenants, store_campaigns, Sizes, Workload};
use resilim_core::{FiResult, PropagationProfile};
use resilim_harness::campaign::{aggregate_outcomes, TrialConsumer, TrialPipeline, TrialRecord};
use resilim_harness::{
    CampaignAccumulator, CampaignResult, CampaignRunner, CampaignSpec, CampaignSummary,
    FeatureStore, Shard, TrialLedger,
};
use resilim_inject::{OutcomeKind, TestOutcome};
use resilim_serve::{Client, Daemon, ServeConfig, SubmitSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------

/// `trial_budget/target/tmp`: temp stores and sockets live here and
/// nowhere else. Relative to the working directory when possible — a
/// unix socket path must fit in 108 bytes and the checkout's absolute
/// path is not ours to choose.
pub fn tmp_root() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tmp");
    match std::env::current_dir() {
        Ok(cwd) => abs
            .strip_prefix(&cwd)
            .map_or(abs.clone(), Path::to_path_buf),
        Err(_) => abs,
    }
}

/// A directory under [`tmp_root`], removed on drop (also when a check
/// fails: the run unwinds normally and exits afterwards).
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Create a fresh, empty directory.
    pub fn new(label: &str) -> TmpDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = tmp_root().join(format!(
            "r{}-{}-{label}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", path.display()));
        TmpDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Tallies and fingerprints
// ---------------------------------------------------------------------

/// What a campaign computed, in comparable form: everything the program
/// defines for every thread schedule, and nothing else.
///
/// One field of a result is not defined that way. When a rank dies
/// (crash, hang guard, DUE kill) the other ranks are torn down the next
/// time they touch the fabric, and how many of them a tainted message
/// reached before that is a race between rank threads: the same trial of
/// a four-rank Pennant campaign reports `Failure(Crash)` with 4
/// contaminated ranks on most runs and 3 on about one run in forty. The
/// outcome class, failure kind, fired count and detection flag of such a
/// trial never vary. So a tally keeps `contaminated_ranks` of successes
/// and SDCs only (their runs finish, the count is exact) and files every
/// failure under "contaminated: not compared" — [`Tally::new`] zeroes it
/// in the outcomes and takes the failures out of the by-contamination
/// aggregates. Every identity check and the fingerprint work on this
/// form; the aggregates as the program returned them are first checked
/// against a fold of its own outcomes, which holds on any schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    /// Outcome counts (failures included).
    pub fi: FiResult,
    /// Contaminated-rank histogram of the trials that did not fail.
    pub prop: PropagationProfile,
    /// Outcome counts by contamination count, failures left out.
    pub by_contam: Vec<FiResult>,
    /// Trials that contaminated no rank, failures left out.
    pub uncontaminated: FiResult,
    /// Per-trial outcomes in trial order, `contaminated_ranks` of a
    /// failure zeroed; empty where only a summary crosses the boundary
    /// (served campaigns).
    pub outcomes: Vec<TestOutcome>,
}

/// Index of the failure class in `FiResult::counts`.
const FAILURE: usize = OutcomeKind::Failure.index();

impl Tally {
    /// Tally of a campaign's aggregates and (where they cross the
    /// boundary) per-trial outcomes, as the program returned them.
    ///
    /// # Panics
    /// If the aggregates are not the fold of the outcomes (inside a
    /// campaign that makes the campaign a failed one).
    pub fn new(
        fi: FiResult,
        mut prop: PropagationProfile,
        mut by_contam: Vec<FiResult>,
        mut uncontaminated: FiResult,
        mut outcomes: Vec<TestOutcome>,
    ) -> Tally {
        if !outcomes.is_empty() {
            let refold = aggregate_outcomes(by_contam.len(), &outcomes);
            assert!(
                refold == (fi, prop.clone(), by_contam.clone(), uncontaminated),
                "a campaign's aggregates are the fold of its outcomes"
            );
        }
        // The histogram files x = 0 under x = 1.
        prop.counts[0] -= uncontaminated.counts[FAILURE];
        uncontaminated.counts[FAILURE] = 0;
        for (n, bucket) in prop.counts.iter_mut().zip(&mut by_contam) {
            *n -= bucket.counts[FAILURE];
            bucket.counts[FAILURE] = 0;
        }
        for o in &mut outcomes {
            if o.kind == OutcomeKind::Failure {
                o.contaminated_ranks = 0;
            }
        }
        Tally {
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
        }
    }

    /// Tally of a one-shot result.
    pub fn of_result(r: &CampaignResult) -> Tally {
        Tally::new(
            r.fi,
            r.prop.clone(),
            r.by_contam.clone(),
            r.uncontaminated,
            r.outcomes.clone(),
        )
    }

    /// Tally of a served summary (no per-trial outcomes on the wire).
    pub fn of_summary(s: &CampaignSummary) -> Tally {
        Tally::new(
            s.fi,
            s.prop.clone(),
            s.by_contam.clone(),
            s.uncontaminated,
            Vec::new(),
        )
    }

    /// This tally with the per-trial outcomes dropped (to compare a
    /// one-shot result against a served summary).
    pub fn summary_only(mut self) -> Tally {
        self.outcomes.clear();
        self
    }

    /// Records delivered to the aggregate.
    pub fn records(&self) -> u64 {
        self.fi.total()
    }
}

/// Exact outcome counts plus an FNV-1a fold of every outcome in trial
/// order (of the summary tallies where outcomes do not cross the
/// boundary). Must repeat exactly for a seed, on any driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Success count.
    pub success: u64,
    /// SDC count.
    pub sdc: u64,
    /// Failure count.
    pub failure: u64,
    hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint {
            success: 0,
            sdc: 0,
            failure: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_fi(&mut self, fi: &FiResult) {
        for n in fi.counts {
            self.eat(&n.to_le_bytes());
        }
        self.eat(&fi.masked.to_le_bytes());
    }

    /// Fold one campaign (`None` = the campaign failed to produce a
    /// result; folded as a marker so a failure cannot alias a success).
    pub fn fold(&mut self, tally: Option<&Tally>) {
        let Some(t) = tally else {
            self.eat(b"failed");
            return;
        };
        self.success += t.fi.counts[0];
        self.sdc += t.fi.counts[1];
        self.failure += t.fi.counts[2];
        if t.outcomes.is_empty() {
            self.eat_fi(&t.fi);
            for n in &t.prop.counts {
                self.eat(&n.to_le_bytes());
            }
            for fi in &t.by_contam {
                self.eat_fi(fi);
            }
            self.eat_fi(&t.uncontaminated);
        }
        for o in &t.outcomes {
            self.eat(&[
                o.kind.index() as u8,
                o.failure.map_or(0, |f| 1 + f as u8),
                o.masked as u8,
                o.detected as u8,
            ]);
            self.eat(&(o.contaminated_ranks as u32).to_le_bytes());
            self.eat(&(o.injections_fired as u32).to_le_bytes());
        }
    }

    /// The 64-bit fold xor-folded to 32 bits (exact in an `f64`).
    pub fn digest32(&self) -> u32 {
        (self.hash ^ (self.hash >> 32)) as u32
    }
}

// ---------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------

/// Which driver executes a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `CampaignRunner::run_uncached` and friends, exactly as the CLI
    /// calls them. No spans.
    Runner,
    /// The benchmark's own loop, one span per layer crossing.
    Mirror,
}

/// Everything fixed for one benchmark run.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Trial counts.
    pub sizes: Sizes,
    /// The `--seed` argument.
    pub seed: u64,
    /// Span recorder (disabled in end-to-end runs).
    pub tracer: &'a Tracer,
}

/// Store layout, as the CLI's `--store DIR` lays it out.
#[derive(Debug, Clone)]
pub struct StoreDirs {
    golden: PathBuf,
    ledger: PathBuf,
    features: PathBuf,
}

impl StoreDirs {
    /// `DIR/{golden,ledger,features}`.
    pub fn under(dir: &Path) -> StoreDirs {
        StoreDirs {
            golden: dir.join("golden"),
            ledger: dir.join("ledger"),
            features: dir.join("features"),
        }
    }

    /// A fresh runner wired to this store the way the CLI wires one.
    pub fn runner(&self) -> CampaignRunner {
        user_runner()
            .with_golden_dir(&self.golden)
            .with_ledger_dir(&self.ledger)
            .with_feature_dir(&self.features)
    }
}

/// What a CLI user gets: auto parallelism, batch 1, no watchdog
/// deadline, the pooled backend on the global pool.
pub fn user_runner() -> CampaignRunner {
    CampaignRunner::new().with_auto_parallelism()
}

/// The state a set-up leaves behind for the segments.
pub enum Env {
    /// In-memory workloads: a runner with every golden profiled.
    Memory {
        /// The runner.
        runner: Box<CampaignRunner>,
    },
    /// `store_resume_p4`: a seeded store.
    Store {
        /// Scratch directory holding the store.
        dir: TmpDir,
        /// The seeded campaigns.
        specs: Vec<CampaignSpec>,
        /// The seeding run's aggregate per campaign (shards
        /// re-interleaved) — what resume and merge must reproduce.
        reference: Vec<Tally>,
    },
    /// `served_mix`: a live daemon and one connection per tenant.
    Served {
        /// Scratch directory holding socket and store.
        dir: TmpDir,
        /// The daemon (taken by [`Env::stop_daemon`]).
        daemon: Option<Daemon>,
        /// One client per tenant.
        clients: Vec<Client>,
        /// A segment already ran against this daemon's store.
        used: bool,
    },
}

impl Env {
    /// Stop a served environment's daemon (drain); returns how long
    /// the drain took. No-op for the other environments.
    pub fn stop_daemon(&mut self, ctx: &Ctx<'_>, parent: u64) -> Option<Duration> {
        let Env::Served {
            daemon, clients, ..
        } = self
        else {
            return None;
        };
        clients.clear();
        let daemon = daemon.take()?;
        let start = Instant::now();
        ctx.tracer
            .span("serve.daemon.stop", parent, 0, |_| daemon.stop());
        Some(start.elapsed())
    }
}

fn warm_goldens(ctx: &Ctx<'_>, runner: &CampaignRunner, specs: &[CampaignSpec], parent: u64) {
    // Campaigns that share a deployment hit the store's memory layer.
    for d in specs {
        ctx.tracer.span("harness.golden.get", parent, 0, |_| {
            runner.golden().get_masked(&d.spec, d.procs, d.op_mask)
        });
    }
}

/// One cold set-up: fresh runner / store / daemon, every golden the
/// workload needs profiled, the store seeded or the daemon started and
/// connected. `driver` selects how the store is seeded (the mirror
/// puts spans around the ledger and feature appends).
pub fn setup(ctx: &Ctx<'_>, driver: Driver, parent: u64) -> Env {
    match ctx.workload {
        Workload::SerialP1 | Workload::SmallP4P8 | Workload::LargeP64 => {
            let runner = user_runner();
            let specs = memory_mix(ctx.workload, &ctx.sizes, ctx.seed, 0);
            warm_goldens(ctx, &runner, &specs, parent);
            Env::Memory {
                runner: Box::new(runner),
            }
        }
        Workload::StoreResumeP4 => {
            let dir = TmpDir::new("store");
            let dirs = StoreDirs::under(dir.path());
            let specs = store_campaigns(&ctx.sizes, ctx.seed);
            let mut reference = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                // Two shard runs into one store, as two CI jobs would.
                let shards: Vec<Tally> = (0..2)
                    .map(|index| {
                        let shard = Shard { index, count: 2 };
                        match driver {
                            Driver::Runner => Tally::of_result(
                                &dirs.runner().with_shard(shard).run_uncached(spec),
                            ),
                            Driver::Mirror => {
                                let runner = user_runner().with_golden_dir(&dirs.golden);
                                let opts = MirrorOpts {
                                    store: Some(&dirs),
                                    resume: false,
                                    shard: Some(shard),
                                };
                                mirror_campaign(
                                    ctx.tracer,
                                    parent,
                                    i as u64 + 1,
                                    &runner,
                                    &opts,
                                    spec,
                                )
                                .0
                            }
                        }
                    })
                    .collect();
                let outcomes: Vec<TestOutcome> = (0..spec.tests)
                    .map(|t| shards[t % 2].outcomes[t / 2])
                    .collect();
                let (fi, prop, by_contam, uncontaminated) =
                    aggregate_outcomes(spec.procs, &outcomes);
                reference.push(Tally::new(fi, prop, by_contam, uncontaminated, outcomes));
            }
            Env::Store {
                dir,
                specs,
                reference,
            }
        }
        Workload::ServedMix => served_setup(ctx, &ctx.sizes, parent),
    }
}

/// The daemon the served workload runs: socket `DIR/s`, durable store
/// `DIR/store`, 2 workers, batch 1.
pub fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        socket: dir.join("s"),
        store: Some(dir.join("store")),
        workers: 2,
        batch: 1,
    }
}

/// Start a daemon on a fresh store, connect both tenants, profile
/// every golden the tenants will need.
pub fn served_setup(ctx: &Ctx<'_>, sizes: &Sizes, parent: u64) -> Env {
    let dir = TmpDir::new("serve");
    let config = serve_config(dir.path());
    let socket = config.socket.clone();
    let daemon = ctx
        .tracer
        .span("serve.daemon.spawn", parent, 0, |_| Daemon::spawn(config))
        .unwrap_or_else(|e| panic!("daemon spawn: {e}"));
    let clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(&socket).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let [a, b] = served_tenants(sizes, ctx.seed, 0);
    let all: Vec<CampaignSpec> = a.into_iter().chain(b).collect();
    warm_goldens(ctx, daemon.scheduler().runner(), &all, parent);
    Env::Served {
        dir,
        daemon: Some(daemon),
        clients,
        used: false,
    }
}

// ---------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------

/// Timing of the benchmark's own `run_trial` calls (mirror driver).
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    /// One entry per executed trial, ns.
    pub trial_ns: Vec<u64>,
    /// Σ over campaigns of workers × worker-region wall, ns.
    pub region_ns: u64,
    /// Σ over campaigns of the campaign's wall, ns.
    pub campaign_ns: u64,
}

impl ExecStats {
    fn absorb(&mut self, other: ExecStats) {
        self.trial_ns.extend(other.trial_ns);
        self.region_ns += other.region_ns;
        self.campaign_ns += other.campaign_ns;
    }

    /// Σ `run_trial`, ns.
    pub fn busy_ns(&self) -> u64 {
        self.trial_ns.iter().sum()
    }
}

/// What a served segment observed from the client side.
#[derive(Debug, Default, Clone)]
pub struct ServedStats {
    /// Submit → terminal `done`, per campaign, seconds.
    pub turnaround_s: Vec<f64>,
    /// Submit → first progress line, per campaign, ms.
    pub first_progress_ms: Vec<f64>,
    /// Seconds from segment start to each tenant's last `done`.
    pub tenant_finish_s: [f64; 2],
    /// Trials each tenant was delivered.
    pub tenant_trials: [u64; 2],
}

/// One executed segment.
#[derive(Debug, Default)]
pub struct SegmentOutput {
    /// One entry per campaign in mix order; `None` = the campaign
    /// panicked or the daemon answered `error` / a non-`done` state.
    pub tallies: Vec<Option<Tally>>,
    /// Records each campaign should have delivered (for `failed`).
    pub expected: Vec<u64>,
    /// Rank jobs the global pool dispatched during the segment — zero
    /// exactly when no trial (and no golden profiling) executed.
    pub pool_jobs: u64,
    /// Mirror-driver trial timings (empty on the runner driver).
    pub exec: ExecStats,
    /// Client-side observations (served segments only).
    pub served: ServedStats,
}

impl SegmentOutput {
    /// Records delivered by campaigns that completed.
    pub fn records(&self) -> u64 {
        self.tallies.iter().flatten().map(Tally::records).sum()
    }

    /// Records belonging to campaigns that did not complete.
    pub fn failed(&self) -> u64 {
        self.tallies
            .iter()
            .zip(&self.expected)
            .filter(|(t, _)| t.is_none())
            .map(|(_, n)| n)
            .sum()
    }

    /// Fold of every campaign, in mix order.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut f = Fingerprint::default();
        for t in &self.tallies {
            f.fold(t.as_ref());
        }
        f
    }
}

/// Untimed work before a segment. A served segment gets a fresh daemon
/// on a fresh store: every submit re-scans the whole ledger and
/// feature directories, so segments sharing one store slow down
/// steadily (2× the CPU per trial after ~110 campaigns on this host)
/// and the median would depend on how many segments the run fits.
pub fn prepare_segment(ctx: &Ctx<'_>, env: &mut Env) {
    if matches!(env, Env::Served { used: true, .. }) {
        *env = served_setup(ctx, &ctx.sizes, 0);
    }
}

/// A campaign that panics is a failed operation, not a failed
/// benchmark: its records are counted in `failed`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Execute segment `segment` of the workload on `driver`. `parent` is
/// the segment's span.
pub fn run_segment(
    ctx: &Ctx<'_>,
    env: &mut Env,
    segment: u64,
    driver: Driver,
    parent: u64,
) -> SegmentOutput {
    let jobs_before = resilim_simmpi::WorldPool::global().jobs_dispatched();
    // The runner driver is the untraced program: no spans below it,
    // even inside a traced run.
    ctx.tracer.pause(driver == Driver::Runner);
    let mut out = match env {
        Env::Memory { runner } => {
            let specs = memory_mix(ctx.workload, &ctx.sizes, ctx.seed, segment);
            let mut out = SegmentOutput::default();
            for (i, spec) in specs.iter().enumerate() {
                out.expected.push(spec.tests as u64);
                out.tallies.push(guarded(|| match driver {
                    Driver::Runner => Tally::of_result(&runner.run_uncached(spec)),
                    Driver::Mirror => {
                        let (tally, exec) = mirror_campaign(
                            ctx.tracer,
                            parent,
                            i as u64 + 1,
                            runner,
                            &MirrorOpts::default(),
                            spec,
                        );
                        out.exec.absorb(exec);
                        tally
                    }
                }));
            }
            out
        }
        Env::Store { dir, specs, .. } => {
            let dirs = StoreDirs::under(dir.path());
            let mut out = SegmentOutput::default();
            for _ in 0..ctx.sizes.store_cycles {
                store_cycle(ctx, &dirs, specs, driver, parent, &mut out);
            }
            out
        }
        Env::Served { clients, used, .. } => {
            *used = true;
            let tenants = served_tenants(&ctx.sizes, ctx.seed, segment);
            // Both drivers are the same client calls; the untraced one
            // just records no spans.
            served_segment(ctx.tracer, clients, &tenants, parent)
        }
    };
    ctx.tracer.pause(false);
    out.pool_jobs = (resilim_simmpi::WorldPool::global().jobs_dispatched() - jobs_before) as u64;
    out
}

/// One resume + merge cycle over the store, each half on a fresh
/// runner (as two CLI invocations would be): `--resume` re-aggregates
/// every ledgered trial through the pipeline, `merge` folds the ledger
/// directly.
fn store_cycle(
    ctx: &Ctx<'_>,
    dirs: &StoreDirs,
    specs: &[CampaignSpec],
    driver: Driver,
    parent: u64,
    out: &mut SegmentOutput,
) {
    let resumer = match driver {
        Driver::Runner => dirs.runner().with_resume(true),
        // The mirror loads ledger and features itself.
        Driver::Mirror => user_runner().with_golden_dir(&dirs.golden),
    };
    for (i, spec) in specs.iter().enumerate() {
        out.expected.push(spec.tests as u64);
        out.tallies.push(guarded(|| match driver {
            Driver::Runner => Tally::of_result(&resumer.run_uncached(spec)),
            Driver::Mirror => {
                let opts = MirrorOpts {
                    store: Some(dirs),
                    resume: true,
                    shard: None,
                };
                let (tally, exec) =
                    mirror_campaign(ctx.tracer, parent, i as u64 + 1, &resumer, &opts, spec);
                out.exec.absorb(exec);
                tally
            }
        }));
    }
    let merger = dirs.runner();
    for (i, spec) in specs.iter().enumerate() {
        out.expected.push(spec.tests as u64);
        out.tallies.push(
            guarded(|| {
                ctx.tracer.span(
                    "harness.runner.merged_from_ledger",
                    parent,
                    i as u64 + 1,
                    |_| merger.merged_from_ledger(spec),
                )
            })
            .and_then(|r| r.ok())
            .map(|r| Tally::of_result(&r)),
        );
    }
}

/// Two closed-loop tenants, one thread and one connection each: submit
/// a campaign, watch it to `done`, submit the next.
pub fn served_segment(
    tracer: &Tracer,
    clients: &mut [Client],
    tenants: &[Vec<CampaignSpec>; 2],
    parent: u64,
) -> SegmentOutput {
    type TenantResult = (Vec<Option<Tally>>, Vec<f64>, Vec<f64>, f64);
    let start = Instant::now();
    let results: Vec<TenantResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tenants)
            .enumerate()
            .map(|(tenant, (client, specs))| {
                scope.spawn(move || {
                    let mut tallies = Vec::new();
                    let mut turnaround_s = Vec::new();
                    let mut first_progress_ms = Vec::new();
                    for (i, spec) in specs.iter().enumerate() {
                        let cid = (tenant * 100 + i + 1) as u64;
                        let submitted = Instant::now();
                        let mut first: Option<Duration> = None;
                        let summary = tracer.span("bench.campaign", parent, cid, |c| {
                            let (id, _deduped) = tracer
                                .span("serve.client.submit", c, cid, |_| {
                                    client.submit(SubmitSpec::of_campaign(spec))
                                })
                                .ok()?;
                            let (state, summary) = tracer
                                .span("serve.client.watch", c, cid, |_| {
                                    client.watch(id, |_, _| {
                                        first.get_or_insert_with(|| submitted.elapsed());
                                    })
                                })
                                .ok()?;
                            (state == resilim_serve::CampaignState::Done)
                                .then_some(summary)
                                .flatten()
                        });
                        turnaround_s.push(submitted.elapsed().as_secs_f64());
                        if let Some(first) = first {
                            first_progress_ms.push(first.as_secs_f64() * 1e3);
                        }
                        tallies.push(summary.as_ref().map(Tally::of_summary));
                    }
                    (
                        tallies,
                        turnaround_s,
                        first_progress_ms,
                        start.elapsed().as_secs_f64(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let mut out = SegmentOutput::default();
    for (tenant, ((tallies, turnaround, first, finish), specs)) in
        results.into_iter().zip(tenants).enumerate()
    {
        out.served.tenant_finish_s[tenant] = finish;
        out.served.tenant_trials[tenant] = tallies.iter().flatten().map(Tally::records).sum();
        out.served.turnaround_s.extend(turnaround);
        out.served.first_progress_ms.extend(first);
        out.expected.extend(specs.iter().map(|s| s.tests as u64));
        out.tallies.extend(tallies);
    }
    out
}

// ---------------------------------------------------------------------
// The mirror driver
// ---------------------------------------------------------------------

/// Durability options of one mirrored campaign (the runner's
/// `with_ledger_dir` / `with_feature_dir` / `with_resume` /
/// `with_shard`).
#[derive(Default)]
pub struct MirrorOpts<'a> {
    /// Ledger and feature directories, when durable.
    pub store: Option<&'a StoreDirs>,
    /// Reload ledgered trials instead of running them.
    pub resume: bool,
    /// Run only the trials this shard owns.
    pub shard: Option<Shard>,
}

/// Ledger consumer with a span around every append; the span's parent
/// is whichever `push_batch` is delivering (set by the caller under the
/// pipeline lock).
struct SpannedLedger<'a> {
    tracer: &'a Tracer,
    parent: &'a AtomicU64,
    campaign: u64,
    ledger: Option<&'a TrialLedger>,
}

impl TrialConsumer for SpannedLedger<'_> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if let (Some(ledger), false) = (self.ledger, rec.resumed) {
            let parent = self.parent.load(Ordering::Relaxed);
            self.tracer
                .span("harness.ledger.append_batch", parent, self.campaign, |_| {
                    ledger.append_batch(&[(rec.index, rec.outcome, rec.attempts)])
                });
        }
        false
    }

    fn finish(&mut self) {
        if let Some(ledger) = self.ledger {
            ledger.sync();
        }
    }
}

/// Feature-store twin of [`SpannedLedger`].
struct SpannedFeatures<'a> {
    tracer: &'a Tracer,
    parent: &'a AtomicU64,
    campaign: u64,
    store: Option<&'a FeatureStore>,
}

impl TrialConsumer for SpannedFeatures<'_> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if let (Some(store), false, Some(features)) = (self.store, rec.resumed, rec.features) {
            let parent = self.parent.load(Ordering::Relaxed);
            self.tracer.span(
                "harness.features.append_batch",
                parent,
                self.campaign,
                |_| store.append_batch(&[(rec.index, features)]),
            );
        }
        false
    }

    fn finish(&mut self) {
        if let Some(store) = self.store {
            store.sync();
        }
    }
}

/// Run one campaign through the benchmark's own copy of the runner's
/// loop (`CampaignRunner::run_uncached`, batch 1): golden → executor →
/// resume → claim / `run_trial` / `push_batch` on the worker count the
/// runner would use → finish. Every call into a layer is a span under
/// a `bench.campaign` span.
pub fn mirror_campaign(
    tracer: &Tracer,
    parent: u64,
    campaign: u64,
    runner: &CampaignRunner,
    opts: &MirrorOpts<'_>,
    spec: &CampaignSpec,
) -> (Tally, ExecStats) {
    tracer.span("bench.campaign", parent, campaign, |cspan| {
        let campaign_start = Instant::now();
        tracer.span("harness.golden.get", cspan, campaign, |_| {
            runner
                .golden()
                .get_masked(&spec.spec, spec.procs, spec.op_mask)
        });
        let executor = tracer.span("harness.runner.trial_executor", cspan, campaign, |_| {
            runner.trial_executor(spec)
        });
        let owned: Vec<usize> = (0..spec.tests)
            .filter(|&t| opts.shard.is_none_or(|s| s.owns(t)))
            .collect();
        let key = spec.ledger_key();
        let ledger = opts.store.map(|d| {
            TrialLedger::open(&d.ledger, &key, spec.seed).expect("scratch ledger is writable")
        });
        let feature_store = opts.store.map(|d| {
            FeatureStore::open(&d.features, &key, spec.seed)
                .expect("scratch feature store is writable")
        });
        let (mut resumed, resumed_features) = match (opts.store, opts.resume) {
            (Some(d), true) => (
                tracer.span("harness.ledger.load", cspan, campaign, |_| {
                    TrialLedger::load(&d.ledger, &key, spec.seed)
                }),
                tracer.span("harness.features.load", cspan, campaign, |_| {
                    FeatureStore::load(&d.features, &key, spec.seed)
                }),
            ),
            _ => Default::default(),
        };
        resumed.retain(|&t, _| t < spec.tests);
        let pending: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|t| !resumed.contains_key(t))
            .collect();

        let push_span = AtomicU64::new(0);
        let mut acc = CampaignAccumulator::new(spec.procs, spec.stop);
        let mut ledger_sink = SpannedLedger {
            tracer,
            parent: &push_span,
            campaign,
            ledger: ledger.as_ref(),
        };
        let mut feature_sink = SpannedFeatures {
            tracer,
            parent: &push_span,
            campaign,
            store: feature_store.as_ref(),
        };
        let mut exec = ExecStats::default();
        {
            let consumers: Vec<&mut dyn TrialConsumer> =
                vec![&mut acc, &mut ledger_sink, &mut feature_sink];
            let mut pipeline = TrialPipeline::new(owned.clone(), consumers);
            if !resumed.is_empty() {
                tracer.span("harness.stream.push_batch", cspan, campaign, |id| {
                    push_span.store(id, Ordering::Relaxed);
                    for &t in &owned {
                        if let Some(outcome) = resumed.get(&t) {
                            pipeline.push(TrialRecord {
                                index: t,
                                outcome: *outcome,
                                attempts: 0,
                                resumed: true,
                                latency_us: 0,
                                features: resumed_features.get(&t).copied(),
                            });
                        }
                    }
                });
            }

            let workers = runner
                .effective_parallelism(spec.procs)
                .min(pending.len().max(1));
            let pipeline = Mutex::new(pipeline);
            let next = AtomicUsize::new(0);
            // One worker's life: claim the next pending trial, run it,
            // push its record under the pipeline lock.
            let work = || {
                let mut trial_ns = Vec::new();
                loop {
                    if pipeline.lock().expect("pipeline lock").stopped() {
                        break;
                    }
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&test) = pending.get(pos) else {
                        break;
                    };
                    let start = Instant::now();
                    let rec = tracer.span("harness.exec.run_trial", cspan, campaign, |_| {
                        executor.run_trial(test)
                    });
                    trial_ns.push(start.elapsed().as_nanos() as u64);
                    let mut p = pipeline.lock().expect("pipeline lock");
                    tracer.span("harness.stream.push_batch", cspan, campaign, |id| {
                        push_span.store(id, Ordering::Relaxed);
                        p.push_batch([rec]);
                    });
                }
                trial_ns
            };
            let region = Instant::now();
            if workers <= 1 {
                exec.trial_ns = work();
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                    for h in handles {
                        exec.trial_ns.extend(h.join().expect("mirror worker"));
                    }
                });
            }
            exec.region_ns = region.elapsed().as_nanos() as u64 * workers as u64;
            let mut pipeline = pipeline.into_inner().expect("pipeline lock");
            pipeline.finish();
            assert!(
                pipeline.stopped() || pipeline.is_drained(),
                "every owned trial resumed or ran"
            );
        }
        let (outcomes, _features, fi, prop, by_contam, uncontaminated) = acc.into_parts();
        exec.campaign_ns = campaign_start.elapsed().as_nanos() as u64;
        (
            Tally::new(fi, prop, by_contam, uncontaminated, outcomes),
            exec,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;
    use resilim_harness::ErrorSpec;

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = Tally {
            fi: FiResult {
                counts: [2, 1, 0],
                masked: 1,
            },
            prop: PropagationProfile::new(1),
            by_contam: vec![FiResult::default()],
            uncontaminated: FiResult::default(),
            outcomes: vec![
                TestOutcome::success(true, 1, 1),
                TestOutcome::sdc(1, 1),
                TestOutcome::success(false, 1, 1),
            ],
        };
        let mut b = a.clone();
        b.outcomes.swap(0, 1);
        let fold = |ts: &[Option<&Tally>]| {
            let mut f = Fingerprint::default();
            for t in ts {
                f.fold(*t);
            }
            f
        };
        assert_eq!(fold(&[Some(&a)]), fold(&[Some(&a)]));
        assert_ne!(fold(&[Some(&a)]).digest32(), fold(&[Some(&b)]).digest32());
        assert_ne!(fold(&[Some(&a)]), fold(&[Some(&a), None]));
        let f = fold(&[Some(&a), Some(&b)]);
        assert_eq!((f.success, f.sdc, f.failure), (4, 2, 0));
        // A summary-only tally still folds its counts.
        let s = a.clone().summary_only();
        assert_ne!(
            fold(&[Some(&s)]).digest32(),
            Fingerprint::default().digest32()
        );
    }

    fn tally_of(procs: usize, outcomes: Vec<TestOutcome>) -> Tally {
        let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(procs, &outcomes);
        Tally::new(fi, prop, by_contam, uncontaminated, outcomes)
    }

    #[test]
    fn tally_ignores_how_far_taint_spread_before_a_failure() {
        use resilim_inject::FailureKind::Crash;
        let run = |crash_contam, sdc_contam| {
            tally_of(
                4,
                vec![
                    TestOutcome::success(true, 0, 0),
                    TestOutcome::failure(Crash, crash_contam, 1),
                    TestOutcome::sdc(sdc_contam, 1),
                ],
            )
        };
        // The race: same trial, torn down after 4 or after 3 ranks.
        assert_eq!(run(4, 2), run(3, 2));
        assert_eq!(run(4, 2).summary_only(), run(0, 2).summary_only());
        assert_eq!(run(4, 2).fi.counts, [1, 1, 1]);
        assert_eq!(run(4, 2).prop.counts, vec![1, 1, 0, 0]);
        // Everything a finished trial reports still counts.
        assert_ne!(run(4, 2), run(4, 3));
        assert_ne!(run(4, 2).summary_only(), run(4, 3).summary_only());
        let other_kind = tally_of(
            4,
            vec![
                TestOutcome::success(true, 0, 0),
                TestOutcome::failure(resilim_inject::FailureKind::Hang, 4, 1),
                TestOutcome::sdc(2, 1),
            ],
        );
        assert_ne!(run(4, 2), other_kind);
    }

    #[test]
    #[should_panic(expected = "fold of its outcomes")]
    fn tally_rejects_aggregates_that_are_not_the_fold() {
        let outcomes = vec![TestOutcome::sdc(1, 1)];
        let (fi, prop, by_contam, _) = aggregate_outcomes(2, &outcomes);
        Tally::new(fi, prop, by_contam, fi, outcomes);
    }

    #[test]
    fn mirror_matches_runner_bitwise() {
        let tracer = Tracer::new(true);
        let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 8, 11);
        let runner = user_runner();
        let expected = Tally::of_result(&runner.run_uncached(&spec));
        let (got, exec) = mirror_campaign(&tracer, 0, 1, &runner, &MirrorOpts::default(), &spec);
        assert_eq!(got, expected);
        assert_eq!(exec.trial_ns.len(), 8);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for want in [
            "bench.campaign",
            "harness.golden.get",
            "harness.runner.trial_executor",
            "harness.exec.run_trial",
            "harness.stream.push_batch",
        ] {
            assert!(names.contains(&want), "missing span {want}");
        }
    }
}
