//! The campaign runner: configuration (parallelism, durability,
//! watchdog), caching, the one-shot scheduling policy over a
//! [`CampaignRun`](super::CampaignRun), and the per-trial execution
//! seam ([`TrialExecutor`], [`work_loop`]) every scheduler shares.

use super::exec;
use super::spec::{CampaignResult, CampaignSpec};
use super::stream::TrialRecord;
use crate::golden::{GoldenRun, GoldenStore};
use crate::ledger::{self, Shard};
use parking_lot::Mutex;
use resilim_inject::{FailureKind, TestOutcome};
use resilim_obs as obs;
use std::collections::HashMap;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs campaigns, caching both golden runs and whole campaign results
/// (experiment pipelines share many deployments — e.g. every Figure 8
/// sweep reuses the serial sample campaigns it has in common).
pub struct CampaignRunner {
    golden: GoldenStore,
    cache: Mutex<HashMap<String, Arc<CampaignResult>>>,
    /// Fault-injection tests run concurrently (1 = sequential), resolved
    /// once by [`CampaignRunner::with_test_parallelism`] or
    /// [`CampaignRunner::with_auto_parallelism`].
    test_workers: usize,
    /// Durable per-trial ledger directory (`--store DIR/ledger`).
    pub(super) ledger_dir: Option<PathBuf>,
    /// Durable per-trial feature-store directory
    /// (`--store DIR/features`).
    pub(super) feature_dir: Option<PathBuf>,
    /// Skip trials already present in the ledger (`--resume`).
    pub(super) resume: bool,
    /// Deterministic trial partition this runner executes (`--shard`).
    pub(super) shard: Option<Shard>,
    /// Wall-clock watchdog per trial; `None` disables the watchdog.
    trial_deadline: Option<Duration>,
    /// Retry budget for trials the watchdog killed.
    max_retries: u32,
    /// Carry each trial's ranks on freshly spawned threads instead of
    /// coroutines over the global [`resilim_simmpi::WorldPool`]
    /// (the reference carrier for `resilim check`'s `identity`
    /// oracle).
    spawn_per_trial: bool,
    /// Trials admitted/committed per pipeline transaction (`--batch`).
    pub(super) trial_batch: usize,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        CampaignRunner::new()
    }
}

impl CampaignRunner {
    /// Fresh runner with empty caches, running tests sequentially.
    pub fn new() -> CampaignRunner {
        CampaignRunner {
            golden: GoldenStore::new(),
            cache: Mutex::new(HashMap::new()),
            test_workers: 1,
            ledger_dir: None,
            feature_dir: None,
            resume: false,
            shard: None,
            trial_deadline: None,
            max_retries: ledger::DEFAULT_MAX_RETRIES,
            spawn_per_trial: false,
            trial_batch: 1,
        }
    }

    /// Run up to `k` fault-injection tests concurrently (each test
    /// occupies one core whatever its `procs`, so a sensible `k` is the
    /// core count). Results are bitwise identical to a sequential run:
    /// every test's randomness is derived from its index.
    pub fn with_test_parallelism(mut self, k: usize) -> CampaignRunner {
        self.test_workers = k.max(1);
        self
    }

    /// Scale test parallelism to the host automatically:
    /// `available_parallelism()` workers, at every `procs`.
    /// Same bitwise-determinism guarantee as
    /// [`CampaignRunner::with_test_parallelism`].
    ///
    /// Each worker runs one world at a time, and a world occupies exactly
    /// one core whatever its `procs` — its ranks are coroutines of the
    /// worker's own thread, one runnable at a time — so trials, not
    /// ranks, are the parallel unit. On a 1-core host it is 1 and the
    /// runner drives its single worker inline, spawning no scoped threads
    /// for parallelism the host cannot deliver.
    pub fn with_auto_parallelism(self) -> CampaignRunner {
        self.with_test_parallelism(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Persist golden runs under `dir` so later processes skip
    /// re-profiling (the CLI wires `--store DIR` to `DIR/golden`).
    pub fn with_golden_dir(mut self, dir: impl Into<std::path::PathBuf>) -> CampaignRunner {
        self.golden = std::mem::take(&mut self.golden).with_disk_dir(dir);
        self
    }

    /// Record every completed trial durably under `dir` (the CLI wires
    /// `--store DIR` to `DIR/ledger`). See [`crate::ledger`].
    pub fn with_ledger_dir(mut self, dir: impl Into<PathBuf>) -> CampaignRunner {
        self.ledger_dir = Some(dir.into());
        self
    }

    /// Persist every freshly executed trial's
    /// [`TrialFeatures`](resilim_core::TrialFeatures) under
    /// `dir` (the CLI wires `--store DIR` to `DIR/features`), keyed
    /// exactly like the ledger. See [`crate::features`].
    pub fn with_feature_dir(mut self, dir: impl Into<PathBuf>) -> CampaignRunner {
        self.feature_dir = Some(dir.into());
        self
    }

    /// Reload already-ledgered trials instead of re-running them.
    /// Results are bitwise identical to an uninterrupted run.
    pub fn with_resume(mut self, resume: bool) -> CampaignRunner {
        self.resume = resume;
        self
    }

    /// Run only the trials `shard` owns (`trial % N == i`). Shard
    /// results are *partial*: they cover the owned trials only and are
    /// never published in the whole-campaign cache; merge the shards'
    /// ledgers with [`CampaignRunner::merged_from_ledger`].
    pub fn with_shard(mut self, shard: Shard) -> CampaignRunner {
        self.shard = Some(shard);
        self
    }

    /// The shard this runner executes, when one is configured.
    pub fn shard(&self) -> Option<Shard> {
        self.shard
    }

    /// Arm the per-trial wall-clock watchdog (on either carrier): a
    /// trial still running after `deadline` has its fabric poisoned and
    /// is retried, with exponential backoff, up to the runner's retry
    /// budget ([`CampaignRunner::with_max_retries`]). Pick a deadline
    /// generously above the slowest legitimate trial — a trip on a
    /// healthy trial would (after retries) record a `Hang` a fresh run
    /// would not.
    pub fn with_trial_deadline(mut self, deadline: Duration) -> CampaignRunner {
        self.trial_deadline = Some(deadline);
        self
    }

    /// How many times a trial the watchdog killed is re-run before it
    /// is recorded as a `Hang` (default 2; 0 records the kill directly).
    pub fn with_max_retries(mut self, max_retries: u32) -> CampaignRunner {
        self.max_retries = max_retries;
        self
    }

    /// Execute each trial on freshly spawned rank threads
    /// ([`resilim_simmpi::World::run_spawned`]) instead of coroutines
    /// over the process-global pool
    /// ([`resilim_simmpi::World::run_with_ctx`]). Semantically identical
    /// — both carriers follow the fabric's one schedule through the same
    /// per-rank execution path — and therefore bitwise identical in
    /// outcome, failed trials included, which is exactly what `resilim
    /// check`'s `identity` oracle asserts.
    pub fn with_spawn_per_trial(mut self) -> CampaignRunner {
        self.spawn_per_trial = true;
        self
    }

    /// Admit and commit trials in batches of `batch` (default 1):
    /// workers claim `batch` contiguous pending positions per shared
    /// counter bump and push all their completions under one pipeline
    /// lock, and the ledger consumer buffers `batch` records per
    /// write+flush. Aggregates are bitwise identical at every batch
    /// size — the reorder buffer still delivers strictly in owned-index
    /// order and an adaptive stop still freezes the same prefix (a
    /// batch only means up to `batch - 1` extra trials may *execute*
    /// past the stop before it is noticed; their records are dropped
    /// undelivered, exactly like late completions under parallelism).
    pub fn with_trial_batch(mut self, batch: usize) -> CampaignRunner {
        self.trial_batch = batch.max(1);
        self
    }

    /// The configured admission batch size.
    pub fn trial_batch(&self) -> usize {
        self.trial_batch
    }

    /// The worker count every campaign of this runner uses, resolved when
    /// the runner was configured. `procs` does not change it: a world
    /// occupies one core whatever its size.
    pub fn effective_parallelism(&self, _procs: usize) -> usize {
        self.test_workers
    }

    /// The golden-run store.
    pub fn golden(&self) -> &GoldenStore {
        &self.golden
    }

    /// Run (or fetch from cache) a campaign. Experiments call this one
    /// campaign at a time, so the cache needs no single-flight: two
    /// concurrent callers of one uncached spec each run it, with
    /// identical results.
    ///
    /// Panics when a configured store cannot be opened — a campaign
    /// asked to be durable never runs non-durably; callers that want
    /// the error instead use [`CampaignRunner::try_run`].
    pub fn run(&self, spec: &CampaignSpec) -> Arc<CampaignResult> {
        self.try_run(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CampaignRunner::run`], returning the store-open error (naming
    /// the directory and the OS error) instead of panicking. The error
    /// is raised before any trial executes.
    pub fn try_run(&self, spec: &CampaignSpec) -> std::io::Result<Arc<CampaignResult>> {
        if self.shard.is_some() {
            // A shard's result covers only its owned trials; publishing
            // it under the whole-campaign key would poison the cache.
            note_campaign_lookup(false);
            return self.execute(spec).map(Arc::new);
        }
        let key = spec.cache_key();
        if let Some(hit) = self.cache.lock().get(&key) {
            note_campaign_lookup(true);
            return Ok(Arc::clone(hit));
        }
        note_campaign_lookup(false);
        let result = Arc::new(self.execute(spec)?);
        self.cache.lock().insert(key, Arc::clone(&result));
        Ok(result)
    }

    /// Run a campaign without touching the campaign cache (golden runs are
    /// still cached). Used where campaign execution itself is timed.
    /// Panics like [`CampaignRunner::run`] on an unopenable store.
    pub fn run_uncached(&self, spec: &CampaignSpec) -> CampaignResult {
        self.execute(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one-shot scheduling policy: open a single
    /// [`CampaignRun`](super::CampaignRun) and drain it with `workers`
    /// [`work_loop`]s, each claiming `--batch` trials at a time — inline
    /// when one worker suffices, under scoped threads otherwise.
    ///
    /// Completed trials flow as [`TrialRecord`] events through the run's
    /// reorder buffer to the aggregation, ledger, and obs sinks in
    /// trial-index order, so every statistic is a pure fold of the
    /// in-order stream regardless of worker count — and an adaptive
    /// [`CampaignSpec::stop`] rule stops the campaign at a deterministic
    /// trial (workers stop claiming once it fires).
    fn execute(&self, spec: &CampaignSpec) -> std::io::Result<CampaignResult> {
        let run = self.open_run(spec)?;
        run.announce();
        let workers = self.test_workers.min(run.unclaimed().max(1));
        let executor = Arc::clone(run.executor());
        let run = Mutex::new(run);
        let worker = || {
            work_loop(
                || {
                    let tests = run.lock().claim(self.trial_batch);
                    (!tests.is_empty()).then_some(((), &*executor, tests))
                },
                |(), records| run.lock().deliver(records),
            )
        };
        // Worker-region timer: spans exactly the trial-execution
        // region (not golden profiling, not aggregation), so
        // `WorkerBusyNanos / WorkerWallNanos` is a true utilization.
        let worker_region = Instant::now();
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        if obs::enabled() {
            obs::count(
                obs::Counter::WorkerWallNanos,
                (worker_region.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                    .saturating_mul(workers as u64),
            );
        }
        Ok(run.into_inner().finish())
    }

    /// Package this runner's execution configuration for one campaign
    /// as a standalone [`TrialExecutor`]: the golden run is profiled
    /// (or fetched) up front, then any thread may call
    /// [`TrialExecutor::run_trial`] for any trial index. Every
    /// [`CampaignRun`](super::CampaignRun) is built over one, so
    /// one-shot and served campaigns share this runner's golden store
    /// and the process-global world pool.
    pub fn trial_executor(&self, spec: &CampaignSpec) -> TrialExecutor {
        TrialExecutor {
            spec: spec.clone(),
            golden: self.golden.get_masked(&spec.spec, spec.procs, spec.op_mask),
            spawn_per_trial: self.spawn_per_trial,
            deadline: self.trial_deadline,
            max_retries: self.max_retries,
            campaign_id: obs::next_campaign_id(),
        }
    }
}

/// Everything needed to execute any single trial of one campaign, on
/// any thread: the spec, the profiled golden run, the carrier, and the
/// watchdog deadline and retry budget.
///
/// [`CampaignRunner::trial_executor`] is the one place they are built;
/// the one-shot runner and the `resilim serve` scheduler both execute
/// trials through it (via [`work_loop`]), so multi-campaign execution
/// reuses the exact per-trial path — bitwise identity with the one-shot
/// runner is by construction, not by test.
pub struct TrialExecutor {
    spec: CampaignSpec,
    golden: Arc<GoldenRun>,
    spawn_per_trial: bool,
    deadline: Option<Duration>,
    max_retries: u32,
    campaign_id: u64,
}

impl TrialExecutor {
    /// The campaign this executor runs trials of.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The golden run trials classify against.
    pub fn golden(&self) -> &Arc<GoldenRun> {
        &self.golden
    }

    /// The process-unique campaign id trial events are tagged with.
    pub fn campaign_id(&self) -> u64 {
        self.campaign_id
    }

    /// Run one test durably: the trial span (latency histogram, trial
    /// counter) and the watchdog retry loop, packaged as the
    /// [`TrialRecord`] event the pipeline consumes (the ledger append
    /// and the structured trial event happen in the in-order consumers).
    ///
    /// Only *watchdog* trips are retried: a deterministic in-simulation
    /// crash or hang is the trial's real outcome and would reproduce
    /// identically, so it is recorded first try. A trial that keeps
    /// tripping the deadline after the retry budget is recorded as a
    /// [`FailureKind::Hang`] rather than wedging the campaign.
    pub fn run_trial(&self, test: usize) -> TrialRecord {
        let t = obs::timer();
        let mut attempt: u32 = 0;
        let (outcome, features) = loop {
            let (outcome, killed, features) = exec::execute_trial(
                &self.spec,
                &self.golden,
                test,
                self.spawn_per_trial,
                self.deadline,
            );
            if !killed {
                break (outcome, features);
            }
            obs::count(obs::Counter::TrialDeadlineTrips, 1);
            if attempt < self.max_retries {
                attempt += 1;
                obs::count(obs::Counter::TrialRetries, 1);
                obs::emit(&obs::Event::TrialRetry {
                    campaign: self.campaign_id,
                    test,
                    attempt,
                });
                std::thread::sleep(ledger::backoff(attempt - 1));
                continue;
            }
            // Retry budget exhausted: record the wedge as a hang so the
            // campaign terminates with a classified outcome (keeping any
            // detection the doomed run still managed to report). The
            // feature label follows the reclassification.
            let outcome = TestOutcome::failure(
                FailureKind::Hang,
                outcome.contaminated_ranks as usize,
                outcome.injections_fired as usize,
            )
            .with_detected(outcome.detected);
            let mut features = features;
            features.label = outcome.kind.index() as u8;
            break (outcome, features);
        };
        obs::count(obs::Counter::TrialsRun, 1);
        let latency_us = match t {
            Some(t) => {
                let latency_us = obs::as_micros(t.elapsed());
                obs::observe(obs::Hist::TrialLatencyUs, latency_us);
                latency_us
            }
            None => 0,
        };
        TrialRecord {
            index: test,
            outcome,
            attempts: attempt + 1,
            resumed: false,
            latency_us,
            features: Some(features),
        }
    }
}

/// Record a campaign-cache lookup (hit = an Arc'd result was reused).
fn note_campaign_lookup(hit: bool) {
    obs::count(
        if hit {
            obs::Counter::CampaignCacheHits
        } else {
            obs::Counter::CampaignCacheMisses
        },
        1,
    );
    obs::emit(&obs::Event::CacheLookup {
        cache: "campaign",
        hit,
    });
}

/// One worker's life, under any scheduler: `claim` a batch of trials
/// of some campaign (with the executor to run them on and a key naming
/// whom they belong to), execute them outside every lock, `deliver`
/// the records back under the key — until `claim` returns `None`. The
/// scheduler is the two closures: which campaign to claim from next,
/// when to block, when to stop. Each trial's execution time is added
/// to `WorkerBusyNanos` here, once, for one-shot and served campaigns
/// alike.
pub fn work_loop<K, E: Deref<Target = TrialExecutor>>(
    mut claim: impl FnMut() -> Option<(K, E, Vec<usize>)>,
    mut deliver: impl FnMut(K, Vec<TrialRecord>),
) {
    while let Some((key, executor, tests)) = claim() {
        let mut records = Vec::with_capacity(tests.len());
        for test in tests {
            let busy = obs::timer();
            records.push(executor.run_trial(test));
            if let Some(busy) = busy {
                obs::count(
                    obs::Counter::WorkerBusyNanos,
                    busy.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
            }
        }
        deliver(key, records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{aggregate_outcomes, ErrorSpec};
    use resilim_apps::App;
    use resilim_core::{OutcomeKind, StopRule};

    fn campaign(app: App, procs: usize, errors: ErrorSpec, tests: usize) -> CampaignSpec {
        CampaignSpec::new(app.default_spec(), procs, errors, tests, 42)
    }

    /// A world occupies one core whatever its rank count, so auto is the
    /// core count at every scale — and still exactly 1 on a 1-core host
    /// (once measured at 0.90× of `jobs=1` there when it was not), so the
    /// runner drives its worker inline and never pays for scoped threads
    /// the host cannot run in parallel.
    #[test]
    fn auto_worker_count_clamps_to_one_on_small_hosts() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runner = CampaignRunner::new().with_auto_parallelism();
        for procs in [1, 4, 64, 128] {
            assert_eq!(runner.effective_parallelism(procs), cores);
        }
    }

    /// Every non-default fault model runs end-to-end through the
    /// campaign path and produces causally-consistent, model-shaped
    /// outcomes.
    #[test]
    fn fault_models_run_end_to_end() {
        use resilim_inject::{FailureKind, FaultModelSpec};
        let runner = CampaignRunner::new();
        let base = campaign(App::Lu, 2, ErrorSpec::OneParallel, 12);

        // DUE: a fired fault halts its rank; the trial is a detected
        // Due failure, never silent corruption.
        let due = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Due));
        assert!(due.due_count() > 0, "12 trials with no firing fault");
        for o in &due.outcomes {
            assert!(o.is_causally_consistent());
            if o.injections_fired > 0 {
                assert_eq!(o.failure, Some(FailureKind::Due));
                assert!(o.detected);
            }
        }
        assert_eq!(due.detection_coverage(), Some(1.0));

        // Burst: runs to completion under the op-targeting path.
        let burst = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Burst(3)));
        assert_eq!(burst.outcomes.len(), 12);
        assert!(burst.outcomes.iter().all(|o| o.is_causally_consistent()));

        // Msg: the wire fault fires on every trial (the targeted message
        // is always sent in a deterministic app) and contaminates.
        let msg = runner.run_uncached(&base.clone().with_fault_model(FaultModelSpec::Msg));
        assert!(msg.outcomes.iter().all(|o| o.injections_fired > 0));
        assert!(msg.outcomes.iter().any(|o| o.contaminated_ranks > 0));
        assert!(msg.outcomes.iter().all(|o| o.is_causally_consistent()));

        // Replication: wire corruption crosses a compare point, so
        // contaminated msg-model trials are overwhelmingly detected.
        // Coverage may fall short of 1.0: the compare uses the campaign's
        // significance threshold θ, and a low-order-bit flip can slip
        // under it at the compare point yet amplify into contamination
        // downstream — exactly the blind spot tolerance-based comparison
        // has in real replicated MPI.
        let repl = runner.run_uncached(
            &base
                .with_fault_model(FaultModelSpec::Msg)
                .with_replication(true),
        );
        let coverage = repl
            .detection_coverage()
            .expect("contaminated trials exist");
        assert!(coverage >= 0.5, "implausibly low coverage {coverage}");
        // Detection observes, never perturbs: outcome classes match the
        // unreplicated run bitwise.
        for (r, m) in repl.outcomes.iter().zip(msg.outcomes.iter()) {
            assert_eq!(r.with_detected(false), m.with_detected(false));
        }
    }

    /// A `--store` the ledger cannot be opened under — here a regular
    /// file — is an error naming the directory and the OS error; the
    /// infallible entry points panic with the same message instead of
    /// running non-durably. (That it is raised before any trial runs is
    /// checked on a trace, in the CLI's `store_errors` test.)
    #[test]
    fn unwritable_store_is_an_error_not_a_silent_downgrade() {
        let file = std::env::temp_dir().join(format!("resilim-notadir-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 6);
        let ledger_under_file = || CampaignRunner::new().with_ledger_dir(file.join("ledger"));
        let err = ledger_under_file().try_run(&spec).unwrap_err().to_string();
        assert!(err.contains("ledger"), "{err}");
        assert!(err.contains(file.to_str().unwrap()), "{err}");
        assert!(err.contains("os error"), "{err}");
        let features_under_file = CampaignRunner::new().with_feature_dir(file.join("features"));
        let err = features_under_file.try_run(&spec).unwrap_err().to_string();
        assert!(err.contains("feature store"), "{err}");
        let panic = std::panic::catch_unwind(|| ledger_under_file().run_uncached(&spec))
            .expect_err("run_uncached must not continue non-durably");
        let msg = panic.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains(file.to_str().unwrap()), "{msg}");
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn trial_executor_matches_runner_path() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 10);
        let result = runner.run_uncached(&spec);
        let executor = runner.trial_executor(&spec);
        for (i, expected) in result.outcomes.iter().enumerate() {
            let rec = executor.run_trial(i);
            assert_eq!(rec.index, i);
            assert_eq!(rec.outcome, *expected, "trial {i} diverges");
            assert!(!rec.resumed);
        }
    }

    #[test]
    fn serial_campaign_basics() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 30));
        assert_eq!(result.fi.total(), 30);
        assert_eq!(result.outcomes.len(), 30);
        assert!(!result.stopped_early, "fixed mode never stops early");
        // Every test fired exactly its planned single error.
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
        // Single-rank: everything contaminates exactly one rank.
        assert_eq!(result.prop.counts[0], 30);
        // Single-bit flips in FP ops should not kill every run.
        assert!(result.fi.success_rate() > 0.2, "{:?}", result.fi);
    }

    #[test]
    fn parallel_campaign_spreads_contamination() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 4, ErrorSpec::OneParallel, 40));
        assert_eq!(result.fi.total(), 40);
        let total: u64 = result.prop.counts.iter().sum();
        assert_eq!(total, 40);
        // CG reductions spread surviving errors to every rank: expect both
        // single-rank (absorbed) and all-rank (propagated) cases.
        assert!(result.prop.counts[0] > 0, "{:?}", result.prop.counts);
        assert!(result.prop.counts[3] > 0, "{:?}", result.prop.counts);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 15);
        let a = runner.run_uncached(&spec);
        let b = runner.run_uncached(&spec);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.fi, b.fi);
    }

    #[test]
    fn campaign_cache_hits() {
        let runner = CampaignRunner::new();
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 10);
        let a = runner.run(&spec);
        let b = runner.run(&spec);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn multi_error_serial_campaign() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(8), 20));
        // Later errors can land in skipped code after corruption, but most
        // tests should fire several of the 8 planned errors.
        assert!(result.outcomes.iter().all(|o| o.injections_fired >= 1));
        assert!(result.outcomes.iter().any(|o| o.injections_fired == 8));
        // More errors -> lower success rate than 1-error campaigns.
        let one = runner.run(&campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 20));
        assert!(result.fi.success_rate() <= one.fi.success_rate() + 0.2);
    }

    #[test]
    fn parallel_unique_campaign_targets_unique_region() {
        let runner = CampaignRunner::new();
        // FT's four-step twiddle scaling is the parallel-unique region.
        let result = runner.run(&campaign(App::Ft, 4, ErrorSpec::OneParallelUnique, 15));
        assert_eq!(result.fi.total(), 15);
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
    }

    #[test]
    fn spawn_per_trial_backend_matches_pooled() {
        // Both carriers, with and without a (never-tripping) watchdog:
        // one result, bitwise.
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 12);
        let pooled = CampaignRunner::new().run_uncached(&spec);
        let deadline = Duration::from_secs(30);
        for runner in [
            CampaignRunner::new().with_spawn_per_trial(),
            CampaignRunner::new().with_trial_deadline(deadline),
            CampaignRunner::new()
                .with_spawn_per_trial()
                .with_trial_deadline(deadline),
        ] {
            let other = runner.run_uncached(&spec);
            assert_eq!(pooled.outcomes, other.outcomes);
            assert_eq!(pooled.fi, other.fi);
            assert_eq!(pooled.prop.counts, other.prop.counts);
            assert_eq!(pooled.features, other.features);
        }
    }

    #[test]
    fn parallel_test_execution_matches_sequential() {
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 24);
        let sequential = CampaignRunner::new().run_uncached(&spec);
        let parallel = CampaignRunner::new()
            .with_test_parallelism(4)
            .run_uncached(&spec);
        assert_eq!(sequential.outcomes, parallel.outcomes);
        assert_eq!(sequential.fi, parallel.fi);
        assert_eq!(sequential.prop.counts, parallel.prop.counts);
    }

    #[test]
    fn masked_campaign_targets_other_kinds() {
        use resilim_inject::OpMask;
        let runner = CampaignRunner::new();
        let mut spec = campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 15);
        spec.op_mask = OpMask::DIV;
        let result = runner.run(&spec);
        // Every test fired exactly one fault, in a division.
        assert!(result.outcomes.iter().all(|o| o.injections_fired == 1));
        assert_eq!(result.fi.total(), 15);
        // The golden profile used for the index space was mask-specific:
        // far fewer divisions than adds/muls in CG.
        let div_golden = runner
            .golden()
            .get_masked(&App::Cg.default_spec(), 1, OpMask::DIV);
        let default_golden = runner.golden().get(&App::Cg.default_spec(), 1);
        assert!(div_golden.injectable_total() * 10 < default_golden.injectable_total());
        assert!(div_golden.injectable_total() > 0);
    }

    #[test]
    fn by_contam_partitions_fi() {
        let runner = CampaignRunner::new();
        let result = runner.run(&campaign(App::Cg, 4, ErrorSpec::OneParallel, 30));
        let total: u64 = result.by_contam.iter().map(|fi| fi.total()).sum();
        assert_eq!(total + result.uncontaminated.total(), result.fi.total());
        let success: u64 = result
            .by_contam
            .iter()
            .chain(std::iter::once(&result.uncontaminated))
            .map(|fi| fi.counts[OutcomeKind::Success.index()])
            .sum();
        assert_eq!(success, result.fi.counts[OutcomeKind::Success.index()]);
    }

    #[test]
    fn uncontaminated_tests_stay_out_of_by_contam() {
        // Regression: contaminated_ranks == 0 used to be folded into the
        // x=1 bucket by `clamp(1, procs)`, skewing its conditional rates.
        let outcomes = vec![
            TestOutcome::success(true, 0, 0), // fault never fired
            TestOutcome::success(true, 1, 1), // absorbed on one rank
            TestOutcome::sdc(1, 1),           // corrupted one rank
            TestOutcome::sdc(4, 1),           // spread to all ranks
            TestOutcome::sdc(9, 1),           // over-count clamps to procs
        ];
        let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(4, &outcomes);
        assert_eq!(fi.total(), 5);
        assert_eq!(uncontaminated.total(), 1);
        assert_eq!(uncontaminated.counts[OutcomeKind::Success.index()], 1);
        // x=1 bucket holds only the genuinely single-rank tests.
        assert_eq!(by_contam[0].total(), 2);
        assert_eq!(by_contam[3].total(), 2);
        assert_eq!(by_contam[1].total() + by_contam[2].total(), 0);
        // The propagation histogram keeps its historical 1..=p clamp.
        assert_eq!(prop.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn adaptive_campaign_stops_early_and_is_a_prefix_of_fixed() {
        let fixed_spec = campaign(App::Cg, 1, ErrorSpec::SerialErrors(1), 80);
        let fixed = CampaignRunner::new().run_uncached(&fixed_spec);
        let rule = StopRule::new(0.25).with_min_tests(10);
        let adaptive = CampaignRunner::new().run_uncached(&fixed_spec.clone().with_stop(rule));
        assert!(adaptive.stopped_early, "a loose rule must stop before 80");
        let n = adaptive.outcomes.len();
        assert!((10..80).contains(&n), "stopped at {n}");
        // Adaptive results are exactly the in-order prefix of the fixed
        // campaign: same trials, same seeds, same classifications.
        assert_eq!(adaptive.outcomes[..], fixed.outcomes[..n]);
        assert!(rule.satisfied(&adaptive.fi));
        // The trial before the stop did not satisfy the rule (the stop
        // fires at the *first* satisfying prefix).
        let (prev_fi, ..) = aggregate_outcomes(1, &fixed.outcomes[..n - 1]);
        assert!(!rule.satisfied(&prev_fi));
    }

    #[test]
    fn adaptive_campaign_is_deterministic_across_worker_counts() {
        let spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 60)
            .with_stop(StopRule::new(0.3).with_min_tests(8));
        let sequential = CampaignRunner::new().run_uncached(&spec);
        let parallel = CampaignRunner::new()
            .with_test_parallelism(4)
            .run_uncached(&spec);
        assert_eq!(sequential.outcomes, parallel.outcomes);
        assert_eq!(sequential.fi, parallel.fi);
        assert_eq!(sequential.stopped_early, parallel.stopped_early);
        assert_eq!(
            sequential.prop.counts, parallel.prop.counts,
            "the delivered prefix is timing-independent"
        );
    }

    #[test]
    fn adaptive_and_fixed_campaigns_cache_separately() {
        let runner = CampaignRunner::new();
        let fixed_spec = campaign(App::Lu, 2, ErrorSpec::OneParallel, 20);
        let adaptive_spec = fixed_spec
            .clone()
            .with_stop(StopRule::new(0.45).with_min_tests(4));
        let fixed = runner.run(&fixed_spec);
        let adaptive = runner.run(&adaptive_spec);
        assert!(!Arc::ptr_eq(&fixed, &adaptive), "distinct cache keys");
        assert!(Arc::ptr_eq(&adaptive, &runner.run(&adaptive_spec)));
    }
}
