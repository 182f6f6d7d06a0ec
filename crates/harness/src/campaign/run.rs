//! One campaign in flight: the state machine every scheduler drives.
//!
//! A [`CampaignRun`] owns everything one campaign needs between "spec
//! accepted" and "result assembled": the [`TrialExecutor`] (golden run
//! and backend), the cursor over the trials still to execute, the
//! reorder-buffer pipeline with its sinks (aggregation, ledger, feature
//! store, obs trial events), and the wall-clock/metrics baselines. Its
//! life is [`CampaignRunner::open_run`] → any interleaving of
//! [`CampaignRun::claim`] / [`CampaignRun::deliver`] →
//! [`CampaignRun::finish`], the one place a [`CampaignResult`] is
//! built. A ledger merge ([`CampaignRunner::merged_from_ledger`]) is
//! the same life with nothing to claim.
//!
//! Schedulers are policies over it: the one-shot runner drives a single
//! run from `workers` threads, `resilim serve` interleaves many runs
//! under fair share. Both feed it through [`super::work_loop`], so a
//! campaign's aggregate is bitwise identical whoever scheduled it.

use super::aggregate::{CampaignAccumulator, ObsTrialConsumer};
use super::runner::{CampaignRunner, TrialExecutor};
use super::spec::{CampaignResult, CampaignSpec, ErrorSpec};
use super::stream::{TrialConsumer, TrialPipeline, TrialRecord};
use crate::features::{FeatureLine, FeatureStore};
use crate::ledger::{LedgerLine, TrialLedger};
use crate::recordlog::{LogConsumer, LogRecord, RecordLog};
use resilim_inject::Region;
use resilim_obs as obs;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The sinks of one run, fed in this order per delivered record.
struct RunSinks {
    acc: CampaignAccumulator,
    ledger: LogConsumer<LedgerLine>,
    features: LogConsumer<FeatureLine>,
    obs: ObsTrialConsumer,
    /// Freshly executed (not resumed) records delivered so far.
    fresh: usize,
}

impl TrialConsumer for RunSinks {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        let stop = self.acc.consume(rec);
        self.ledger.consume(rec);
        self.features.consume(rec);
        self.obs.consume(rec);
        self.fresh += usize::from(!rec.resumed);
        stop
    }

    fn finish(&mut self) {
        self.ledger.finish();
        self.features.finish();
    }
}

/// One campaign's execution state. See the [module docs](self).
pub struct CampaignRun {
    executor: Arc<TrialExecutor>,
    /// Trials this process delivers (the shard's slice of `0..tests`).
    owned: usize,
    /// Owned trials the stores did not already hold, ascending.
    pending: Vec<usize>,
    /// Position in `pending` of the next trial to claim.
    next: usize,
    /// Claimed trials whose records have not come back yet.
    in_flight: usize,
    pipeline: TrialPipeline<RunSinks>,
    started: Instant,
    metrics_before: obs::MetricsSnapshot,
}

/// A run's metrics baseline and executor, taken before its stores are
/// seeded (see `CampaignRunner::prepare`).
type Prepared = (obs::MetricsSnapshot, Arc<TrialExecutor>);

/// One of the run's stores, opened for appending (`None` without a
/// store, and for a merge), and the records it already held (empty
/// unless resuming or merging).
type Opened<R> = (
    Option<RecordLog<R>>,
    HashMap<usize, <R as LogRecord>::Value>,
);

/// Open one of the run's stores under `dir` and, when resuming, reload
/// what it already holds.
fn open_log<R: LogRecord>(
    dir: Option<&Path>,
    resume: bool,
    key: &str,
    seed: u64,
) -> std::io::Result<Opened<R>> {
    let Some(dir) = dir else {
        return Ok((None, HashMap::new()));
    };
    let log = RecordLog::open(dir, key, seed)?;
    let held = if resume {
        RecordLog::<R>::load(dir, key, seed)
    } else {
        HashMap::new()
    };
    Ok((Some(log), held))
}

impl CampaignRunner {
    /// Open a campaign: profile (or fetch) the golden run, open this
    /// process's ledger and feature files, and — when resuming — seed
    /// the pipeline with every record the stores already hold, which
    /// may complete (or adaptively stop) the campaign before any trial
    /// is claimed. Announces nothing: a scheduler that goes on to run
    /// the campaign calls [`CampaignRun::announce`].
    ///
    /// The trials this process executes are the shard's slice of the
    /// index space (everything without a shard), minus whatever the
    /// ledger already holds when resuming. Records are keyed by trial
    /// index and delivered in owned order, so any
    /// partition/skip/completion-order combination aggregates bitwise
    /// identically.
    ///
    /// A deployment whose golden run leaves the spec's errors nothing to
    /// draw from (`unique` without parallel-unique operations) is refused
    /// here, before any store is opened or any trial claimed.
    pub fn open_run(&self, spec: &CampaignSpec) -> std::io::Result<CampaignRun> {
        let owned = (0..spec.tests)
            .filter(|&t| self.shard.is_none_or(|s| s.owns(t)))
            .collect();
        let prepared = self
            .prepare(spec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let key = spec.ledger_key();
        let ledger = open_log(self.ledger_dir.as_deref(), self.resume, &key, spec.seed)?;
        // Resumed trials' features were persisted by the run that
        // executed them: reload them so the in-memory result still
        // carries a full training set, without re-appending them (the
        // log consumers skip resumed records).
        let features = open_log(self.feature_dir.as_deref(), self.resume, &key, spec.seed)?;
        Ok(self.seeded_run(prepared, owned, ledger, features))
    }

    /// Assemble a whole-campaign [`CampaignResult`] purely from the
    /// ledger — the `resilim merge` path after N shards each ran their
    /// partition into a shared (or artifact-collected) ledger directory.
    ///
    /// A merge is a run that executes nothing: it owns all of
    /// `0..spec.tests` whatever the shard, is seeded from the ledger's
    /// strict loader and the feature store's lenient one, opens no store
    /// for writing, and fails naming the deployment and the trials still
    /// to claim. So a merged result is bitwise identical to a
    /// single-process run of the same deployment, and an adaptive ledger
    /// merges to its stopped prefix.
    pub fn merged_from_ledger(&self, spec: &CampaignSpec) -> Result<CampaignResult, String> {
        let dir = self
            .ledger_dir
            .as_ref()
            .ok_or("merge needs a ledger directory (--store DIR)")?;
        let key = spec.ledger_key();
        let held = TrialLedger::load_strict(dir, &key, spec.seed)?;
        // Trials whose features were lost to corruption are simply
        // absent from the merged training set: unlike outcomes, the
        // aggregate statistics do not depend on them.
        let features = self
            .feature_dir
            .as_ref()
            .map_or_else(HashMap::new, |dir| FeatureStore::load(dir, &key, spec.seed));
        let owned = (0..spec.tests).collect();
        let mut run = self.seeded_run(self.prepare(spec)?, owned, (None, held), (None, features));
        run.announce();
        let missing = run.claim(spec.tests);
        if let Some(first) = missing.first() {
            return Err(format!(
                "ledger incomplete for {} --scale {} --errors {} --seed {}: \
                 {}/{} trials missing (e.g. trial {first})",
                spec.spec.app().name(),
                spec.procs,
                spec.errors.cli_name(),
                spec.seed,
                missing.len(),
                spec.tests,
            ));
        }
        Ok(run.finish())
    }

    /// The golden-run half of opening a run, shared by
    /// [`CampaignRunner::open_run`] and
    /// [`CampaignRunner::merged_from_ledger`]: the metrics baseline and
    /// the executor (which profiles or fetches the golden run), or an
    /// error naming the app and scale when that run has no site for the
    /// spec's errors.
    fn prepare(&self, spec: &CampaignSpec) -> Result<Prepared, String> {
        if let ErrorSpec::SerialErrors(_) = spec.errors {
            assert_eq!(spec.procs, 1, "SerialErrors campaigns run serially");
        }
        let metrics_before = obs::MetricsSnapshot::capture();
        let executor = self.trial_executor(spec);
        if spec.errors == ErrorSpec::OneParallelUnique
            && executor.golden().injectable(Region::ParallelUnique) == 0
        {
            return Err(format!(
                "--errors unique: {} at --scale {} has no parallel-unique operations to inject into",
                spec.spec.app().name(),
                spec.procs
            ));
        }
        Ok((metrics_before, Arc::new(executor)))
    }

    /// The one constructor behind [`CampaignRunner::open_run`] and
    /// [`CampaignRunner::merged_from_ledger`]: a run over the `owned`
    /// trials (ascending) appending to the given stores, its pipeline
    /// seeded with every owned record they already hold.
    fn seeded_run(
        &self,
        (metrics_before, executor): Prepared,
        owned: Vec<usize>,
        (ledger, held): Opened<LedgerLine>,
        (feature_store, held_features): Opened<FeatureLine>,
    ) -> CampaignRun {
        let spec = executor.spec();
        let started = Instant::now();
        let (seeds, pending): (Vec<usize>, Vec<usize>) =
            owned.iter().copied().partition(|t| held.contains_key(t));
        let sinks = RunSinks {
            acc: CampaignAccumulator::new(spec.procs, spec.stop),
            ledger: LogConsumer::new(ledger, self.trial_batch),
            features: LogConsumer::new(feature_store, self.trial_batch),
            obs: ObsTrialConsumer::new(executor.campaign_id()),
            fresh: 0,
        };
        let mut run = CampaignRun {
            executor,
            owned: owned.len(),
            pending,
            next: 0,
            in_flight: 0,
            pipeline: TrialPipeline::new(owned, sinks),
            started,
            metrics_before,
        };
        // One at a time, in owned order: each seed is delivered as it
        // is pushed (until a gap), so the reorder buffer never holds the
        // whole ledger.
        for t in seeds {
            run.pipeline.push(TrialRecord::resumed(
                t,
                held[&t],
                held_features.get(&t).copied(),
            ));
        }
        run
    }
}

impl CampaignRun {
    /// The process-unique campaign id.
    pub fn id(&self) -> u64 {
        self.executor.campaign_id()
    }

    /// The campaign being run.
    pub fn spec(&self) -> &CampaignSpec {
        self.executor.spec()
    }

    /// The executor workers run this campaign's claimed trials on.
    pub fn executor(&self) -> &Arc<TrialExecutor> {
        &self.executor
    }

    /// Tell the observability layer the campaign starts: the
    /// `campaign_start` event plus the resumed/shard-skipped counts.
    pub fn announce(&self) {
        let spec = self.spec();
        obs::count(
            obs::Counter::ShardTrialsSkipped,
            (spec.tests - self.owned) as u64,
        );
        obs::count(
            obs::Counter::TrialsResumed,
            (self.owned - self.pending.len()) as u64,
        );
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignStart {
                campaign: self.id(),
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                errors: format!("{:?}", spec.errors),
            });
        }
    }

    /// Trials still to claim (0 once an adaptive stop fired).
    pub fn unclaimed(&self) -> usize {
        if self.pipeline.stopped() {
            0
        } else {
            self.pending.len() - self.next
        }
    }

    /// Claimed trials whose records have not been delivered back.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// How far execution is ahead of in-order delivery: trials in
    /// flight plus completed ones parked behind a missing predecessor.
    pub fn run_ahead(&self) -> usize {
        self.next - self.pipeline.consumers.fresh
    }

    /// Claim up to `max` of the next pending trials (ascending,
    /// contiguous in pending order). Empty once everything is claimed
    /// or an adaptive stop fired.
    pub fn claim(&mut self, max: usize) -> Vec<usize> {
        let end = self.next + max.min(self.unclaimed());
        let tests = self.pending[self.next..end].to_vec();
        self.next = end;
        self.in_flight += tests.len();
        tests
    }

    /// Hand back the records of claimed trials (any order, any
    /// grouping); everything that became in-order is delivered to the
    /// sinks. Records arriving after an adaptive stop are dropped — the
    /// delivered prefix is final.
    pub fn deliver(&mut self, records: Vec<TrialRecord>) {
        self.in_flight -= records.len();
        self.pipeline.push_batch(records);
    }

    /// Records delivered to the sinks so far (resumed ones included).
    pub fn delivered(&self) -> usize {
        self.pipeline.delivered()
    }

    /// Whether the delivered prefix is final: every owned trial
    /// delivered, or an adaptive stop fired.
    pub fn is_complete(&self) -> bool {
        self.pipeline.stopped() || self.pipeline.is_drained()
    }

    /// Write out whatever the store sinks still buffer, fsync, and close
    /// the files: everything delivered so far is durable. For a run that
    /// ends without a result (cancel, daemon drain); later deliveries
    /// are no longer persisted.
    pub fn seal(&mut self) {
        self.pipeline.finish();
    }

    /// Seal a complete run and assemble its result. Call once: the
    /// aggregation state moves into the result.
    pub fn finish(&mut self) -> CampaignResult {
        assert!(self.is_complete(), "every owned trial resumed or ran");
        self.seal();
        let spec = self.executor.spec();
        let stopped_early = self.pipeline.stopped();
        let delivered = self.delivered();
        if stopped_early {
            obs::count(
                obs::Counter::TrialsSavedByStopping,
                (self.owned - delivered) as u64,
            );
            obs::emit(&obs::Event::CampaignEarlyStop {
                campaign: self.id(),
                at_trial: delivered,
                planned: spec.tests,
            });
        }
        let wall = self.started.elapsed();
        let metrics = obs::MetricsSnapshot::capture().delta(&self.metrics_before);
        if obs::enabled() {
            obs::emit(&obs::Event::CampaignEnd {
                campaign: self.id(),
                wall_us: obs::as_micros(wall),
                trials: delivered,
                rank_switches: metrics.counter(obs::Counter::RankSwitches),
                deadlocks: metrics.counter(obs::Counter::DeadlocksDetected),
            });
        }
        let acc = std::mem::replace(
            &mut self.pipeline.consumers.acc,
            CampaignAccumulator::new(spec.procs, None),
        );
        let (outcomes, features, fi, prop, by_contam, uncontaminated) = acc.into_parts();
        CampaignResult {
            procs: spec.procs,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features,
            stopped_early,
            wall,
            golden: Arc::clone(self.executor.golden()),
            metrics,
        }
    }
}
