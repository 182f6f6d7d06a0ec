//! The multi-campaign trial scheduler: fair-share admission of many
//! concurrent campaigns' trials over one shared worker pool, and the
//! owner of a served campaign's lifecycle — registry, dedup, cancel,
//! the store layout and the submissions journal with its replay.
//!
//! ## Architecture
//!
//! A fixed set of worker threads pulls *single trials* from a registry
//! of active campaigns. Admission is round-robin across campaigns with
//! two per-campaign brakes:
//!
//! * **fair share** — a campaign may hold at most
//!   `max(1, workers / active_campaigns)` trials in flight, so a
//!   10 000-trial campaign cannot starve a 50-trial one submitted
//!   after it; when only one campaign has work it gets every worker.
//! * **reorder window** — a campaign may run at most
//!   `REORDER_WINDOW` (64) trials ahead of its in-order delivery cursor,
//!   bounding the reorder buffer (and keeping adaptive-stop campaigns
//!   from racing far past their stopping point).
//!
//! ## Determinism
//!
//! What is scheduled is [`CampaignRun`]s — the same per-campaign state
//! machine (executor, claim cursor, reorder buffer, aggregation, ledger
//! and feature sinks, result assembly) the one-shot [`CampaignRunner`]
//! drives a single one of, fed by the same [`work_loop`]. This module
//! only decides *which* run a worker claims from next — so a campaign's
//! final aggregate is bitwise identical to a solo `resilim campaign`
//! run of the same spec, no matter how many other campaigns it shared
//! the pool with or in what order the workers interleaved them.
//!
//! ## Durability
//!
//! With a store, two files make a served campaign survive a restart:
//! its trial ledger (shared with the one-shot CLI) records every
//! completed trial — the expensive state — and the submissions journal
//! (`<store>/submissions.jsonl`) records which campaigns were asked for
//! — the cheap state. Both are written by the store's one appender and
//! read by its one line reader ([`resilim_harness::recordlog`]), so a
//! tail torn by a kill costs only the torn line. The journal gets one
//! `{op, spec}` line per registry change, written and fsynced under the
//! registry lock before the client is answered: a `submit` line when a
//! campaign is registered, a `cancel` line when a running one is
//! cancelled, so the line order is the registry's order. Its failure
//! policy is to refuse: a submission whose line cannot be written or
//! synced is refused, and the line is cut back. (The ledger's policy is
//! best-effort; see [`resilim_harness::recordlog::RecordLog::append_batch`].)
//! `Scheduler::replay`, which the daemon calls at start, brings back
//! every submission not later cancelled, and the ledger resume inside
//! registration skips whatever already ran, so a restarted daemon
//! finishes an interrupted campaign with the bitwise-identical
//! aggregate.

use crate::protocol::SubmitSpec;
use parking_lot::{Condvar, Mutex};
use resilim_harness::campaign::work_loop;
use resilim_harness::recordlog::{read_lines, Appender};
use resilim_harness::{
    CampaignRun, CampaignRunner, CampaignSpec, CampaignSummary, TrialExecutor, TrialRecord,
};
use resilim_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How many trials a campaign may run ahead of its in-order delivery
/// cursor. Bounds per-campaign reorder-buffer memory and the number of
/// wasted trials after an adaptive stop fires.
pub(crate) const REORDER_WINDOW: usize = 64;

/// A campaign's lifecycle state in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Trials are pending or in flight.
    Running,
    /// All trials delivered (or an adaptive stop fired); the summary
    /// is final.
    Done,
    /// A client cancelled the campaign before completion.
    Cancelled,
}

impl CampaignState {
    /// The wire spelling (`running`/`done`/`cancelled`).
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
        }
    }
}

/// One event on a campaign's watch stream.
#[derive(Debug, Clone)]
pub enum WatchEvent {
    /// `done` of `total` trials delivered so far.
    Progress {
        /// Trials delivered in order.
        done: usize,
        /// Trial ceiling.
        total: usize,
    },
    /// The campaign reached a terminal state.
    Terminal {
        /// Final state (never [`CampaignState::Running`]).
        state: CampaignState,
        /// The final aggregates ([`CampaignState::Done`] only), boxed so
        /// a progress event stays small.
        summary: Option<Box<CampaignSummary>>,
    },
}

/// One registered campaign: its run plus what only a multi-tenant
/// service needs — a lifecycle state, the retained summary, watchers.
struct Entry {
    run: CampaignRun,
    state: CampaignState,
    summary: Option<CampaignSummary>,
    watchers: Vec<mpsc::Sender<WatchEvent>>,
}

impl Entry {
    fn id(&self) -> u64 {
        self.run.id()
    }

    /// Whether this campaign still has admissible work (for the fair
    /// share's active-campaign count).
    fn has_work(&self) -> bool {
        self.state == CampaignState::Running && self.run.unclaimed() > 0
    }

    /// Hand a batch of completed records (one registry-lock hold) to
    /// the run, stream one progress event per newly delivered trial,
    /// and finalize if the campaign reached its end. A late record of a
    /// cancelled campaign is dropped, exactly like the run itself drops
    /// records after an adaptive stop.
    fn deliver(&mut self, records: Vec<TrialRecord>) {
        if self.state != CampaignState::Running {
            return;
        }
        let before = self.run.delivered();
        self.run.deliver(records);
        for done in before + 1..=self.run.delivered() {
            let progress = WatchEvent::Progress {
                done,
                total: self.run.spec().tests,
            };
            self.watchers.retain(|w| w.send(progress.clone()).is_ok());
        }
        if self.run.is_complete() {
            self.finalize();
        }
    }

    /// Seal the campaign: turn the run's result into the final summary
    /// via the same [`CampaignSummary::of`] path the CLI takes, and
    /// notify watchers.
    fn finalize(&mut self) {
        debug_assert_eq!(self.state, CampaignState::Running);
        let result = self.run.finish();
        self.summary = Some(CampaignSummary::of(self.run.spec(), &result));
        self.end(CampaignState::Done);
    }

    /// Enter a terminal state and tell everyone watching.
    fn end(&mut self, state: CampaignState) {
        self.state = state;
        obs::emit(&obs::Event::ServeCampaignDone {
            id: self.id(),
            trials: self.run.delivered(),
            state: state.as_str(),
        });
        let terminal = WatchEvent::Terminal {
            state,
            summary: self.summary.clone().map(Box::new),
        };
        for watcher in self.watchers.drain(..) {
            let _ = watcher.send(terminal.clone());
        }
    }

    fn status(&self) -> crate::protocol::CampaignStatus {
        let spec = self.run.spec();
        crate::protocol::CampaignStatus {
            id: self.id(),
            app: spec.spec.app().name().to_string(),
            procs: spec.procs,
            errors: spec.errors.cli_name(),
            tests: spec.tests,
            seed: spec.seed,
            state: self.state.as_str().to_string(),
            done: self.run.delivered(),
            total: spec.tests,
        }
    }
}

/// One line of the submissions journal.
#[derive(Serialize, Deserialize)]
struct JournalLine {
    /// `"submit"` or `"cancel"`.
    op: String,
    spec: SubmitSpec,
}

/// The submissions journal: append-only, one writer (the registry lock
/// holder), replayed by [`Scheduler::replay`]. Without a store it holds
/// nothing and writes nothing.
struct Journal {
    path: Option<PathBuf>,
    /// The append handle, opened at the first line.
    file: Option<Appender>,
}

impl Journal {
    /// Append `op`'s line for `spec` and fsync it; a line whose write or
    /// sync fails is cut back off. An error names the file.
    fn append(&mut self, op: &str, spec: &CampaignSpec) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let line = JournalLine {
            op: op.into(),
            spec: SubmitSpec::of_campaign(spec),
        };
        let text = serde_json::to_string(&line).unwrap() + "\n";
        let file = match &mut self.file {
            Some(file) => Ok(file),
            None => Appender::open(path).map(|file| self.file.insert(file)),
        };
        file.and_then(|file| file.append(text.as_bytes(), true))
            .map_err(|e| format!("cannot journal the {op}: {e}"))
    }

    /// Submissions that were not later cancelled, in first-seen order.
    /// A missing journal holds none; an unparseable line (a torn tail)
    /// is skipped; a journal that cannot be read is an error.
    fn live(&self) -> Result<Vec<SubmitSpec>, String> {
        let Some(path) = &self.path else {
            return Ok(Vec::new());
        };
        let lines = read_lines::<JournalLine>(path)
            .map_err(|e| format!("cannot replay the journal: {e}"))?;
        let mut live: Vec<SubmitSpec> = Vec::new();
        for entry in lines {
            match entry.op.as_str() {
                "submit" if !live.contains(&entry.spec) => live.push(entry.spec),
                "cancel" => live.retain(|s| *s != entry.spec),
                _ => {}
            }
        }
        Ok(live)
    }
}

/// Registry of campaigns plus the round-robin admission cursor.
struct State {
    entries: BTreeMap<u64, Entry>,
    /// Aggregation identity ([`CampaignSpec::cache_key`]) → id of the
    /// campaign that is running or done, for idempotent submission.
    by_key: HashMap<String, u64>,
    /// Id of the campaign the last claim was admitted from.
    rr_last: u64,
    /// The submissions journal.
    journal: Journal,
}

struct Shared {
    runner: CampaignRunner,
    state: Mutex<State>,
    cv: Condvar,
    /// Workers stop claiming new trials once set; in-flight trials
    /// still complete and deliver (graceful drain).
    shutdown: AtomicBool,
    workers: usize,
    /// Trials a worker claims (and later delivers) per admission.
    batch: usize,
}

impl Shared {
    /// Claim the next admissible `(campaign, trials)` batch, round-robin
    /// across campaigns starting after the last admitted one. Up to
    /// [`Shared::batch`] consecutive trials of one campaign are claimed
    /// at once (still bounded by the fair share and the reorder
    /// window), amortizing the registry lock and admission bookkeeping
    /// per trial.
    fn claim(&self, st: &mut State) -> Option<(u64, Arc<TrialExecutor>, Vec<usize>)> {
        let active = st.entries.values().filter(|e| e.has_work()).count();
        if active == 0 {
            return None;
        }
        let fair_share = (self.workers / active).max(1);
        // Two passes: ids strictly after the cursor, then the wrap.
        let ids: Vec<u64> = st
            .entries
            .range(st.rr_last + 1..)
            .map(|(&id, _)| id)
            .chain(st.entries.range(..=st.rr_last).map(|(&id, _)| id))
            .collect();
        for id in ids {
            let entry = st.entries.get_mut(&id).expect("listed id");
            if entry.state != CampaignState::Running {
                continue;
            }
            let run = &mut entry.run;
            // run_ahead = in flight + parked out of order; see module doc.
            let max = self
                .batch
                .min(fair_share.saturating_sub(run.in_flight()))
                .min(REORDER_WINDOW.saturating_sub(run.run_ahead()));
            let tests = run.claim(max);
            if !tests.is_empty() {
                st.rr_last = id;
                return Some((id, Arc::clone(run.executor()), tests));
            }
        }
        None
    }
}

/// The campaign scheduler: a shared [`CampaignRunner`] (golden cache +
/// world pool), a worker pool, the campaign registry, and — with a
/// store — its journal. Socket-free: the daemon layers the wire
/// protocol on top, and tests drive it directly.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `workers` trial workers over `runner`. With a `store`
    /// directory, goldens are cached under `<store>/golden`, every
    /// campaign is ledgered under `<store>/ledger` (features under
    /// `<store>/features`), submissions resume whatever the ledger
    /// already holds, and every registry change is journaled to
    /// `<store>/submissions.jsonl` (see the module doc; nothing is
    /// replayed until the daemon asks). Admission batch size comes
    /// from the runner ([`CampaignRunner::with_trial_batch`]); batching
    /// is observationally invisible (see [`CampaignRun::deliver`]).
    pub fn new(runner: CampaignRunner, workers: usize, store: Option<PathBuf>) -> Scheduler {
        let workers = workers.max(1);
        let batch = runner.trial_batch();
        let runner = match &store {
            Some(dir) => runner
                .with_golden_dir(dir.join("golden"))
                .with_ledger_dir(dir.join("ledger"))
                .with_feature_dir(dir.join("features"))
                .with_resume(true),
            None => runner,
        };
        let shared = Arc::new(Shared {
            runner,
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                by_key: HashMap::new(),
                rr_last: 0,
                journal: Journal {
                    path: store.map(|dir| dir.join("submissions.jsonl")),
                    file: None,
                },
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            batch,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// The golden-cache-sharing runner (e.g. to pre-warm goldens).
    pub fn runner(&self) -> &CampaignRunner {
        &self.shared.runner
    }

    /// Register a campaign. Returns `(id, deduped)`: a spec whose
    /// aggregation identity matches a running or finished campaign joins
    /// it instead of running again (a cancelled one is submitted anew).
    /// With a store, trials the ledger already holds are resumed, so
    /// resubmitting a completed deployment to a fresh daemon finishes
    /// without executing a single trial. A store that cannot be opened,
    /// or a journal line that cannot be written, is an error naming the
    /// directory or the file — the campaign is not registered, so it is
    /// never run non-durably.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<(u64, bool), String> {
        self.register(spec, false)
    }

    /// Bring back what the store's journal holds: every submission not
    /// later cancelled, in journal order, each resumed from its ledger.
    /// Appends nothing, so a restart with no new request leaves the
    /// journal's bytes unchanged. Without a store, or before the first
    /// line, it brings back nothing. A journal that cannot be read is an
    /// error; an entry that no longer validates or registers is reported
    /// on stderr and skipped.
    pub(crate) fn replay(&self) -> Result<(), String> {
        let live = self.shared.state.lock().journal.live()?;
        for spec in live {
            if let Err(e) = spec
                .to_campaign()
                .and_then(|campaign| self.register(&campaign, true))
            {
                eprintln!("serve: journal entry not resumed: {e}");
            }
        }
        Ok(())
    }

    /// [`Scheduler::submit`]; a `replayed` submission is already in the
    /// journal and gets no new line.
    fn register(&self, spec: &CampaignSpec, replayed: bool) -> Result<(u64, bool), String> {
        let key = spec.cache_key();
        if let Some(id) = self.try_dedup(&key, spec) {
            return Ok((id, true));
        }
        // Golden profiling (or cache load), store opens and the ledger
        // reload — which may already complete (or adaptively stop) the
        // campaign — happen outside the registry lock; concurrent
        // identical submissions single-flight inside the golden store
        // and collapse at registration below.
        let run = self
            .shared
            .runner
            .open_run(spec)
            .map_err(|e| e.to_string())?;

        let mut st = self.shared.state.lock();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err("daemon is shutting down".into());
        }
        if let Some(&id) = st.by_key.get(&key) {
            drop(st);
            self.note_submit(id, spec, true);
            return Ok((id, true));
        }
        if !replayed {
            st.journal.append("submit", spec)?;
        }
        let id = run.id();
        self.note_submit(id, spec, false);
        run.announce();
        let mut entry = Entry {
            run,
            state: CampaignState::Running,
            summary: None,
            watchers: Vec::new(),
        };
        if entry.run.is_complete() {
            entry.finalize();
        }
        st.by_key.insert(key, id);
        st.entries.insert(id, entry);
        self.shared.cv.notify_all();
        Ok((id, false))
    }

    /// First-pass dedup check (fast path, registry lock only).
    fn try_dedup(&self, key: &str, spec: &CampaignSpec) -> Option<u64> {
        let st = self.shared.state.lock();
        let id = *st.by_key.get(key)?;
        drop(st);
        self.note_submit(id, spec, true);
        Some(id)
    }

    fn note_submit(&self, id: u64, spec: &CampaignSpec, deduped: bool) {
        if obs::enabled() {
            obs::emit(&obs::Event::ServeSubmit {
                id,
                app: spec.spec.app().name().to_string(),
                procs: spec.procs,
                tests: spec.tests,
                deduped,
            });
        }
    }

    /// One campaign's status.
    pub fn status(&self, id: u64) -> Option<crate::protocol::CampaignStatus> {
        self.shared.state.lock().entries.get(&id).map(Entry::status)
    }

    /// A finished campaign's final aggregates.
    pub fn summary(&self, id: u64) -> Option<CampaignSummary> {
        self.shared
            .state
            .lock()
            .entries
            .get(&id)
            .and_then(|e| e.summary.clone())
    }

    /// Every known campaign's status, in id order.
    pub fn list(&self) -> Vec<crate::protocol::CampaignStatus> {
        self.shared
            .state
            .lock()
            .entries
            .values()
            .map(Entry::status)
            .collect()
    }

    /// Cancel a running campaign. Returns `false` for unknown ids;
    /// cancelling an already-terminal campaign is a no-op `true`.
    /// In-flight trials finish harmlessly (their records are dropped);
    /// the run is sealed — records still buffered for a batched write
    /// are written out and fsynced — so the ledger keeps everything
    /// delivered so far, and the deployment's key is released, so a
    /// later resubmission registers anew and resumes instead of starting
    /// over. With a store the cancel is journaled; a line that cannot be
    /// written is reported on stderr, and the campaign is cancelled
    /// either way.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.shared.state.lock();
        let Some(entry) = st.entries.get_mut(&id) else {
            return false;
        };
        if entry.state != CampaignState::Running {
            return true;
        }
        entry.run.seal();
        entry.end(CampaignState::Cancelled);
        let spec = entry.run.spec().clone();
        st.by_key.remove(&spec.cache_key());
        if let Err(e) = st.journal.append("cancel", &spec) {
            eprintln!("serve: {e}");
        }
        self.shared.cv.notify_all();
        true
    }

    /// Subscribe to a campaign's progress stream. A campaign already
    /// in a terminal state yields its terminal event immediately.
    pub fn watch(&self, id: u64) -> Option<mpsc::Receiver<WatchEvent>> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.state.lock();
        let entry = st.entries.get_mut(&id)?;
        if entry.state == CampaignState::Running {
            entry.watchers.push(tx);
        } else {
            let _ = tx.send(WatchEvent::Terminal {
                state: entry.state,
                summary: entry.summary.clone().map(Box::new),
            });
        }
        Some(rx)
    }

    /// Block until campaign `id` reaches a terminal state (or `timeout`
    /// passes). Returns the state reached, `None` for unknown ids or
    /// on timeout.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<CampaignState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            match st.entries.get(&id) {
                None => return None,
                Some(e) if e.state != CampaignState::Running => return Some(e.state),
                Some(_) => {
                    if self.shared.cv.wait_until(&mut st, deadline).timed_out() {
                        return None;
                    }
                }
            }
        }
    }

    /// Graceful drain: stop admitting trials, let in-flight trials
    /// finish and deliver, join the workers, and seal every running
    /// campaign's stores (buffered records written out and fsynced).
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            // Flag + wakeup under the registry lock, so a worker cannot
            // check the flag and then sleep through the notification.
            let _st = self.shared.state.lock();
            self.shared.shutdown.store(true, Ordering::Relaxed);
            self.shared.cv.notify_all();
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
        let mut st = self.shared.state.lock();
        for entry in st.entries.values_mut() {
            if entry.state == CampaignState::Running {
                entry.run.seal();
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: [`work_loop`] over the registry — claim a batch of
/// trials (blocking until some campaign is admissible or the daemon
/// drains), run them outside the lock, deliver the records under one
/// lock hold, repeat — across *all* campaigns, interleaved.
fn worker_loop(shared: &Shared) {
    work_loop(
        || {
            let mut st = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return None;
                }
                if let Some(claim) = shared.claim(&mut st) {
                    return Some(claim);
                }
                shared.cv.wait(&mut st);
            }
        },
        |id, records| {
            let mut st = shared.state.lock();
            if let Some(entry) = st.entries.get_mut(&id) {
                entry.deliver(records);
            }
            // A freed slot (or a finished campaign) may unblock peers.
            shared.cv.notify_all();
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;
    use resilim_harness::ErrorSpec;

    fn spec(app: App, procs: usize, tests: usize, seed: u64) -> CampaignSpec {
        CampaignSpec::new(
            app.default_spec(),
            procs,
            ErrorSpec::OneParallel,
            tests,
            seed,
        )
    }

    fn wait_done(s: &Scheduler, id: u64) -> CampaignState {
        s.wait(id, Duration::from_secs(60)).expect("terminal state")
    }

    /// Summaries are bitwise-comparable except for the wall-clock field.
    fn assert_same_measurement(a: &CampaignSummary, b: &CampaignSummary) {
        let mut b = b.clone();
        b.wall_secs = a.wall_secs;
        assert_eq!(*a, b);
    }

    #[test]
    fn single_campaign_matches_solo_run() {
        let s = spec(App::Lu, 2, 12, 3);
        let solo = CampaignSummary::of(&s, &CampaignRunner::new().run_uncached(&s));
        let sched = Scheduler::new(CampaignRunner::new(), 3, None);
        let (id, deduped) = sched.submit(&s).unwrap();
        assert!(!deduped);
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn resubmission_joins_the_existing_campaign() {
        let sched = Scheduler::new(CampaignRunner::new(), 2, None);
        let (a, first) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        let (b, second) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        assert!(!first);
        assert!(second);
        assert_eq!(a, b);
        // Still deduped after completion.
        wait_done(&sched, a);
        let (c, third) = sched.submit(&spec(App::Cg, 1, 8, 5)).unwrap();
        assert!(third);
        assert_eq!(a, c);
        // A different seed is a different campaign.
        let (d, fourth) = sched.submit(&spec(App::Cg, 1, 8, 6)).unwrap();
        assert!(!fourth);
        assert_ne!(a, d);
    }

    #[test]
    fn adaptive_stop_matches_solo_run() {
        let adaptive =
            spec(App::Lu, 2, 60, 9).with_stop(resilim_core::StopRule::new(0.3).with_min_tests(8));
        let result = CampaignRunner::new().run_uncached(&adaptive);
        assert!(result.stopped_early);
        let solo = CampaignSummary::of(&adaptive, &result);
        let sched = Scheduler::new(CampaignRunner::new(), 4, None);
        let (id, _) = sched.submit(&adaptive).unwrap();
        assert_eq!(wait_done(&sched, id), CampaignState::Done);
        assert_same_measurement(&sched.summary(id).unwrap(), &solo);
    }

    #[test]
    fn watch_streams_progress_then_terminal() {
        let sched = Scheduler::new(CampaignRunner::new(), 2, None);
        let (id, _) = sched.submit(&spec(App::Lu, 2, 10, 11)).unwrap();
        let rx = sched.watch(id).expect("known id");
        let mut last_done = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(60)).expect("event") {
                WatchEvent::Progress { done, total } => {
                    assert!(done >= last_done, "monotone progress");
                    assert_eq!(total, 10);
                    last_done = done;
                }
                WatchEvent::Terminal { state, summary } => {
                    assert_eq!(state, CampaignState::Done);
                    assert_eq!(summary.unwrap().tests, 10);
                    break;
                }
            }
        }
        // Watching a finished campaign yields the terminal event.
        let rx = sched.watch(id).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            WatchEvent::Terminal { state, .. } => assert_eq!(state, CampaignState::Done),
            other => panic!("expected terminal, got {other:?}"),
        }
        assert!(sched.watch(9_999_999).is_none());
    }

    /// A store the ledger cannot be opened under fails the submission
    /// with the directory and the OS error — the campaign is neither
    /// registered nor run non-durably.
    #[test]
    fn unwritable_store_fails_the_submission() {
        let file =
            std::env::temp_dir().join(format!("resilim-serve-notadir-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let sched = Scheduler::new(CampaignRunner::new(), 1, Some(file.clone()));
        let err = sched.submit(&spec(App::Cg, 1, 4, 1)).unwrap_err();
        assert!(err.contains("ledger"), "{err}");
        assert!(err.contains(file.to_str().unwrap()), "{err}");
        assert!(err.contains("os error"), "{err}");
        assert!(sched.list().is_empty());
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let sched = Scheduler::new(CampaignRunner::new(), 1, None);
        sched.shutdown();
        assert!(sched.submit(&spec(App::Cg, 1, 4, 1)).is_err());
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "resilim-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The journal's `(op, seed)` pairs, in file order.
    fn journal_ops(store: &std::path::Path) -> Vec<(String, u64)> {
        let text = std::fs::read_to_string(store.join("submissions.jsonl")).unwrap();
        text.lines()
            .map(|line| {
                let entry: JournalLine = crate::protocol::parse_line(line).unwrap();
                (entry.op, entry.spec.seed)
            })
            .collect()
    }

    /// A journal that cannot be written refuses the submission, naming
    /// the file, and registers nothing; one that cannot be read fails
    /// the replay instead of bringing back nothing.
    #[test]
    fn unwritable_journal_refuses_the_submission() {
        let store = temp_store("unwritable");
        std::fs::create_dir_all(store.join("submissions.jsonl")).unwrap();
        let sched = Scheduler::new(CampaignRunner::new(), 1, Some(store.clone()));
        let err = sched.submit(&spec(App::Cg, 1, 2, 1)).unwrap_err();
        assert!(err.contains("submissions.jsonl"), "{err}");
        assert!(
            sched.list().is_empty(),
            "a refused submission is registered"
        );
        let err = sched.replay().unwrap_err();
        assert!(err.contains("submissions.jsonl"), "{err}");
        drop(sched);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// One line per registry change, in registry order: a cancel line
    /// follows its submit line, while a dedup hit and cancelling a
    /// finished campaign change nothing. Replay brings back exactly the
    /// surviving campaigns and appends nothing.
    #[test]
    fn journal_lines_follow_the_registry() {
        let store = temp_store("order");
        let done = spec(App::Cg, 1, 2, 41);
        let dropped = spec(App::Lu, 2, 300, 42);

        let first = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
        let (done_id, _) = first.submit(&done).unwrap();
        assert_eq!(wait_done(&first, done_id), CampaignState::Done);
        assert!(first.submit(&done).unwrap().1, "dedup hit");
        let (dropped_id, _) = first.submit(&dropped).unwrap();
        assert!(first.cancel(dropped_id));
        assert!(first.cancel(done_id), "a finished campaign: no-op true");
        first.shutdown();
        let want = [("submit", 41), ("submit", 42), ("cancel", 42)];
        let want: Vec<(String, u64)> = want.iter().map(|&(op, s)| (op.into(), s)).collect();
        assert_eq!(journal_ops(&store), want);

        let bytes = std::fs::read(store.join("submissions.jsonl")).unwrap();
        let second = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
        second.replay().unwrap();
        let listed = second.list();
        assert_eq!(listed.len(), 1, "{listed:?}");
        assert_eq!((listed[0].seed, listed[0].state.as_str()), (41, "done"));
        second.shutdown();
        let after = std::fs::read(store.join("submissions.jsonl")).unwrap();
        assert_eq!(after, bytes, "replay appended to the journal");
        let _ = std::fs::remove_dir_all(&store);
    }

    /// A journal tail torn by a kill costs only the torn line: the next
    /// daemon ends it before its first line, so a submission made after
    /// the restart is replayed by the one after that.
    #[test]
    fn a_torn_journal_tail_costs_only_the_torn_line() {
        let store = temp_store("torn");
        let first = Scheduler::new(CampaignRunner::new(), 1, Some(store.clone()));
        let (id, _) = first.submit(&spec(App::Cg, 1, 2, 51)).unwrap();
        assert_eq!(wait_done(&first, id), CampaignState::Done);
        first.shutdown();
        let journal = store.join("submissions.jsonl");
        let mut torn = std::fs::read(&journal).unwrap();
        torn.extend_from_slice(br#"{"op":"sub"#);
        std::fs::write(&journal, torn).unwrap();

        let second = Scheduler::new(CampaignRunner::new(), 1, Some(store.clone()));
        second.replay().unwrap();
        let (id, _) = second.submit(&spec(App::Cg, 1, 2, 52)).unwrap();
        assert_eq!(wait_done(&second, id), CampaignState::Done);
        second.shutdown();

        let third = Scheduler::new(CampaignRunner::new(), 1, Some(store.clone()));
        third.replay().unwrap();
        let seeds: Vec<u64> = third.list().iter().map(|c| c.seed).collect();
        assert_eq!(seeds, [51, 52]);
        third.shutdown();
        let _ = std::fs::remove_dir_all(&store);
    }
}
