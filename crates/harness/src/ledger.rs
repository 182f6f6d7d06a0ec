//! Durable per-trial campaign ledger: crash-tolerant resume, shardable
//! execution, and bounded retry.
//!
//! A campaign of `n` trials used to be all-or-nothing: a crash, OOM
//! kill, or CI timeout at trial `n-1` threw every result away. The
//! ledger makes each completed trial durable the moment it finishes: an
//! append-only JSONL file under `--store DIR/ledger/`, one record per
//! trial keyed by `(campaign ledger key, seed, trial index)`, flushed
//! per record and fsynced in batches.
//!
//! Three features ride on it:
//!
//! * **Resume** (`--resume`): already-ledgered trials are skipped and
//!   their recorded outcomes re-aggregated — bitwise identical to an
//!   uninterrupted run, because a trial is fully determined by
//!   `(spec, seed, trial index)` and [`TestOutcome`] is integral data
//!   (no floats to re-round).
//! * **Sharding** (`--shard i/N`, [`Shard`]): a deterministic partition
//!   of the trial index space (`trial % N == i`), so `N` independent
//!   processes or CI jobs each run a disjoint slice. Their ledgers —
//!   merged in one directory — reassemble into the complete campaign
//!   via `resilim merge`.
//! * **Retry**: a wedged trial (killed by the watchdog deadline) is
//!   retried with exponential backoff (50 ms, doubling, capped at 2 s);
//!   after the budget (`--retries`, default 2) is exhausted it is
//!   recorded as a `Hang` outcome instead of wedging the campaign.
//!
//! Corruption tolerance mirrors the golden cache: every line is parsed
//! independently, and a truncated tail, interleaved garbage, a
//! stale-version record, or a record for a different campaign key all
//! degrade to "that trial was never ledgered" — resume re-runs exactly
//! the affected trials and the merged result still equals a fresh run.

use crate::campaign::TrialRecord;
use crate::recordlog::{LogRecord, RecordLog};
use resilim_inject::TestOutcome;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Version stamp of the on-disk trial record. Bump whenever the record
/// layout *or trial semantics* change; stale-version records are
/// skipped on load (the affected trials re-run), never migrated.
pub const LEDGER_VERSION: u32 = 1;

/// One durable trial record (one JSONL line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerLine {
    /// Record-format version ([`LEDGER_VERSION`]).
    v: u32,
    /// The campaign's ledger key (deployment identity minus the trial
    /// count, so shards and differently-sized runs share records).
    key: String,
    /// Campaign seed (also folded into `key`; kept explicit so records
    /// are self-describing to external consumers).
    seed: u64,
    /// Trial index within the campaign.
    trial: usize,
    /// The trial's outcome.
    outcome: TestOutcome,
    /// Watchdog retries this trial needed (0 = first attempt stuck).
    attempts: u32,
}

/// A deterministic `1/N` partition of the trial index space.
///
/// Shard `i/N` owns exactly the trials with `trial % N == i`: every
/// trial belongs to exactly one shard, the partition is independent of
/// execution order and machine, and N round-robin slices have near-equal
/// size, so CI matrix jobs finish together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI spelling `i/N`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("--shard wants i/N, got '{s}'"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|e| format!("--shard index: {e}"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|e| format!("--shard count: {e}"))?;
        if count == 0 {
            return Err("--shard count must be >= 1".into());
        }
        if index >= count {
            return Err(format!("--shard index {index} out of range for /{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard runs `trial`.
    pub fn owns(&self, trial: usize) -> bool {
        trial % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

// Bounded retry with exponential backoff for wedged trials.
//
// Deterministic in-simulation crashes and hangs are *final* outcomes —
// re-running them would reproduce them bitwise — so retry applies only
// to trials the wall-clock watchdog killed, which signal external
// interference (machine load, a wedged worker) rather than the fault
// under study. After the retry budget the trial is recorded as a `Hang`.

/// Watchdog retries after the first attempt unless `--retries` says
/// otherwise (0 = record the kill directly).
pub(crate) const DEFAULT_MAX_RETRIES: u32 = 2;
/// Backoff before the first retry; doubles per retry.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
/// Upper bound on any single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Backoff before retry `attempt` (0-based): [`BASE_BACKOFF`]` *
/// 2^attempt`, capped at [`MAX_BACKOFF`].
pub(crate) fn backoff(attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    BASE_BACKOFF.saturating_mul(factor).min(MAX_BACKOFF)
}

/// Append-only, crash-tolerant per-trial ledger for one campaign: the
/// [`RecordLog`] of [`LedgerLine`]s (`trials-<fnv64(key)>-<pid>.jsonl`),
/// mapping trial index → [`TestOutcome`].
pub type TrialLedger = RecordLog<LedgerLine>;

impl LogRecord for LedgerLine {
    const PREFIX: &'static str = "trials";
    const VERSION: u32 = LEDGER_VERSION;
    const STORE: &'static str = "ledger";
    /// `(trial, outcome, attempts)`.
    type Row = (usize, TestOutcome, u32);
    type Value = TestOutcome;

    fn new(key: &str, seed: u64, (trial, outcome, attempts): Self::Row) -> LedgerLine {
        LedgerLine {
            v: LEDGER_VERSION,
            key: key.to_string(),
            seed,
            trial,
            outcome,
            attempts,
        }
    }

    fn row_of(rec: &TrialRecord) -> Option<Self::Row> {
        Some((rec.index, rec.outcome, rec.attempts))
    }

    fn identity(&self) -> (u32, &str, u64, usize) {
        (self.v, &self.key, self.seed, self.trial)
    }

    fn into_value(self) -> TestOutcome {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_total_and_disjoint() {
        for count in 1..=5usize {
            for trial in 0..40usize {
                let owners: Vec<usize> = (0..count)
                    .filter(|&i| Shard { index: i, count }.owns(trial))
                    .collect();
                assert_eq!(owners.len(), 1, "trial {trial} of /{count}: {owners:?}");
                assert_eq!(owners[0], trial % count);
            }
        }
    }

    #[test]
    fn shard_parses_and_rejects() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard { index: 0, count: 3 });
        assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), BASE_BACKOFF);
        assert_eq!(backoff(1), BASE_BACKOFF * 2);
        assert_eq!(backoff(2), BASE_BACKOFF * 4);
        assert_eq!(backoff(5), BASE_BACKOFF * 32);
        assert_eq!(backoff(6), MAX_BACKOFF, "capped");
        assert_eq!(backoff(63), MAX_BACKOFF, "no overflow");
    }
}
