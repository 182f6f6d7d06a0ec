//! Durable per-trial feature store: each trial's dynamic features,
//! persisted next to the trial ledger.
//!
//! Every trial the harness executes yields a [`TrialFeatures`] record
//! (dynamic-op mix, taint-spread trajectory, comm-graph position — see
//! `resilim_core::features`). The store appends them as JSONL under
//! `--store DIR/features/`, keyed exactly like the ledger
//! (`CampaignSpec::ledger_key` + seed + trial index), so the same
//! machinery that shards, merges, and resumes trial outcomes applies to
//! features verbatim:
//!
//! * **Shard**: each shard's process appends to its own file; merging a
//!   store directory reassembles the full campaign's feature records.
//! * **Resume**: a resumed trial is *not* re-extracted — its features
//!   were persisted by the run that executed it, and the lenient loader
//!   picks them up.
//! * **Determinism**: records are appended in reorder-buffer delivery
//!   order, so the file contents for a given `(spec, seed)` are
//!   byte-identical across worker counts, batch sizes, and one-shot vs
//!   daemon execution.
//!
//! The store is the same [`RecordLog`] the trial ledger is, with its
//! own record kind — one writer, one set of loaders, one
//! corruption-tolerance policy: a truncated tail, interleaved garbage,
//! a stale schema version, or a foreign-campaign record each degrade to
//! "that trial's features were never stored".
//!
//! Nothing predicts from the features: they are a per-trial record of
//! what the injection did, which `resilim check`'s `identity` oracle
//! compares across execution shapes and the harness's `outcome_pin`
//! test pins.

use crate::campaign::TrialRecord;
use crate::recordlog::{LogRecord, RecordLog};
use resilim_core::{TrialFeatures, FEATURE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};

/// One durable feature record (one JSONL line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureLine {
    /// Feature-schema version ([`FEATURE_SCHEMA_VERSION`]). Stale
    /// versions are skipped on load, never migrated.
    v: u32,
    /// The campaign's ledger key (same identity as the trial ledger).
    key: String,
    /// Campaign seed (folded into `key`; explicit for self-description).
    seed: u64,
    /// Trial index within the campaign.
    trial: usize,
    /// The trial's extracted features.
    features: TrialFeatures,
}

/// Append-only, crash-tolerant per-trial feature store for one
/// campaign: the [`RecordLog`] of [`FeatureLine`]s
/// (`features-<fnv64(key)>-<pid>.jsonl`), mapping trial index →
/// [`TrialFeatures`].
pub type FeatureStore = RecordLog<FeatureLine>;

impl LogRecord for FeatureLine {
    const PREFIX: &'static str = "features";
    const VERSION: u32 = FEATURE_SCHEMA_VERSION;
    const STORE: &'static str = "feature store";
    /// `(trial, features)`.
    type Row = (usize, TrialFeatures);
    type Value = TrialFeatures;

    fn new(key: &str, seed: u64, (trial, features): Self::Row) -> FeatureLine {
        FeatureLine {
            v: FEATURE_SCHEMA_VERSION,
            key: key.to_string(),
            seed,
            trial,
            features,
        }
    }

    fn row_of(rec: &TrialRecord) -> Option<Self::Row> {
        rec.features.map(|features| (rec.index, features))
    }

    fn identity(&self) -> (u32, &str, u64, usize) {
        (self.v, &self.key, self.seed, self.trial)
    }

    fn into_value(self) -> TrialFeatures {
        self.features
    }
}
