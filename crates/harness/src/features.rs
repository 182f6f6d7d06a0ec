//! Durable per-trial feature store: the learned predictors' training
//! data, persisted next to the trial ledger.
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
//!   store directory reassembles the full campaign's training set.
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

use crate::campaign::TrialRecord;
use crate::recordlog::{LogRecord, RecordLog};
use resilim_core::{TrialFeatures, FEATURE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

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

impl FeatureStore {
    /// Load *every* campaign's records under `dir`, keyed by
    /// `(ledger key, seed, trial)` — the training-set loader for
    /// `resilim model`, which learns across all deployments a store
    /// holds. Same corruption tolerance as [`FeatureStore::load`].
    pub fn load_all(dir: impl AsRef<Path>) -> Vec<TrialFeatures> {
        let mut keyed: HashMap<(String, u64, usize), TrialFeatures> = HashMap::new();
        let _ = Self::scan(dir.as_ref(), None, |_, rec| {
            keyed.insert((rec.key, rec.seed, rec.trial), rec.features);
            Ok(())
        });
        let mut entries: Vec<_> = keyed.into_iter().collect();
        // Deterministic training order regardless of hash-map iteration.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.into_iter().map(|(_, f)| f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_core::OutcomeKind;

    /// The cross-campaign training loader sees every campaign's records
    /// once (the per-campaign loaders are covered by the shared suite in
    /// `recordlog`).
    #[test]
    fn load_all_spans_campaigns_and_tolerates_a_missing_dir() {
        let dir = std::env::temp_dir().join(format!("resilim-features-all-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(FeatureStore::load_all(&dir).is_empty());
        let feat = |label, ops| TrialFeatures::quiet(label, 4, ops, [1.0, 0.0, 0.0, 0.0, 0.0]);
        let k1 = FeatureStore::open(&dir, "k1", 7).unwrap();
        k1.append_batch(&[
            (0, feat(OutcomeKind::Success, 10)),
            (2, feat(OutcomeKind::Sdc, 20)),
        ]);
        let k2 = FeatureStore::open(&dir, "k2", 7).unwrap();
        k2.append_batch(&[(0, feat(OutcomeKind::Failure, 30))]);
        // A keyed load reads one campaign's files; the training loader
        // reads every campaign's.
        assert_eq!(FeatureStore::load(&dir, "k1", 7).len(), 2);
        assert_eq!(FeatureStore::load_all(&dir).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
