//! The one append-only, crash-tolerant JSONL record log behind both
//! per-trial stores: the trial ledger ([`crate::ledger::TrialLedger`])
//! and the feature store ([`crate::features::FeatureStore`]) are the
//! two instantiations of [`RecordLog`], differing only in their
//! [`LogRecord`] (file prefix, version stamp, payload).
//!
//! Each process appends to its own file (`<prefix>-<fnv64(key)>-<pid>.jsonl`)
//! so concurrent shards sharing a store directory never interleave
//! partial lines. The file name is part of the store format: a keyed
//! load reads only the `<prefix>-<fnv64(key)>-*.jsonl` files (so its cost
//! is the campaign's, not the store's) and filters their records by
//! `(version, key, seed)`, which is also exactly how shard files merge.
//! A renamed file is not read.
//!
//! Corruption tolerance mirrors the golden cache: every line is parsed
//! independently, and a truncated tail, interleaved garbage, a
//! stale-version record, or a record for a different campaign key all
//! degrade to "that trial was never recorded".

use crate::campaign::{TrialConsumer, TrialRecord};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Records appended between fsyncs. Each append is flushed to the OS
/// immediately (survives a process crash); the batch fsync bounds what
/// a power loss can cost.
const SYNC_BATCH: usize = 64;

/// One kind of durable per-trial record: the serialized JSONL line and
/// its mapping to the rows callers append and the values loaders return.
/// The line's field order is the implementor's `Serialize` derive, so
/// on-disk bytes are the record's own business.
pub trait LogRecord: Serialize + Deserialize {
    /// File-name prefix (`trials`, `features`).
    const PREFIX: &'static str;
    /// Version stamp written into every line; lines carrying any other
    /// version are skipped on load (those trials re-run), never migrated.
    const VERSION: u32;
    /// What error messages call this store (`ledger`, `feature store`).
    const STORE: &'static str;
    /// What [`RecordLog::append_batch`] takes: the trial index plus payload.
    type Row: Copy + Send;
    /// What the loaders return per trial index.
    type Value;

    /// The line recording `row` for campaign `(key, seed)`.
    fn new(key: &str, seed: u64, row: Self::Row) -> Self;
    /// The row a delivered trial contributes, if any.
    fn row_of(rec: &TrialRecord) -> Option<Self::Row>;
    /// The line's `(version, key, seed, trial)` identity.
    fn identity(&self) -> (u32, &str, u64, usize);
    /// The payload loaders hand back.
    fn into_value(self) -> Self::Value;
}

/// Append-only, crash-tolerant per-trial record log for one campaign.
pub struct RecordLog<R: LogRecord> {
    key: String,
    seed: u64,
    writer: Mutex<Writer>,
    record: PhantomData<fn(R)>,
}

struct Writer {
    file: BufWriter<File>,
    /// Appends since the last fsync.
    unsynced: usize,
}

impl<R: LogRecord> RecordLog<R> {
    /// Open (creating the directory and this process's append file if
    /// needed) the log for one campaign key.
    pub fn open(dir: impl AsRef<Path>, key: &str, seed: u64) -> std::io::Result<RecordLog<R>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(Self::file_name(key)))?;
        Ok(RecordLog {
            key: key.to_string(),
            seed,
            writer: Mutex::new(Writer {
                file: BufWriter::new(file),
                unsynced: 0,
            }),
            record: PhantomData,
        })
    }

    /// This process's append-file name for `key`.
    pub fn file_name(key: &str) -> String {
        format!("{}{}.jsonl", Self::file_prefix(key), std::process::id())
    }

    /// What every append-file name for `key` starts with, whichever
    /// process wrote it: `<prefix>-<fnv64(key)>-`.
    pub fn file_prefix(key: &str) -> String {
        format!(
            "{}-{:016x}-",
            R::PREFIX,
            crate::golden::fnv64(&[key.as_bytes()])
        )
    }

    /// Append a batch of rows with one writer lock, one `write`, and one
    /// flush — the amortized form batched admission uses. Best-effort
    /// durability: the whole batch reaches the OS before this returns (a
    /// crashed *process* loses nothing) and the file is fsynced every
    /// `SYNC_BATCH` records (bounding what a power loss can cost); IO
    /// errors are swallowed — a full disk must not kill the campaign, it
    /// only degrades resumability.
    pub fn append_batch(&self, rows: &[R::Row]) {
        if rows.is_empty() {
            return;
        }
        let mut lines = String::new();
        for &row in rows {
            let Ok(line) = serde_json::to_string(&R::new(&self.key, self.seed, row)) else {
                continue;
            };
            lines.push_str(&line);
            lines.push('\n');
        }
        let mut w = self.writer.lock();
        if w.file.write_all(lines.as_bytes()).is_err() {
            return;
        }
        let _ = w.file.flush();
        w.unsynced += rows.len();
        if w.unsynced >= SYNC_BATCH {
            let _ = w.file.get_ref().sync_data();
            w.unsynced = 0;
        }
    }

    /// Flush and fsync any pending batch (also done on drop).
    pub fn sync(&self) {
        let mut w = self.writer.lock();
        let _ = w.file.flush();
        if w.unsynced > 0 {
            let _ = w.file.get_ref().sync_data();
            w.unsynced = 0;
        }
    }

    /// Load every valid record for `(key, seed)` from the log files
    /// under `dir` named for `key` ([`RecordLog::file_prefix`]; a renamed
    /// file is not read): trial index → value. Tolerates a missing directory,
    /// unreadable files, truncated/corrupt lines, stale versions, and
    /// foreign-campaign records — each degrades to "not recorded". Files
    /// are scanned in name order and later records win (re-runs of a
    /// trial are deterministic, so this is cosmetic).
    pub fn load(dir: impl AsRef<Path>, key: &str, seed: u64) -> HashMap<usize, R::Value> {
        let mut out = HashMap::new();
        let _ = Self::scan(dir.as_ref(), Some(key), |_, rec| {
            let (_, rec_key, rec_seed, trial) = rec.identity();
            if rec_key == key && rec_seed == seed {
                out.insert(trial, rec.into_value());
            }
            Ok(())
        });
        out
    }

    /// Like [`RecordLog::load`], but for *merging*: adversarial
    /// conditions that resume can shrug off are hard errors here.
    ///
    /// * **Duplicate trial records** (two valid records for the same
    ///   `(key, seed, trial)`) error out. Legitimate flows never produce
    ///   them — resume skips already-recorded trials and shards are
    ///   disjoint — so a duplicate means the same shard ran twice into
    ///   one directory, or files from separate runs were mixed.
    ///   Silently deduping would let an overlapping-shard
    ///   misconfiguration double-count a slice of the campaign.
    /// * **Identity mismatches** — a record whose `key` matches but
    ///   whose explicit `seed` field does not — error out. The seed is
    ///   folded into the key, so the two can only disagree on a forged
    ///   or corrupted record; adopting it would merge a trial from a
    ///   different deployment.
    ///
    /// Unparseable lines, stale versions, and foreign-key records are
    /// still skipped (corruption tolerance is unchanged — those degrade
    /// to "never recorded" and the merge reports the missing trials).
    pub fn load_strict(
        dir: impl AsRef<Path>,
        key: &str,
        seed: u64,
    ) -> Result<HashMap<usize, R::Value>, String> {
        let mut out = HashMap::new();
        Self::scan(dir.as_ref(), Some(key), |path, rec| {
            let (_, rec_key, rec_seed, trial) = rec.identity();
            if rec_key != key {
                return Ok(());
            }
            if rec_seed != seed {
                return Err(format!(
                    "{} {}: record for trial {trial} matches campaign key but \
                     carries seed {rec_seed} (expected {seed}) — deployment \
                     identity mismatch, refusing to merge",
                    R::STORE,
                    path.display(),
                ));
            }
            if out.insert(trial, rec.into_value()).is_some() {
                return Err(format!(
                    "{} {}: duplicate record for trial {trial} — the same shard \
                     ran twice into this store, or files from separate runs \
                     were mixed; refusing to merge (re-run the shard with \
                     --resume into a clean directory)",
                    R::STORE,
                    path.display(),
                ));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit every parseable current-version record under `dir`, with
    /// its source path, in file-name order; the first visitor error
    /// ends the scan. With a `key`, only the files named for it are
    /// opened; without one, every `*.jsonl` file is. Unparseable lines
    /// and stale versions are skipped here so every loader shares one
    /// corruption-tolerance policy. The records of a named file still
    /// carry their own key (fnv64 can collide), so visitors check it.
    pub(crate) fn scan(
        dir: &Path,
        key: Option<&str>,
        mut visit: impl FnMut(&Path, R) -> Result<(), String>,
    ) -> Result<(), String> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Ok(());
        };
        let prefix = key.map(Self::file_prefix);
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .filter(|p| {
                prefix.as_deref().is_none_or(|prefix| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(prefix))
                })
            })
            .collect();
        paths.sort();
        for path in paths {
            let Ok(raw) = std::fs::read_to_string(&path) else {
                continue;
            };
            for line in raw.lines() {
                let Ok(rec) = serde_json::from_str::<R>(line) else {
                    continue; // truncated tail, garbage, or foreign format
                };
                if rec.identity().0 != R::VERSION {
                    continue; // stale version: skipped, never migrated
                }
                visit(&path, rec)?;
            }
        }
        Ok(())
    }
}

impl<R: LogRecord> Drop for RecordLog<R> {
    fn drop(&mut self) {
        self.sync();
    }
}

/// Persistence consumer: appends every freshly executed record's row to
/// an owned [`RecordLog`] (resumed records are already on disk — the
/// run that executed them persisted theirs). Appends happen in
/// trial-index delivery order, so a file's contents for a given
/// `(spec, seed)` are byte-identical across worker counts, batch sizes,
/// and one-shot vs daemon execution, and a stopped campaign's log holds
/// exactly the delivered prefix plus whatever earlier runs recorded.
///
/// Up to `batch` rows are buffered per write+flush — the amortized form
/// batched admission uses. [`TrialConsumer::finish`] drains the buffer,
/// fsyncs and closes the log, so batch size changes the
/// crash-durability lag (bounded by the batch), never file contents.
pub(crate) struct LogConsumer<R: LogRecord> {
    log: Option<RecordLog<R>>,
    batch: usize,
    buffered: Vec<R::Row>,
}

impl<R: LogRecord> LogConsumer<R> {
    /// Consumer appending to `log` (no-op when `None`), `batch` rows
    /// per write (1 = unbuffered).
    pub(crate) fn new(log: Option<RecordLog<R>>, batch: usize) -> LogConsumer<R> {
        LogConsumer {
            log,
            batch: batch.max(1),
            buffered: Vec::new(),
        }
    }
}

impl<R: LogRecord> TrialConsumer for LogConsumer<R> {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if let (Some(log), false) = (&self.log, rec.resumed) {
            if let Some(row) = R::row_of(rec) {
                self.buffered.push(row);
                if self.buffered.len() >= self.batch {
                    log.append_batch(&self.buffered);
                    self.buffered.clear();
                }
            }
        }
        false
    }

    fn finish(&mut self) {
        if let Some(log) = self.log.take() {
            log.append_batch(&self.buffered);
            log.sync();
        }
        self.buffered.clear();
    }
}

#[cfg(test)]
mod tests {
    //! One corruption-tolerance suite, instantiated for both record
    //! kinds (`suite!` at the bottom).

    use super::*;
    use crate::features::FeatureLine;
    use crate::ledger::LedgerLine;
    use resilim_core::{OutcomeKind, TrialFeatures};
    use resilim_inject::{FailureKind, TestOutcome};
    use std::fmt::Debug;

    /// Distinct sample rows per record kind.
    trait Sample: LogRecord<Value: PartialEq + Debug> {
        fn row(trial: usize) -> Self::Row;
        fn value(trial: usize) -> Self::Value;
    }

    fn outcome(trial: usize) -> TestOutcome {
        match trial % 3 {
            0 => TestOutcome::success(true, 1, 1),
            1 => TestOutcome::sdc(trial + 1, 1),
            _ => TestOutcome::failure(FailureKind::Crash, 0, 0),
        }
    }

    impl Sample for LedgerLine {
        fn row(trial: usize) -> Self::Row {
            (trial, outcome(trial), trial as u32 % 2)
        }
        fn value(trial: usize) -> Self::Value {
            outcome(trial)
        }
    }

    impl Sample for FeatureLine {
        fn row(trial: usize) -> Self::Row {
            (trial, Self::value(trial))
        }
        fn value(trial: usize) -> Self::Value {
            let label = [OutcomeKind::Success, OutcomeKind::Sdc, OutcomeKind::Failure][trial % 3];
            TrialFeatures::quiet(label, 4, 10 * (trial as u64 + 1), [1.0, 0.0, 0.0, 0.0, 0.0])
        }
    }

    fn temp_dir<R: LogRecord>(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "resilim-recordlog-{}-{tag}-{}",
            R::PREFIX,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Write `trials` as one batch under `(key, seed)`; return the file.
    fn write<R: Sample>(dir: &Path, key: &str, seed: u64, trials: &[usize]) -> PathBuf {
        let log = RecordLog::<R>::open(dir, key, seed).unwrap();
        let rows: Vec<R::Row> = trials.iter().map(|&t| R::row(t)).collect();
        log.append_batch(&rows);
        dir.join(RecordLog::<R>::file_name(key))
    }

    /// A second log file for `key` that no live process owns (the shape
    /// another pid's run leaves behind), holding `text`.
    fn plant<R: LogRecord>(dir: &Path, key: &str, text: &str) {
        let name = format!("{}zzz.jsonl", RecordLog::<R>::file_prefix(key));
        std::fs::write(dir.join(name), text).unwrap();
    }

    /// A well-formed line whose version stamp is not the current one.
    fn stale<R: LogRecord>(line: &str) -> String {
        let current = format!("{{\"v\":{},", R::VERSION);
        assert!(line.starts_with(&current), "fixture relies on `v` first");
        line.replacen(&current, "{\"v\":999,", 1)
    }

    fn appends_roundtrip_and_filter_by_key<R: Sample>() {
        let dir = temp_dir::<R>("roundtrip");
        write::<R>(&dir, "k1", 7, &[0, 2]);
        write::<R>(&dir, "k2", 7, &[0]);
        let k1 = RecordLog::<R>::load(&dir, "k1", 7);
        assert_eq!(k1.len(), 2);
        assert_eq!(k1[&0], R::value(0));
        assert_eq!(k1[&2], R::value(2));
        // Different key and different seed see none of k1's records.
        assert_eq!(RecordLog::<R>::load(&dir, "k2", 7).len(), 1);
        assert!(RecordLog::<R>::load(&dir, "k1", 8).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn corrupt_lines_and_stale_versions_are_skipped<R: Sample>() {
        let dir = temp_dir::<R>("corrupt");
        let file = write::<R>(&dir, "k", 1, &[0, 1]);
        let raw = std::fs::read_to_string(file).unwrap();
        let line = raw.lines().next().unwrap();
        // Interleave garbage, a stale-version record for trial 5, and a
        // truncated final line for trial 3 into a second file, next to a
        // good record for trial 4 that proves the file was read.
        let stale5 = stale::<R>(line).replace("\"trial\":0", "\"trial\":5");
        let good4 = line.replace("\"trial\":0", "\"trial\":4");
        let torn3 = line.replace("\"trial\":0", "\"trial\":3");
        plant::<R>(
            &dir,
            "k",
            &format!(
                "not json at all\n{stale5}\n{good4}\n{}",
                &torn3[..torn3.len() / 2]
            ),
        );
        for map in [
            RecordLog::<R>::load(&dir, "k", 1),
            RecordLog::<R>::load_strict(&dir, "k", 1).expect("corruption is not fatal"),
        ] {
            assert_eq!(map.len(), 3);
            assert_eq!(map[&4], R::value(0));
            assert!(
                !map.contains_key(&5),
                "stale-version record must be ignored"
            );
            assert!(!map.contains_key(&3), "truncated record must be ignored");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn missing_dir_loads_empty<R: Sample>() {
        let dir = temp_dir::<R>("missing");
        assert!(RecordLog::<R>::load(&dir, "k", 0).is_empty());
        assert!(RecordLog::<R>::load_strict(&dir, "k", 0)
            .unwrap()
            .is_empty());
    }

    fn strict_load_rejects_duplicate_trials<R: Sample>() {
        let dir = temp_dir::<R>("strict-dup");
        let file = write::<R>(&dir, "k", 1, &[0, 1]);
        // A well-formed record for trial 1 lands in a *second* file, as
        // if the same shard ran twice into one store directory.
        let raw = std::fs::read_to_string(file).unwrap();
        plant::<R>(&dir, "k", &format!("{}\n", raw.lines().nth(1).unwrap()));
        // Lenient load dedupes (resume semantics)…
        assert_eq!(RecordLog::<R>::load(&dir, "k", 1).len(), 2);
        // …but the merge path must fail loudly.
        let err = RecordLog::<R>::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("duplicate record for trial 1"), "{err}");
        assert!(err.starts_with(R::STORE), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn strict_load_rejects_identity_mismatch<R: Sample>() {
        let dir = temp_dir::<R>("strict-seed");
        let file = write::<R>(&dir, "k", 1, &[0]);
        // Forge a record whose key matches but whose seed field does
        // not: the seed is folded into the key, so this can only be a
        // corrupted or foreign record wearing our key.
        let forged = std::fs::read_to_string(file)
            .unwrap()
            .replace("\"seed\":1", "\"seed\":2")
            .replace("\"trial\":0", "\"trial\":7");
        plant::<R>(&dir, "k", &forged);
        // Lenient load silently skips it (different campaign)…
        assert_eq!(RecordLog::<R>::load(&dir, "k", 1).len(), 1);
        // …strict load refuses to merge.
        let err = RecordLog::<R>::load_strict(&dir, "k", 1).unwrap_err();
        assert!(err.contains("identity"), "{err}");
        assert!(err.contains("seed 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A keyed load opens only the files named for its key: a store of
    /// 1 000 other campaigns, each file holding a forged duplicate of our
    /// trial 0 and a garbage line, changes neither loader's answer.
    fn loads_read_only_the_keys_files<R: Sample>() {
        let dir = temp_dir::<R>("foreign");
        let file = write::<R>(&dir, "k", 1, &[0, 1]);
        let raw = std::fs::read_to_string(file).unwrap();
        let dup0 = raw.lines().next().unwrap();
        for other in 0..1000 {
            let name = RecordLog::<R>::file_name(&format!("other-{other}"));
            std::fs::write(dir.join(name), format!("{dup0}\nnot json\n")).unwrap();
        }
        let strict = RecordLog::<R>::load_strict(&dir, "k", 1).expect("foreign files are not read");
        for map in [RecordLog::<R>::load(&dir, "k", 1), strict] {
            assert_eq!(map.len(), 2);
            assert_eq!(map[&0], R::value(0));
            assert_eq!(map[&1], R::value(1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A run killed mid-append leaves a truncated final line. Wherever
    /// the tear falls, both loaders must recover exactly the complete
    /// records and treat the torn one as never recorded.
    fn a_tear_at_every_byte_offset_keeps_the_complete_records<R: Sample>() {
        let dir = temp_dir::<R>("tear");
        let file = write::<R>(&dir, "k", 1, &[0, 1, 2]);
        let raw = std::fs::read(&file).unwrap();
        // A record is complete once its closing brace is on disk (the
        // newline after it is not needed to parse it).
        let ends: Vec<usize> = (0..raw.len()).filter(|&i| raw[i] == b'\n').collect();
        assert_eq!(ends.len(), 3);
        for cut in 0..=raw.len() {
            std::fs::write(&file, &raw[..cut]).unwrap();
            let complete = ends.iter().filter(|&&end| cut >= end).count();
            let lenient = RecordLog::<R>::load(&dir, "k", 1);
            let strict = RecordLog::<R>::load_strict(&dir, "k", 1).expect("a tear is not fatal");
            for map in [&lenient, &strict] {
                assert_eq!(map.len(), complete, "cut at byte {cut}");
                assert!((0..complete).all(|t| map.contains_key(&t)), "cut at {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    macro_rules! suite {
        ($name:ident, $record:ty) => {
            mod $name {
                use super::*;

                #[test]
                fn appends_roundtrip_and_filter_by_key() {
                    super::appends_roundtrip_and_filter_by_key::<$record>();
                }
                #[test]
                fn corrupt_lines_and_stale_versions_are_skipped() {
                    super::corrupt_lines_and_stale_versions_are_skipped::<$record>();
                }
                #[test]
                fn missing_dir_loads_empty() {
                    super::missing_dir_loads_empty::<$record>();
                }
                #[test]
                fn strict_load_rejects_duplicate_trials() {
                    super::strict_load_rejects_duplicate_trials::<$record>();
                }
                #[test]
                fn strict_load_rejects_identity_mismatch() {
                    super::strict_load_rejects_identity_mismatch::<$record>();
                }
                #[test]
                fn loads_read_only_the_keys_files() {
                    super::loads_read_only_the_keys_files::<$record>();
                }
                #[test]
                fn a_tear_at_every_byte_offset_keeps_the_complete_records() {
                    super::a_tear_at_every_byte_offset_keeps_the_complete_records::<$record>();
                }
            }
        };
    }

    suite!(ledger, LedgerLine);
    suite!(features, FeatureLine);
}
