//! The store's line files: one append writer ([`Appender`]), one line
//! reader ([`read_lines`]), and the append-only, crash-tolerant JSONL
//! record log behind both per-trial stores built on them. The trial
//! ledger ([`crate::ledger::TrialLedger`]) and the feature store
//! ([`crate::features::FeatureStore`]) are the two instantiations of
//! [`RecordLog`], differing only in their [`LogRecord`] (file prefix,
//! version stamp, payload); the serve scheduler's submissions journal
//! is the third file written and read through the same two functions.
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
//! independently, and a truncated tail, interleaved garbage (non-UTF-8
//! bytes included), a stale-version record, or a record for a different
//! campaign key all degrade to "that trial was never recorded". A file
//! reopened with a torn tail — a kill mid-write, then a later process
//! under the same pid — gets the tail's `\n` before its next line, so
//! the tear costs only the torn line.

use crate::campaign::{TrialConsumer, TrialRecord};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Records appended between fsyncs. Each batch reaches the OS in one
/// write (survives a process crash); the fsync every `SYNC_BATCH`
/// records bounds what a power loss can cost.
const SYNC_BATCH: usize = 64;

/// `e` with `what` (the file, the store) before its message, its kind
/// kept.
fn named(what: impl std::fmt::Display, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// The one append writer of the store's line files (ledger, feature
/// store, serve journal). It is its file's only writer, so it keeps the
/// file's length instead of asking for it, and every error it returns
/// names the file.
pub struct Appender {
    path: PathBuf,
    file: File,
    /// The file's length: what was there at open plus every append since.
    len: u64,
    /// What the next append writes before its lines: `\n` while the
    /// file ends in a line without one (a write torn by a kill).
    framing: &'static [u8],
}

impl Appender {
    /// Open `path` for appending, creating it if needed, and check its
    /// tail: a non-empty file that does not end in `\n` gets one before
    /// the first append, so the torn line is not joined to the next.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Appender> {
        let path = path.into();
        let opened = (|| {
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)?;
            let len = file.metadata()?.len();
            let mut last = [b'\n'];
            if len > 0 {
                file.seek(SeekFrom::End(-1))?;
                file.read_exact(&mut last)?;
            }
            Ok((file, len, if last[0] == b'\n' { &b""[..] } else { b"\n" }))
        })();
        let (file, len, framing) = opened.map_err(|e| named(path.display(), e))?;
        Ok(Appender {
            path,
            file,
            len,
            framing,
        })
    }

    /// Append whole `lines` (each ending in `\n`) with one write and,
    /// with `sync`, fsync the file (no lines: fsync what earlier appends
    /// wrote). If the write or the sync fails, the file is cut back to
    /// its length before the call, so a failed append leaves no partial
    /// line for the next one to join.
    pub fn append(&mut self, lines: &[u8], sync: bool) -> io::Result<()> {
        let written = (self.file.write_all(self.framing))
            .and_then(|()| self.file.write_all(lines))
            .and_then(|()| if sync { self.file.sync_data() } else { Ok(()) });
        match written {
            Ok(()) => {
                self.len += (self.framing.len() + lines.len()) as u64;
                self.framing = b"";
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.len);
                Err(named(self.path.display(), e))
            }
        }
    }
}

/// The one line reader of the store's line files: every line of the
/// file at `path` that is UTF-8 and parses as a `T`, in file order. A
/// line that does not — a torn tail, garbage, a foreign format — costs
/// only itself. A missing file holds no lines; one that cannot be read
/// is an error naming it.
pub fn read_lines<T: Deserialize>(path: &Path) -> io::Result<Vec<T>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(named(path.display(), e)),
    };
    Ok(bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| serde_json::from_str(std::str::from_utf8(line).ok()?).ok())
        .collect())
}

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
    /// This process's append file, and the records appended since its
    /// last fsync.
    file: Mutex<(Appender, usize)>,
    record: PhantomData<fn(R)>,
}

impl<R: LogRecord> RecordLog<R> {
    /// Open (creating the directory and this process's append file if
    /// needed) the log for one campaign key. A log that cannot be opened
    /// is an error naming the store and its directory: an unwritable
    /// store must fail the campaign before any trial runs, not leave it
    /// silently non-durable.
    pub fn open(dir: impl AsRef<Path>, key: &str, seed: u64) -> io::Result<RecordLog<R>> {
        let dir = dir.as_ref();
        let store = || format!("cannot open the {} under {}", R::STORE, dir.display());
        let appender = std::fs::create_dir_all(dir)
            .and_then(|()| Appender::open(dir.join(Self::file_name(key))))
            .map_err(|e| named(store(), e))?;
        Ok(RecordLog {
            key: key.to_string(),
            seed,
            file: Mutex::new((appender, 0)),
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

    /// Append a batch of rows with one lock and one write — the
    /// amortized form batched admission uses. The whole batch reaches
    /// the OS before this returns (a crashed *process* loses nothing),
    /// and the file is fsynced once `SYNC_BATCH` records are unsynced
    /// (bounding what a power loss can cost).
    ///
    /// Best-effort: a failed append is dropped (its trials re-run on
    /// resume), so a full disk degrades resumability instead of killing
    /// the campaign. Whether it should fail or degrade visibly instead
    /// is open (ROADMAP item 8).
    pub fn append_batch(&self, rows: &[R::Row]) {
        let lines: String = rows
            .iter()
            .map(|&row| serde_json::to_string(&R::new(&self.key, self.seed, row)).unwrap() + "\n")
            .collect();
        let (appender, unsynced) = &mut *self.file.lock();
        let sync = *unsynced + rows.len() >= SYNC_BATCH;
        *unsynced = if sync { 0 } else { *unsynced + rows.len() };
        let _ = appender.append(lines.as_bytes(), sync);
    }

    /// Fsync any records appended since the last fsync (also done on drop).
    pub fn sync(&self) {
        let (appender, unsynced) = &mut *self.file.lock();
        if *unsynced > 0 && appender.append(b"", true).is_ok() {
            *unsynced = 0;
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
        let _ = Self::scan(dir.as_ref(), key, |_, rec| {
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
        Self::scan(dir.as_ref(), key, |path, rec| {
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

    /// Visit every parseable current-version record in the `*.jsonl`
    /// files under `dir` named for `key`, with its source path, in
    /// file-name order; the first visitor error ends the scan.
    /// Lines [`read_lines`] cannot parse, unreadable files and stale
    /// versions are skipped here, so every loader shares one
    /// corruption-tolerance policy. The records of a
    /// named file still carry their own key (fnv64 can collide), so
    /// visitors check it.
    fn scan(
        dir: &Path,
        key: &str,
        mut visit: impl FnMut(&Path, R) -> Result<(), String>,
    ) -> Result<(), String> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Ok(());
        };
        let prefix = Self::file_prefix(key);
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                (name.to_str()).is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".jsonl"))
            })
            .map(|e| e.path())
            .collect();
        paths.sort();
        for path in paths {
            for rec in read_lines::<R>(&path).unwrap_or_default() {
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
/// Up to `batch` rows are buffered per write — the amortized form
/// batched admission uses. [`TrialConsumer::finish`] drains the buffer
/// and drops the log, which fsyncs and closes it, so batch size changes the
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
    fn plant<R: LogRecord>(dir: &Path, key: &str, text: impl AsRef<[u8]>) {
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

    /// A stray non-UTF-8 byte costs its line, not the file: the good
    /// records on either side of it load.
    fn a_non_utf8_line_costs_only_itself<R: Sample>() {
        let dir = temp_dir::<R>("utf8");
        let file = write::<R>(&dir, "k", 1, &[0, 1]);
        let raw = std::fs::read_to_string(file).unwrap();
        let line = raw.lines().next().unwrap();
        let good4 = line.replace("\"trial\":0", "\"trial\":4");
        let good5 = line.replace("\"trial\":0", "\"trial\":5");
        let mut planted = format!("{good4}\n").into_bytes();
        planted.extend_from_slice(b"\xff\xfe not utf-8\n");
        planted.extend_from_slice(format!("{good5}\n").as_bytes());
        plant::<R>(&dir, "k", planted);
        for map in [
            RecordLog::<R>::load(&dir, "k", 1),
            RecordLog::<R>::load_strict(&dir, "k", 1).expect("a bad byte is not fatal"),
        ] {
            let mut trials: Vec<usize> = map.keys().copied().collect();
            trials.sort_unstable();
            assert_eq!(trials, [0, 1, 4, 5]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file reopened under the same name (a later process under a
    /// reused pid) after a kill tore its last line: the next append
    /// starts a line of its own, so only the torn record is lost.
    fn a_reopened_torn_file_keeps_the_next_append<R: Sample>() {
        let dir = temp_dir::<R>("reopen");
        let file = write::<R>(&dir, "k", 1, &[0, 1]);
        let raw = std::fs::read(&file).unwrap();
        std::fs::write(&file, &raw[..raw.len() - 10]).unwrap();
        write::<R>(&dir, "k", 1, &[2]);
        for map in [
            RecordLog::<R>::load(&dir, "k", 1),
            RecordLog::<R>::load_strict(&dir, "k", 1).expect("a tear is not fatal"),
        ] {
            let mut trials: Vec<usize> = map.keys().copied().collect();
            trials.sort_unstable();
            assert_eq!(trials, [0, 2]);
            assert_eq!(map[&2], R::value(2));
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
                fn a_non_utf8_line_costs_only_itself() {
                    super::a_non_utf8_line_costs_only_itself::<$record>();
                }
                #[test]
                fn a_reopened_torn_file_keeps_the_next_append() {
                    super::a_reopened_torn_file_keeps_the_next_append::<$record>();
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
