//! Fault-free golden runs: the reference every fault-injection test is
//! classified against, and the profile the injection sample space is
//! drawn from.

use parking_lot::Mutex;
use resilim_apps::{AppOutput, ProblemSpec};
use resilim_inject::{OpMask, OpProfile, RankCtx, Region};
use resilim_obs as obs;
use resilim_simmpi::World;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Version stamp of the on-disk golden-run record. Bump whenever the
/// record layout *or the semantics of what a profile counts* changes;
/// stale-version files are ignored and re-measured, never migrated.
/// Version 2: [`OpProfile`] gained `msgs_sent` (wire-fault site space).
pub const GOLDEN_CACHE_VERSION: u32 = 2;

/// A fault-free run of one `(problem, scale, mask)` deployment.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The problem.
    pub spec: ProblemSpec,
    /// Rank count.
    pub procs: usize,
    /// The injectable-op mask the profile's index space was counted with.
    pub op_mask: OpMask,
    /// Rank 0's digest (identical on every rank in a fault-free run).
    pub output: AppOutput,
    /// Per-rank dynamic-op profiles.
    pub profiles: Vec<OpProfile>,
    /// Wall-clock duration of the fault-free run.
    pub wall: Duration,
}

impl GoldenRun {
    /// Execute the fault-free profiling run with the paper's default mask.
    pub fn measure(spec: &ProblemSpec, procs: usize) -> GoldenRun {
        GoldenRun::measure_masked(spec, procs, OpMask::FP_ARITH)
    }

    /// Execute the fault-free profiling run, counting the injection index
    /// space over `mask`.
    pub fn measure_masked(spec: &ProblemSpec, procs: usize, mask: OpMask) -> GoldenRun {
        let world = World::new(procs);
        let start = Instant::now();
        let spec_clone = spec.clone();
        let results = world.run_with_ctx(
            move |rank| Some(RankCtx::profiling(rank).with_op_mask(mask)),
            move |comm| spec_clone.run_rank(comm),
        );
        let wall = start.elapsed();
        let mut output = None;
        let mut profiles = Vec::with_capacity(procs);
        for r in results {
            let out = match r.result {
                Ok(o) => o,
                Err(p) => panic!(
                    "fault-free run of {:?} at p={procs} failed on rank {}: {}",
                    spec.app(),
                    r.rank,
                    p.message
                ),
            };
            if r.rank == 0 {
                output = Some(out);
            }
            profiles.push(r.ctx_report.expect("profiling ctx installed").profile);
        }
        GoldenRun {
            spec: spec.clone(),
            procs,
            op_mask: mask,
            output: output.expect("rank 0 reported"),
            profiles,
            wall,
        }
    }

    /// Total injectable ops in a region across all ranks.
    pub fn injectable(&self, region: Region) -> u64 {
        self.profiles.iter().map(|p| p.injectable(region)).sum()
    }

    /// Total injectable ops across ranks and regions.
    pub fn injectable_total(&self) -> u64 {
        self.profiles.iter().map(|p| p.injectable_total()).sum()
    }

    /// The parallel-unique share of injectable ops (Table 1's quantity;
    /// `prob₂` of Eq. 1).
    pub fn unique_share(&self) -> f64 {
        let total = self.injectable_total();
        if total == 0 {
            return 0.0;
        }
        self.injectable(Region::ParallelUnique) as f64 / total as f64
    }

    /// Hang-guard budget per rank: generously above the fault-free op
    /// count, so only genuinely runaway executions trip it.
    pub fn op_cap(&self) -> u64 {
        let max_ops = self.profiles.iter().map(|p| p.total()).max().unwrap_or(0);
        max_ops * 8 + 100_000
    }
}

/// The serialized form of a [`GoldenRun`]. `ProblemSpec` itself is not
/// serializable, so the record carries the spec's `cache_key()` and the
/// caller's spec is re-attached on load — a full key match is required,
/// so a record can never be applied to a different problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GoldenRecord {
    version: u32,
    key: String,
    procs: usize,
    op_mask: OpMask,
    output: AppOutput,
    profiles: Vec<OpProfile>,
    wall_secs: f64,
}

type Key = (String, usize, OpMask);

/// FNV-1a over a sequence of byte groups: a *deterministic* file-name
/// hash (std's `DefaultHasher` is randomly keyed per process, which
/// would defeat a cross-process cache). Shared by the golden cache and
/// the trial ledger.
pub(crate) fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in parts {
        for &b in *bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// File name of the disk record of `key`: the one place it is built.
fn key_file_name(key: &Key) -> String {
    let hash = fnv64(&[
        key.0.as_bytes(),
        &(key.1 as u64).to_le_bytes(),
        &[key.2.bits()],
    ]);
    format!("golden-{hash:016x}.json")
}

/// File name of a deployment's golden-cache entry inside the cache
/// directory (exposed so tests and operators can locate entries).
pub fn golden_cache_file_name(spec: &ProblemSpec, procs: usize, mask: OpMask) -> String {
    key_file_name(&(spec.cache_key(), procs, mask))
}

/// Process-wide cache of golden runs, keyed by `(problem, scale, mask)`,
/// with an optional persistent layer on disk.
///
/// Campaigns re-classify thousands of tests against the same golden run;
/// measuring it once per deployment keeps the harness O(tests), and the
/// disk layer (wired to the CLI's `--store DIR`) extends that across
/// process invocations. Lookups are *single-flight*: concurrent callers
/// of the same key agree on one measurer and wait for it instead of
/// profiling the deployment once each. The concurrent callers are
/// `resilim serve`'s connection threads, which profile a submission's
/// golden run before it is queued.
#[derive(Debug, Default)]
pub struct GoldenStore {
    /// One cell per key, filled once: the first caller loads or
    /// measures the run inside the cell's init, and same-key callers
    /// block on it and share the filled `Arc`.
    cache: Mutex<HashMap<Key, Arc<OnceLock<Arc<GoldenRun>>>>>,
    disk: Option<PathBuf>,
}

impl GoldenStore {
    /// Empty store (memory-only).
    pub fn new() -> GoldenStore {
        GoldenStore::default()
    }

    /// Add a persistent cache layer under `dir` (created on first save).
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> GoldenStore {
        self.disk = Some(dir.into());
        self
    }

    /// Fetch (measuring on first use) the golden run for a deployment,
    /// with the paper's default injectable mask.
    pub fn get(&self, spec: &ProblemSpec, procs: usize) -> Arc<GoldenRun> {
        self.get_masked(spec, procs, OpMask::FP_ARITH)
    }

    /// Fetch (measuring on first use) the golden run for a deployment
    /// under an explicit injectable mask.
    ///
    /// Obs accounting: `GoldenCacheHits` counts every avoided profiling
    /// run (memory or disk layer); `GoldenCacheMisses` counts only actual
    /// measurements — so a fully warm store reports zero misses.
    pub fn get_masked(&self, spec: &ProblemSpec, procs: usize, mask: OpMask) -> Arc<GoldenRun> {
        let key = (spec.cache_key(), procs, mask);
        let cell = Arc::clone(self.cache.lock().entry(key.clone()).or_default());
        let mut filled = false;
        let run = cell.get_or_init(|| {
            filled = true;
            match self.load_disk(&key, spec) {
                Some(run) => {
                    note_lookup(true);
                    obs::emit(&obs::Event::CacheLookup {
                        cache: "golden-disk",
                        hit: true,
                    });
                    Arc::new(run)
                }
                None => {
                    note_lookup(false);
                    let run = Arc::new(GoldenRun::measure_masked(spec, procs, mask));
                    self.save_disk(&key, &run);
                    run
                }
            }
        });
        if !filled {
            // A memory hit, or a wait on the caller that filled it.
            note_lookup(true);
        }
        Arc::clone(run)
    }

    /// Load and validate a disk record. Any failure — unreadable file,
    /// malformed JSON, stale version, key/shape mismatch — degrades to
    /// `None` (re-measure); a corrupt cache must never break a campaign.
    fn load_disk(&self, key: &Key, spec: &ProblemSpec) -> Option<GoldenRun> {
        let dir = self.disk.as_ref()?;
        let path = dir.join(key_file_name(key));
        let raw = std::fs::read_to_string(path).ok()?;
        let rec: GoldenRecord = serde_json::from_str(&raw).ok()?;
        if rec.version != GOLDEN_CACHE_VERSION
            || rec.key != key.0
            || rec.procs != key.1
            || rec.op_mask != key.2
            || rec.profiles.len() != key.1
        {
            return None;
        }
        Some(GoldenRun {
            spec: spec.clone(),
            procs: rec.procs,
            op_mask: rec.op_mask,
            output: rec.output,
            profiles: rec.profiles,
            wall: Duration::from_secs_f64(rec.wall_secs.max(0.0)),
        })
    }

    /// Persist a record, best-effort: atomically (see
    /// [`write_atomic`](crate::store::write_atomic)), and IO errors are
    /// swallowed (the cache is an optimization, not a durability
    /// contract).
    fn save_disk(&self, key: &Key, run: &GoldenRun) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let rec = GoldenRecord {
            version: GOLDEN_CACHE_VERSION,
            key: key.0.clone(),
            procs: run.procs,
            op_mask: run.op_mask,
            output: run.output.clone(),
            profiles: run.profiles.clone(),
            wall_secs: run.wall.as_secs_f64(),
        };
        let Ok(json) = serde_json::to_string(&rec) else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(key_file_name(key));
        let _ = crate::store::write_atomic(&path, &json);
    }

    /// Number of cached runs (memory layer).
    pub fn len(&self) -> usize {
        self.cache
            .lock()
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Record a golden-cache lookup: hit = a profiling run was avoided.
fn note_lookup(hit: bool) {
    obs::count(
        if hit {
            obs::Counter::GoldenCacheHits
        } else {
            obs::Counter::GoldenCacheMisses
        },
        1,
    );
    obs::emit(&obs::Event::CacheLookup {
        cache: "golden",
        hit,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;

    #[test]
    fn golden_run_is_reproducible() {
        let spec = App::Cg.default_spec();
        let a = GoldenRun::measure(&spec, 2);
        let b = GoldenRun::measure(&spec, 2);
        assert!(a.output.identical(&b.output));
        assert_eq!(a.profiles, b.profiles);
    }

    #[test]
    fn profiles_cover_all_ranks_and_ops() {
        let run = GoldenRun::measure(&App::Cg.default_spec(), 4);
        assert_eq!(run.profiles.len(), 4);
        assert!(
            run.injectable_total() > 10_000,
            "{}",
            run.injectable_total()
        );
        // CG's recursive-doubling combines are a small parallel-unique part.
        let share = run.unique_share();
        assert!(share > 0.0 && share < 0.05, "share = {share}");
    }

    #[test]
    fn serial_run_has_no_parallel_unique_ops() {
        let run = GoldenRun::measure(&App::Cg.default_spec(), 1);
        assert_eq!(run.injectable(Region::ParallelUnique), 0);
    }

    #[test]
    fn store_caches() {
        let store = GoldenStore::new();
        let spec = App::Lu.default_spec();
        let a = store.get(&spec, 2);
        let b = store.get(&spec, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        let _c = store.get(&spec, 4);
        assert_eq!(store.len(), 2);
    }

    /// Concurrent first lookups of one key profile it once: every
    /// caller gets the same `Arc`.
    #[test]
    fn concurrent_first_lookups_share_one_run() {
        let store = GoldenStore::new();
        let spec = App::Lu.default_spec();
        let start = std::sync::Barrier::new(8);
        let runs: Vec<Arc<GoldenRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.get(&spec, 2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(runs.iter().all(|run| Arc::ptr_eq(run, &runs[0])));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn op_cap_exceeds_fault_free_needs() {
        let run = GoldenRun::measure(&App::Mg.default_spec(), 1);
        assert!(run.op_cap() > run.profiles[0].total());
    }
}
