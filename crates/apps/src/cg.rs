//! NPB CG port: estimate the smallest eigenvalue of a random sparse
//! symmetric positive-definite matrix by inverse power iteration, solving
//! each linear system with (unpreconditioned) conjugate gradient.
//!
//! Structure mirrors NPB 3.3 CG:
//!
//! * outer power iterations, each running a fixed number of CG iterations
//!   and producing a `zeta` estimate plus a residual norm;
//! * vectors are block-distributed by row; the matvec gathers the full
//!   input vector (the 1-D analogue of NPB's 2-D exchange);
//! * global dot products use user-level recursive-doubling combines
//!   ([`crate::reduction`]), whose adds are the benchmark's small
//!   parallel-unique computation (Table 1: CG ≈ 1.6 % / 0.27 %).
//!
//! Matrix generation is untracked setup (plain `f64`): the paper's fault
//! injection focuses on the main computation loop, and setup must produce
//! bit-identical data at every scale.

use crate::blocks::{cg_step, ops, xpby};
use crate::reduction::global_dot;
use crate::util::{block_range, hash_index, hash_range};

use crate::AppOutput;
use resilim_inject::tf64::run_block;
use resilim_inject::{Arith, Block, Tf64};
use resilim_simmpi::Comm;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// CG problem parameters (a scaled-down NPB Class S).
#[derive(Debug, Clone, PartialEq)]
pub struct CgProblem {
    /// Matrix dimension.
    pub n: usize,
    /// Off-diagonal symmetric pairs generated per row.
    pub pairs_per_row: usize,
    /// Outer (power-iteration) steps.
    pub niter: usize,
    /// Inner CG iterations per outer step.
    pub cgit: usize,
    /// Diagonal shift added to the eigenvalue estimate (NPB's `shift`).
    pub shift: f64,
    /// Setup RNG seed.
    pub seed: u64,
}

impl Default for CgProblem {
    fn default() -> Self {
        CgProblem {
            n: 256,
            pairs_per_row: 5,
            niter: 3,
            cgit: 8,
            shift: 10.0,
            seed: 0x5EEDC6,
        }
    }
}

/// Sparse symmetric matrix in CSR form (plain `f64`: setup data).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Row dimension.
    pub n: usize,
    /// CSR row offsets (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices.
    pub cols: Vec<usize>,
    /// Entry values.
    pub vals: Vec<f64>,
}

impl SparseMatrix {
    /// Deterministic random symmetric diagonally-dominant matrix: the same
    /// `(n, pairs_per_row, seed)` always produces identical entries, no
    /// matter the rank count.
    pub fn generate(n: usize, pairs_per_row: usize, seed: u64) -> SparseMatrix {
        // Collect entries in triplet form, then build CSR.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for k in 0..pairs_per_row {
                let idx = (i * pairs_per_row + k) as u64;
                let mut j = hash_index(seed, idx, n);
                if j == i {
                    j = (j + 1) % n;
                }
                let v = hash_range(seed ^ 0xABCD, idx, -1.0, 1.0);
                entries[i].push((j, v));
                entries[j].push((i, v));
            }
        }
        // Diagonal dominance => SPD.
        for (i, row) in entries.iter_mut().enumerate() {
            let off_sum: f64 = row.iter().map(|(_, v)| v.abs()).sum();
            row.push((
                i,
                off_sum + 2.0 + hash_range(seed ^ 0x1234, i as u64, 0.0, 1.0),
            ));
            row.sort_by_key(|(j, _)| *j);
            // Merge duplicate columns deterministically.
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for &(j, v) in row.iter() {
                match merged.last_mut() {
                    Some((lj, lv)) if *lj == j => *lv += v,
                    _ => merged.push((j, v)),
                }
            }
            *row = merged;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for row in &entries {
            for &(j, v) in row {
                cols.push(j);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        SparseMatrix {
            n,
            row_ptr,
            cols,
            vals,
        }
    }

    /// Shared, cached variant of [`SparseMatrix::generate`].
    ///
    /// Campaigns run thousands of trials against the *same* problem, and
    /// every rank of every trial regenerates the identical matrix (~130µs
    /// for the default problem — over half a trial once the tracked hot
    /// path is fast). Generation is deterministic untracked setup, so
    /// sharing one immutable copy per `(n, pairs_per_row, seed)` key is
    /// observationally invisible. The cache is bounded: campaigns touch a
    /// handful of problem configurations, so it is cleared outright if it
    /// ever grows past `CACHE_CAP` entries.
    pub fn cached(n: usize, pairs_per_row: usize, seed: u64) -> Arc<SparseMatrix> {
        type Cache = Mutex<HashMap<(usize, usize, u64), Arc<SparseMatrix>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("matrix cache poisoned");
        if map.len() > Self::CACHE_CAP {
            map.clear();
        }
        map.entry((n, pairs_per_row, seed))
            .or_insert_with(|| Arc::new(SparseMatrix::generate(n, pairs_per_row, seed)))
            .clone()
    }

    /// Cache bound for [`SparseMatrix::cached`].
    const CACHE_CAP: usize = 16;

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Check structural symmetry (test helper; O(nnz log nnz)).
    pub fn is_symmetric(&self) -> bool {
        let mut set = std::collections::HashSet::new();
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                set.insert((i, self.cols[k], self.vals[k].to_bits()));
            }
        }
        set.iter().all(|&(i, j, v)| set.contains(&(j, i, v)))
    }
}

/// Local matvec: `w = A[rows] * x_full` over this rank's row block.
fn local_matvec(a: &SparseMatrix, rows: std::ops::Range<usize>, x_full: &[Tf64]) -> Vec<Tf64> {
    let block = Matvec { a, rows, x_full };
    if x_full.len() < a.n {
        // A length table hit on the wire (`--fault-model msg`) cuts the
        // gathered vector short: the sweep may then index past its end
        // and panic part way, so it runs op by op and counts the ops it
        // got to, as it always did.
        return block.run::<Tf64>();
    }
    run_block(block)
}

/// [`local_matvec`] as a block: one add and one mul per stored entry.
struct Matvec<'a> {
    a: &'a SparseMatrix,
    rows: std::ops::Range<usize>,
    x_full: &'a [Tf64],
}

impl Block for Matvec<'_> {
    type Output = Vec<Tf64>;
    fn ops(&self) -> [u64; 5] {
        let nnz = self.a.row_ptr[self.rows.end] - self.a.row_ptr[self.rows.start];
        ops(nnz, 0, nnz, 0, 0)
    }
    fn run<T: Arith>(self) -> Vec<Tf64> {
        let (a, x_full) = (self.a, T::view(self.x_full));
        let mut w = Vec::with_capacity(self.rows.len());
        for bounds in a.row_ptr[self.rows.start..=self.rows.end].windows(2) {
            let (cols, vals) = (&a.cols[bounds[0]..bounds[1]], &a.vals[bounds[0]..bounds[1]]);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += T::new(v) * x_full[c];
            }
            w.push(acc.to_tf64());
        }
        w
    }
}

/// Gather the full vector from block-distributed parts (the matvec
/// exchange; data movement only, no tracked arithmetic).
fn gather_full(comm: &Comm, local: &[Tf64]) -> Vec<Tf64> {
    if comm.is_serial() {
        return local.to_vec();
    }
    comm.allgather(local).into_flat()
}

/// Run the CG benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[zeta_1, …, zeta_niter, final_rnorm]`.
pub fn run(prob: &CgProblem, comm: &Comm) -> AppOutput {
    let a = SparseMatrix::cached(prob.n, prob.pairs_per_row, prob.seed);
    let rows = block_range(prob.n, comm.size(), comm.rank());
    let nl = rows.len();

    // x = all ones (NPB start vector), block-local.
    let mut x: Vec<Tf64> = vec![Tf64::ONE; nl];
    let mut digest = Vec::with_capacity(prob.niter + 1);
    let mut rnorm = Tf64::ZERO;

    for _outer in 0..prob.niter {
        // --- inner CG solve: A z = x ---
        let mut z: Vec<Tf64> = vec![Tf64::ZERO; nl];
        let mut r: Vec<Tf64> = x.clone();
        let mut p: Vec<Tf64> = r.clone();
        let mut rho = global_dot(comm, &r, &r);

        for _it in 0..prob.cgit {
            let p_full = gather_full(comm, &p);
            let q = local_matvec(&a, rows.clone(), &p_full);
            let alpha = rho / global_dot(comm, &p, &q);
            cg_step(alpha, &mut z, &mut r, &p, &q);
            let rho0 = rho;
            rho = global_dot(comm, &r, &r);
            let beta = rho / rho0;
            xpby(&r, beta, &mut p);
        }

        // Residual norm ||x - A z||.
        let z_full = gather_full(comm, &z);
        let az = local_matvec(&a, rows.clone(), &z_full);
        let diff: Vec<Tf64> = x.iter().zip(&az).map(|(&xi, &ai)| xi - ai).collect();
        rnorm = global_dot(comm, &diff, &diff).sqrt();

        // zeta and the next normalized x.
        let xz = global_dot(comm, &x, &z);
        let zeta = Tf64::new(prob.shift) + Tf64::ONE / xz;
        let znorm_inv = Tf64::ONE / global_dot(comm, &z, &z).sqrt();
        for (xi, &zi) in x.iter_mut().zip(&z) {
            *xi = zi * znorm_inv;
        }
        digest.push(zeta.value());
    }
    digest.push(rnorm.value());
    // Point samples of the final solution vector (whole-output SDC check).
    let samples = crate::util::sample_state(comm, prob.n, 16, prob.n / 16 + 1, |g| {
        rows.contains(&g).then(|| x[g - rows.start])
    });
    digest.extend(samples.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    fn run_at(p: usize, prob: CgProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        let outs: Vec<AppOutput> = results.into_iter().map(|r| r.result.unwrap()).collect();
        // All ranks report the same digest (zeta/rnorm are global values).
        for o in &outs {
            for (a, b) in o.digest.iter().zip(outs[0].digest.iter()) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0));
            }
        }
        outs.into_iter().next().unwrap()
    }

    #[test]
    fn matrix_is_symmetric_and_deterministic() {
        let a = SparseMatrix::generate(64, 4, 7);
        let b = SparseMatrix::generate(64, 4, 7);
        assert_eq!(a.vals, b.vals);
        assert_eq!(a.cols, b.cols);
        assert!(a.is_symmetric());
        assert!(a.nnz() >= 64); // at least the diagonal
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let a = SparseMatrix::generate(32, 4, 3);
        for i in 0..a.n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                if a.cols[k] == i {
                    diag = a.vals[k];
                } else {
                    off += a.vals[k].abs();
                }
            }
            assert!(diag > off, "row {i}: diag {diag} vs off {off}");
        }
    }

    #[test]
    fn cg_converges_serial() {
        let prob = CgProblem::default();
        let out = run_at(1, prob.clone());
        // Digest layout: niter zetas, rnorm, then 16 point samples.
        assert_eq!(out.digest.len(), prob.niter + 1 + 16);
        let rnorm = out.digest[prob.niter];
        assert!(rnorm.is_finite());
        assert!(rnorm < 1e-2, "CG residual should be small, got {rnorm}");
        // zeta is near the shift + smallest-eigenvalue inverse: finite, > shift.
        assert!(out.digest[0] > 10.0 && out.digest[0] < 20.0);
    }

    #[test]
    fn parallel_matches_serial_within_tolerance() {
        let serial = run_at(1, CgProblem::default());
        for p in [2usize, 4, 8] {
            let par = run_at(p, CgProblem::default());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(d < 1e-9, "p={p}: rel diff {d}");
        }
    }

    #[test]
    fn decomposes_to_many_ranks() {
        // 64 ranks over n=256 rows -> 4 rows per rank; digests still agree.
        let serial = run_at(1, CgProblem::default());
        let par = run_at(64, CgProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-9, "rel diff {d}");
    }

    #[test]
    fn a_short_gathered_vector_fails_at_the_same_op_as_per_op() {
        use resilim_inject::{ctx, RankCtx};
        let a = SparseMatrix::generate(64, 4, 7);
        // Cut short, as by a length table corrupted on the wire.
        let x = vec![Tf64::ONE; 40];
        let ops_at_panic = |watching: bool| {
            assert!(ctx::install(RankCtx::profiling(0)).is_none());
            if watching {
                // Every block is refused while watching: a per-op run.
                let _ = Tf64::from_parts(1.0, 1.0 + f64::EPSILON);
            }
            let ran = std::panic::catch_unwind(|| local_matvec(&a, 0..64, &x));
            assert!(ran.is_err());
            ctx::take().unwrap().into_report().profile
        };
        assert_eq!(ops_at_panic(false), ops_at_panic(true));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, CgProblem::default());
        let b = run_at(4, CgProblem::default());
        assert!(a.identical(&b));
    }
}
