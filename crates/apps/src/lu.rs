//! NPB LU port: an SSOR-style solver whose lower/upper triangular sweeps
//! have wavefront data dependencies, parallelized with LU's signature
//! **pipelined wavefront** communication.
//!
//! The physics is reduced from LU's five-field Navier–Stokes system to a
//! scalar diffusion-like operator `A·u = u − c·Σ neighbours(u)` (Dirichlet
//! boundaries), but the resilience-relevant structure is preserved
//! exactly: each SSOR iteration computes a residual (halo exchange with
//! four neighbours), then performs a lower sweep in which cell
//! `(i, j, k)` depends on `(i−1, j, k)`, `(i, j−1, k)` and `(i, j, k−1)`,
//! and a mirrored upper sweep. With a 2-D pencil decomposition each rank
//! receives boundary lines from its north/west neighbours for every
//! k-plane, computes, and forwards to south/east — so an error injected in
//! one rank's sweep propagates downstream through the pipeline, rank by
//! rank (unlike CG's all-at-once reductions).
//!
//! LU has **no parallel-unique computation** (Table 1): the sweeps execute
//! identical arithmetic at every scale; only the message pattern differs.

use crate::util::hash_range;
use crate::AppOutput;
use resilim_inject::{tf64, Tf64};
use resilim_simmpi::{Comm, ReduceOp};

/// LU problem parameters (a scaled-down NPB Class W).
#[derive(Debug, Clone, PartialEq)]
pub struct LuProblem {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z (not decomposed; the pipeline runs over z-planes).
    pub nz: usize,
    /// SSOR iterations.
    pub niter: usize,
    /// Off-diagonal coupling (`|c| < 1/6` keeps A diagonally dominant).
    pub c: f64,
    /// Relaxation factor for the update.
    pub omega: f64,
    /// Setup RNG seed.
    pub seed: u64,
}

impl Default for LuProblem {
    fn default() -> Self {
        LuProblem {
            nx: 16,
            ny: 16,
            nz: 8,
            niter: 5,
            c: 0.125,
            omega: 1.0,
            seed: 0x5EED1C,
        }
    }
}

/// 2-D process grid: as square as possible with `px ≥ py`.
fn proc_grid(p: usize) -> (usize, usize) {
    assert!(p.is_power_of_two(), "LU needs a power-of-two rank count");
    let log = p.trailing_zeros();
    let px = 1usize << log.div_ceil(2);
    (px, p / px)
}

/// Message tags.
#[allow(clippy::unusual_byte_groupings)]
const TAG_HALO: u64 = 0x4C5500; // residual halo exchange (4 dirs)
#[allow(clippy::unusual_byte_groupings)]
const TAG_SWEEP: u64 = 0x4C5510; // pipelined sweep boundaries

struct Lu<'a, 'c> {
    prob: &'a LuProblem,
    comm: &'a Comm<'c>,
    /// Process-grid coordinates and extents.
    px: usize,
    py: usize,
    bi: usize,
    bj: usize,
    /// Local block (inclusive start, exclusive end) in x and y.
    xs: usize,
    xe: usize,
    ys: usize,
    ye: usize,
}

impl<'a, 'c> Lu<'a, 'c> {
    fn new(prob: &'a LuProblem, comm: &'a Comm<'c>) -> Self {
        let (px, py) = proc_grid(comm.size());
        assert!(
            prob.nx.is_multiple_of(px) && prob.ny.is_multiple_of(py),
            "LU needs px|nx, py|ny"
        );
        let bi = comm.rank() % px;
        let bj = comm.rank() / px;
        let bx = prob.nx / px;
        let by = prob.ny / py;
        Lu {
            prob,
            comm,
            px,
            py,
            bi,
            bj,
            xs: bi * bx,
            xe: (bi + 1) * bx,
            ys: bj * by,
            ye: (bj + 1) * by,
        }
    }

    fn lx(&self) -> usize {
        self.xe - self.xs
    }
    fn ly(&self) -> usize {
        self.ye - self.ys
    }
    /// Local index of global (x, y, z); caller guarantees ownership.
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        ((z * self.ly() + (y - self.ys)) * self.lx()) + (x - self.xs)
    }
    fn rank_of(&self, bi: usize, bj: usize) -> usize {
        bj * self.px + bi
    }

    /// Exchange x/y halos of `u` with the four neighbours; returns
    /// `[west, east, north, south]` boundary sheets (each `ly·nz` or
    /// `lx·nz` values; empty at physical boundaries, which are u = 0).
    fn halo(&self, u: &[Tf64], tag: u64) -> [Vec<Tf64>; 4] {
        let nz = self.prob.nz;
        let (lx, ly) = (self.lx(), self.ly());
        // Pack my boundary sheets (data movement).
        let col = |x: usize| -> Vec<Tf64> {
            let mut v = Vec::with_capacity(ly * nz);
            for z in 0..nz {
                for y in self.ys..self.ye {
                    v.push(u[self.idx(x, y, z)]);
                }
            }
            v
        };
        let row = |y: usize| -> Vec<Tf64> {
            let mut v = Vec::with_capacity(lx * nz);
            for z in 0..nz {
                for x in self.xs..self.xe {
                    v.push(u[self.idx(x, y, z)]);
                }
            }
            v
        };
        let mut out: [Vec<Tf64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        // West/east exchange.
        if self.bi > 0 {
            self.comm
                .send(self.rank_of(self.bi - 1, self.bj), tag, &col(self.xs));
        }
        if self.bi + 1 < self.px {
            self.comm.send(
                self.rank_of(self.bi + 1, self.bj),
                tag + 1,
                &col(self.xe - 1),
            );
        }
        if self.bi > 0 {
            out[0] = self.comm.recv(self.rank_of(self.bi - 1, self.bj), tag + 1);
        }
        if self.bi + 1 < self.px {
            out[1] = self.comm.recv(self.rank_of(self.bi + 1, self.bj), tag);
        }
        // North/south exchange.
        if self.bj > 0 {
            self.comm
                .send(self.rank_of(self.bi, self.bj - 1), tag + 2, &row(self.ys));
        }
        if self.bj + 1 < self.py {
            self.comm.send(
                self.rank_of(self.bi, self.bj + 1),
                tag + 3,
                &row(self.ye - 1),
            );
        }
        if self.bj > 0 {
            out[2] = self.comm.recv(self.rank_of(self.bi, self.bj - 1), tag + 3);
        }
        if self.bj + 1 < self.py {
            out[3] = self.comm.recv(self.rank_of(self.bi, self.bj + 1), tag + 2);
        }
        out
    }

    /// `r = f − A·u` with `A·u = u − c·Σ₆ neighbours` and u ≡ 0 outside the
    /// domain (Dirichlet).
    fn residual(&self, u: &[Tf64], f: &[Tf64]) -> Vec<Tf64> {
        let nz = self.prob.nz;
        let (lx, ly) = (self.lx(), self.ly());
        let [west, east, north, south] = self.halo(u, TAG_HALO);
        let c = Tf64::new(self.prob.c);
        let plane = lx * ly;
        let mut r = vec![Tf64::ZERO; u.len()];
        // (x, y) run over local coordinates; `i` is the local index.
        let mut i = 0;
        for z in 0..nz {
            for y in 0..ly {
                for x in 0..lx {
                    let mut nb = Tf64::ZERO;
                    // x neighbours.
                    if x > 0 {
                        nb += u[i - 1];
                    } else if self.xs > 0 {
                        nb += west[z * ly + y];
                    }
                    if x + 1 < lx {
                        nb += u[i + 1];
                    } else if self.xe < self.prob.nx {
                        nb += east[z * ly + y];
                    }
                    // y neighbours.
                    if y > 0 {
                        nb += u[i - lx];
                    } else if self.ys > 0 {
                        nb += north[z * lx + x];
                    }
                    if y + 1 < ly {
                        nb += u[i + lx];
                    } else if self.ye < self.prob.ny {
                        nb += south[z * lx + x];
                    }
                    // z neighbours (always local).
                    if z > 0 {
                        nb += u[i - plane];
                    }
                    if z + 1 < nz {
                        nb += u[i + plane];
                    }
                    r[i] = f[i] - (u[i] - c * nb);
                    i += 1;
                }
            }
        }
        r
    }

    /// Pipelined lower-triangular sweep: solve `(I − c·L)·d = r` where `L`
    /// couples to the west/north/below neighbours. For each k-plane the
    /// rank receives its west and north inflow lines, computes its block,
    /// and forwards its east/south outflow.
    #[allow(clippy::needless_range_loop)] // inflow lines are empty at a physical boundary
    fn lower_sweep(&self, r: &[Tf64]) -> Vec<Tf64> {
        let nz = self.prob.nz;
        let (lx, ly) = (self.lx(), self.ly());
        let c = Tf64::new(self.prob.c);
        let plane = lx * ly;
        let mut d = vec![Tf64::ZERO; r.len()];
        for z in 0..nz {
            let west_in: Vec<Tf64> = if self.bi > 0 {
                self.comm
                    .recv(self.rank_of(self.bi - 1, self.bj), TAG_SWEEP + z as u64 * 4)
            } else {
                Vec::new()
            };
            let north_in: Vec<Tf64> = if self.bj > 0 {
                self.comm.recv(
                    self.rank_of(self.bi, self.bj - 1),
                    TAG_SWEEP + z as u64 * 4 + 1,
                )
            } else {
                Vec::new()
            };
            // Local (x, y); `i` is the local index of (x, y, z). The west
            // neighbour d[i − 1] is the value computed just before, kept
            // in `west` rather than read back from memory.
            let mut i = z * plane;
            for y in 0..ly {
                let mut west = Tf64::ZERO;
                for x in 0..lx {
                    let mut dep = Tf64::ZERO;
                    if x > 0 {
                        dep += west;
                    } else if self.xs > 0 {
                        dep += west_in[y];
                    }
                    if y > 0 {
                        dep += d[i - lx];
                    } else if self.ys > 0 {
                        dep += north_in[x];
                    }
                    if z > 0 {
                        dep += d[i - plane];
                    }
                    west = r[i] + c * dep;
                    d[i] = west;
                    i += 1;
                }
            }
            // Forward outflow boundaries for this plane.
            if self.bi + 1 < self.px {
                let mut east_out = Vec::with_capacity(ly);
                for y in self.ys..self.ye {
                    east_out.push(d[self.idx(self.xe - 1, y, z)]);
                }
                self.comm.send(
                    self.rank_of(self.bi + 1, self.bj),
                    TAG_SWEEP + z as u64 * 4,
                    &east_out,
                );
            }
            if self.bj + 1 < self.py {
                let mut south_out = Vec::with_capacity(lx);
                for x in self.xs..self.xe {
                    south_out.push(d[self.idx(x, self.ye - 1, z)]);
                }
                self.comm.send(
                    self.rank_of(self.bi, self.bj + 1),
                    TAG_SWEEP + z as u64 * 4 + 1,
                    &south_out,
                );
            }
        }
        d
    }

    /// Mirrored upper sweep: `(I − c·U)·e = d`, dependencies to east/south/
    /// above, pipeline running from the bottom-right corner backwards.
    fn upper_sweep(&self, dstar: &[Tf64]) -> Vec<Tf64> {
        let nz = self.prob.nz;
        let (lx, ly) = (self.lx(), self.ly());
        let c = Tf64::new(self.prob.c);
        let plane = lx * ly;
        let mut e = vec![Tf64::ZERO; dstar.len()];
        for z in (0..nz).rev() {
            let east_in: Vec<Tf64> = if self.bi + 1 < self.px {
                self.comm.recv(
                    self.rank_of(self.bi + 1, self.bj),
                    TAG_SWEEP + z as u64 * 4 + 2,
                )
            } else {
                Vec::new()
            };
            let south_in: Vec<Tf64> = if self.bj + 1 < self.py {
                self.comm.recv(
                    self.rank_of(self.bi, self.bj + 1),
                    TAG_SWEEP + z as u64 * 4 + 3,
                )
            } else {
                Vec::new()
            };
            // Local (x, y), walked backwards; `i` is the local index. The
            // east neighbour e[i + 1] is the value computed just before.
            for y in (0..ly).rev() {
                let mut east = Tf64::ZERO;
                for x in (0..lx).rev() {
                    let i = (z * ly + y) * lx + x;
                    let mut dep = Tf64::ZERO;
                    if x + 1 < lx {
                        dep += east;
                    } else if self.xe < self.prob.nx {
                        dep += east_in[y];
                    }
                    if y + 1 < ly {
                        dep += e[i + lx];
                    } else if self.ye < self.prob.ny {
                        dep += south_in[x];
                    }
                    if z + 1 < nz {
                        dep += e[i + plane];
                    }
                    east = dstar[i] + c * dep;
                    e[i] = east;
                }
            }
            if self.bi > 0 {
                let mut west_out = Vec::with_capacity(ly);
                for y in self.ys..self.ye {
                    west_out.push(e[self.idx(self.xs, y, z)]);
                }
                self.comm.send(
                    self.rank_of(self.bi - 1, self.bj),
                    TAG_SWEEP + z as u64 * 4 + 2,
                    &west_out,
                );
            }
            if self.bj > 0 {
                let mut north_out = Vec::with_capacity(lx);
                for x in self.xs..self.xe {
                    north_out.push(e[self.idx(x, self.ys, z)]);
                }
                self.comm.send(
                    self.rank_of(self.bi, self.bj - 1),
                    TAG_SWEEP + z as u64 * 4 + 3,
                    &north_out,
                );
            }
        }
        e
    }
}

/// Run the LU benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[‖r‖ per iteration…, ‖u‖ final]`.
pub fn run(prob: &LuProblem, comm: &Comm) -> AppOutput {
    let lu = Lu::new(prob, comm);
    let nloc = lu.lx() * lu.ly() * prob.nz;

    // Deterministic RHS (global-index hashed).
    let mut f = vec![Tf64::ZERO; nloc];
    for z in 0..prob.nz {
        for y in lu.ys..lu.ye {
            for x in lu.xs..lu.xe {
                let g = ((z * prob.ny + y) * prob.nx + x) as u64;
                f[lu.idx(x, y, z)] = Tf64::new(hash_range(prob.seed, g, -1.0, 1.0));
            }
        }
    }

    let mut u = vec![Tf64::ZERO; nloc];
    let omega = Tf64::new(prob.omega);
    let mut digest = Vec::with_capacity(prob.niter + 1);
    for _iter in 0..prob.niter {
        let r = lu.residual(&u, &f);
        let rnorm2 = comm.allreduce_scalar(ReduceOp::Sum, tf64::dot(&r, &r));
        digest.push(rnorm2.sqrt().value());
        let dstar = lu.lower_sweep(&r);
        let e = lu.upper_sweep(&dstar);
        for (ui, ei) in u.iter_mut().zip(e) {
            *ui += omega * ei;
        }
    }
    let unorm2 = comm.allreduce_scalar(ReduceOp::Sum, tf64::dot(&u, &u));
    digest.push(unorm2.sqrt().value());
    // Point samples of the final field (whole-output SDC check).
    let n_total = prob.nx * prob.ny * prob.nz;
    let samples = crate::util::sample_state(comm, n_total, 16, n_total / 16 + 1, |g| {
        let x = g % prob.nx;
        let y = (g / prob.nx) % prob.ny;
        let z = g / (prob.nx * prob.ny);
        (x >= lu.xs && x < lu.xe && y >= lu.ys && y < lu.ye).then(|| u[lu.idx(x, y, z)])
    });
    digest.extend(samples.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    fn run_at(p: usize, prob: LuProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        results.into_iter().next().unwrap().result.unwrap()
    }

    #[test]
    fn proc_grid_shapes() {
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(2), (2, 1));
        assert_eq!(proc_grid(4), (2, 2));
        assert_eq!(proc_grid(8), (4, 2));
        assert_eq!(proc_grid(64), (8, 8));
    }

    #[test]
    fn residual_shrinks_serial() {
        let prob = LuProblem::default();
        let out = run_at(1, prob.clone());
        // Digest layout: niter residual norms, ||u||, then 16 samples.
        let norms = &out.digest[..prob.niter];
        for w in norms.windows(2) {
            assert!(w[1] < w[0], "SSOR should converge: {:?}", norms);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_at(1, LuProblem::default());
        for p in [2usize, 4, 8, 16] {
            let par = run_at(p, LuProblem::default());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(d < 1e-9, "p={p}: rel diff {d}");
        }
    }

    #[test]
    fn full_64_rank_decomposition() {
        let serial = run_at(1, LuProblem::default());
        let par = run_at(64, LuProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-9, "rel diff {d}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, LuProblem::default());
        let b = run_at(4, LuProblem::default());
        assert!(a.identical(&b));
    }
}
