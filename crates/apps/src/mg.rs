//! NPB MG port: V-cycle multigrid for the 3-D periodic Poisson problem.
//!
//! Weighted-Jacobi smoothing, full-weighting restriction in z with x/y
//! averaging, and trilinear-in-z prolongation, on a periodic
//! `nx × ny × nz` grid with a deep z (so the slab decomposition reaches 64
//! ranks at a small problem).
//!
//! ## Decomposition
//!
//! Every level is **z-slab distributed over an active subset of ranks**
//! (NPB MG's approach): level `l` uses `active_l = min(p, nz_l)` ranks.
//! While a rank owns ≥ 2 planes, restriction is local; when it owns a
//! single plane the active set *folds* in half (rank `2k` ships its coarse
//! plane to rank `k`), and prolongation *unfolds* it back. Halo exchanges
//! stay nearest-neighbour at every level, so error propagation is local —
//! at any scale — exactly like the original: MG has **no parallel-unique
//! computation** (Table 1: "No parallel-unique comp").

use crate::blocks::{axpy, ops};
use crate::util::hash_range;
use crate::AppOutput;
use resilim_inject::tf64::{self, run_block};
use resilim_inject::{Arith, Block, Tf64};
use resilim_simmpi::{Comm, ReduceOp};

/// MG problem parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MgProblem {
    /// Grid extent in x (power of two).
    pub nx: usize,
    /// Grid extent in y (power of two).
    pub ny: usize,
    /// Grid extent in z (power of two, distributed).
    pub nz: usize,
    /// Multigrid levels (level 0 = finest).
    pub levels: usize,
    /// V-cycles to run.
    pub cycles: usize,
    /// Jacobi smoothing steps per level per cycle.
    pub presmooth: usize,
    /// Smoothing steps at the coarsest level.
    pub coarse_smooth: usize,
    /// Jacobi damping factor.
    pub omega: f64,
    /// Setup RNG seed.
    pub seed: u64,
}

impl Default for MgProblem {
    fn default() -> Self {
        MgProblem {
            nx: 8,
            ny: 8,
            nz: 64,
            levels: 3,
            cycles: 3,
            presmooth: 2,
            coarse_smooth: 6,
            omega: 0.8,
            seed: 0x5EED316,
        }
    }
}

/// One grid level's decomposition.
#[derive(Debug, Clone)]
struct Level {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Ranks participating at this level.
    active: usize,
    /// Planes per active rank.
    w: usize,
}

impl Level {
    fn plane(&self) -> usize {
        self.nx * self.ny
    }
    fn idx(&self, z: usize, y: usize, x: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }
    /// First global plane of `rank` (callers guarantee `rank < active`).
    fn z0(&self, rank: usize) -> usize {
        rank * self.w
    }
}

/// Message tags for MG traffic (disambiguated per level).
#[allow(clippy::unusual_byte_groupings)]
const TAG_HALO_UP: u64 = 0x4D47000;
#[allow(clippy::unusual_byte_groupings)]
const TAG_HALO_DOWN: u64 = 0x4D47100;
#[allow(clippy::unusual_byte_groupings)]
const TAG_FOLD: u64 = 0x4D47200;
#[allow(clippy::unusual_byte_groupings)]
const TAG_UNFOLD: u64 = 0x4D47300;
#[allow(clippy::unusual_byte_groupings)]
const TAG_CABOVE: u64 = 0x4D47400;

/// Row `y` of a plane whose rows are `n` long.
#[inline]
fn row<T>(plane: &[T], y: usize, n: usize) -> &[T] {
    &plane[y * n..(y + 1) * n]
}

/// `rhs − (6·u − Σ nbrs)` at one point, the nbrs summed in the order
/// given (x−, x+, y−, y+, z−, z+).
#[inline(always)]
fn stencil_residual<T: Arith>(rhs: T, u: T, nbrs: [T; 6]) -> T {
    let [xm, xp, ym, yp, zb, za] = nbrs;
    let au = T::new(6.0) * u - (xm + xp + ym + yp + zb + za);
    rhs - au
}

/// The residual's stencil sweep over a rank's planes `u`, with the halo
/// planes below and above them: five adds, two subs and a mul a point.
struct Residual<'a> {
    nx: usize,
    ny: usize,
    u: &'a [Tf64],
    rhs: &'a [Tf64],
    below: &'a [Tf64],
    above: &'a [Tf64],
}

impl Block for Residual<'_> {
    type Output = Vec<Tf64>;
    fn ops(&self) -> [u64; 5] {
        let plane = self.nx * self.ny;
        let n = self.u.len().min(self.rhs.len()) / plane * plane;
        ops(5 * n, 2 * n, n, 0, 0)
    }
    fn run<T: Arith>(self) -> Vec<Tf64> {
        let (nx, ny, plane) = (self.nx, self.ny, self.nx * self.ny);
        let (u, rhs) = (T::view(self.u), T::view(self.rhs));
        let (below, above) = (T::view(self.below), T::view(self.above));
        let mut out = vec![Tf64::ZERO; u.len()];
        let local_nz = u.len() / plane;
        let planes = |z: usize| {
            let cur = &u[z * plane..(z + 1) * plane];
            let zb = if z == 0 {
                below
            } else {
                &u[(z - 1) * plane..z * plane]
            };
            let za = if z + 1 == local_nz {
                above
            } else {
                &u[(z + 1) * plane..(z + 2) * plane]
            };
            (cur, zb, za)
        };
        let out_planes = T::view_mut(&mut out)
            .chunks_exact_mut(plane)
            .zip(rhs.chunks_exact(plane));
        for (z, (out_pl, rhs_pl)) in out_planes.enumerate() {
            let (cur, zb, za) = planes(z);
            for y in 0..ny {
                let ym = if y == 0 { ny - 1 } else { y - 1 };
                let yp = if y + 1 == ny { 0 } else { y + 1 };
                let (r, rm, rp) = (row(cur, y, nx), row(cur, ym, nx), row(cur, yp, nx));
                let (b, a, h) = (row(zb, y, nx), row(za, y, nx), row(rhs_pl, y, nx));
                let o = &mut out_pl[y * nx..(y + 1) * nx];
                // Point x with its x-neighbours xm and xp; only the two
                // end points wrap (nx ≥ 2, asserted in `Mg::new`).
                let nbrs =
                    |x: usize, xm: usize, xp: usize| [r[xm], r[xp], rm[x], rp[x], b[x], a[x]];
                o[0] = stencil_residual(h[0], r[0], nbrs(0, nx - 1, 1));
                for x in 1..nx - 1 {
                    o[x] = stencil_residual(h[x], r[x], nbrs(x, x - 1, x + 1));
                }
                o[nx - 1] = stencil_residual(h[nx - 1], r[nx - 1], nbrs(nx - 1, nx - 2, 0));
            }
        }
        out
    }
}

/// Restriction's sweep: the coarse points of the even fine planes
/// `zf = start, start + 2, …` below `w`, each from its three fine planes
/// (`below` and `above` outside the rank's own): fourteen adds and six
/// muls a coarse point.
struct Restrict<'a> {
    nx: usize,
    ncx: usize,
    ncy: usize,
    w: usize,
    start: usize,
    fine: &'a [Tf64],
    below: &'a [Tf64],
    above: &'a [Tf64],
}

impl Restrict<'_> {
    fn coarse_points(&self) -> usize {
        self.w.saturating_sub(self.start).div_ceil(2) * self.ncx * self.ncy
    }
}

impl Block for Restrict<'_> {
    type Output = Vec<Tf64>;
    fn ops(&self) -> [u64; 5] {
        let n = self.coarse_points();
        ops(14 * n, 0, 6 * n, 0, 0)
    }
    fn run<T: Arith>(self) -> Vec<Tf64> {
        let (nx, w) = (self.nx, self.w as isize);
        let (fine, below, above) = (T::view(self.fine), T::view(self.below), T::view(self.above));
        let plane_f = nx * 2 * self.ncy;
        let plane = |z: isize| -> &[T] {
            if z < 0 {
                below
            } else if z >= w {
                above
            } else {
                &fine[z as usize * plane_f..(z as usize + 1) * plane_f]
            }
        };
        let quarter = T::new(0.25);
        let half = T::new(0.5);
        let mut produced = Vec::with_capacity(self.coarse_points());
        let mut zf = self.start as isize;
        while zf < w {
            let planes = [plane(zf - 1), plane(zf), plane(zf + 1)];
            for yc in 0..self.ncy {
                // The two fine rows under coarse row `yc`, in each plane.
                let y = 2 * yc;
                let rows = planes.map(|pl| (row(pl, y, nx), row(pl, y + 1, nx)));
                for xc in 0..self.ncx {
                    let x = 2 * xc;
                    let mut plane_avg = [T::ZERO; 3];
                    for (avg, (r0, r1)) in plane_avg.iter_mut().zip(rows) {
                        let mut s = T::ZERO;
                        s += r0[x];
                        s += r0[x + 1];
                        s += r1[x];
                        s += r1[x + 1];
                        *avg = s * quarter;
                    }
                    let c = quarter * plane_avg[0] + half * plane_avg[1] + quarter * plane_avg[2];
                    produced.push(c.to_tf64());
                }
            }
            zf += 2;
        }
        produced
    }
}

/// Prolongation's sweep: add to each fine plane `z0 + dz` its coarse
/// plane `c0[dz]`, or on an odd global plane the mean of `c0[dz]` and
/// `c1[dz]`: one add a point on even planes, two adds and a mul on odd.
struct Prolong<'a> {
    nx: usize,
    ncx: usize,
    fine: &'a mut [Tf64],
    c0: Vec<&'a [Tf64]>,
    c1: Vec<Option<&'a [Tf64]>>,
}

impl Block for Prolong<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let plane = self.fine.len() / self.c0.len().max(1);
        let odd = self.c1.iter().flatten().count() * plane;
        let even = self.c0.len() * plane - odd;
        ops(even + 2 * odd, 0, odd, 0, 0)
    }
    fn run<T: Arith>(self) {
        let (nx, ncx) = (self.nx, self.ncx);
        let half = T::new(0.5);
        let plane = self.fine.len() / self.c0.len().max(1);
        let fine_planes = T::view_mut(self.fine).chunks_exact_mut(plane);
        for (fine_pl, (c0, c1)) in fine_planes.zip(self.c0.into_iter().zip(self.c1)) {
            let (c0, c1) = (T::view(c0), c1.map(T::view));
            for (y, fine_row) in fine_pl.chunks_exact_mut(nx).enumerate() {
                // Fine (x, y) takes coarse (x / 2, y / 2).
                let ci = (y / 2) * ncx;
                let c0_row = &c0[ci..ci + ncx];
                let c1_row = c1.map(|c1| &c1[ci..ci + ncx]);
                for (x, f) in fine_row.iter_mut().enumerate() {
                    let xc = x / 2;
                    let corr = match c1_row {
                        None => c0_row[xc],
                        Some(c1_row) => half * (c0_row[xc] + c1_row[xc]),
                    };
                    *f += corr;
                }
            }
        }
    }
}

struct Mg<'a, 'c> {
    prob: &'a MgProblem,
    comm: &'a Comm<'c>,
    levels: Vec<Level>,
}

impl<'a, 'c> Mg<'a, 'c> {
    fn new(prob: &'a MgProblem, comm: &'a Comm<'c>) -> Self {
        let p = comm.size();
        assert!(
            prob.nz.is_multiple_of(p) || p > prob.nz,
            "MG needs p | nz (or p > nz)"
        );
        assert!(p <= prob.nz, "MG supports at most nz ranks");
        assert!(prob.nz >> (prob.levels - 1) >= 2, "too many levels for nz");
        assert!(prob.nx >> (prob.levels - 1) >= 2, "too many levels for nx");
        let mut levels = Vec::with_capacity(prob.levels);
        for l in 0..prob.levels {
            let nx = prob.nx >> l;
            let ny = prob.ny >> l;
            let nz = prob.nz >> l;
            let active = p.min(nz);
            levels.push(Level {
                nx,
                ny,
                nz,
                active,
                w: nz / active,
            });
        }
        Mg { prob, comm, levels }
    }

    fn me(&self) -> usize {
        self.comm.rank()
    }

    fn is_active(&self, l: usize) -> bool {
        self.me() < self.levels[l].active
    }

    /// Exchange z-halos among the active ranks of a level: returns
    /// (below, above) neighbour planes (periodic). Caller must be active.
    fn halo(&self, l: usize, u: &[Tf64]) -> (Vec<Tf64>, Vec<Tf64>) {
        let lev = &self.levels[l];
        let plane = lev.plane();
        if lev.active == 1 {
            // Whole level local: periodic wrap in the local array.
            let top = u[(lev.nz - 1) * plane..lev.nz * plane].to_vec();
            let bottom = u[0..plane].to_vec();
            return (top, bottom);
        }
        let me = self.me();
        let up = (me + 1) % lev.active;
        let down = (me + lev.active - 1) % lev.active;
        let my_top = &u[(lev.w - 1) * plane..lev.w * plane];
        let below = self.comm.sendrecv(up, down, TAG_HALO_UP + l as u64, my_top);
        let my_bottom = &u[0..plane];
        let above = self
            .comm
            .sendrecv(down, up, TAG_HALO_DOWN + l as u64, my_bottom);
        (below, above)
    }

    /// `out = rhs − A·u` (7-point periodic Laplacian `A·u = 6u − Σ nbrs`)
    /// on this rank's planes. Caller must be active at `l`.
    fn residual(&self, l: usize, u: &[Tf64], rhs: &[Tf64]) -> Vec<Tf64> {
        let lev = &self.levels[l];
        let (below, above) = self.halo(l, u);
        run_block(Residual {
            nx: lev.nx,
            ny: lev.ny,
            u,
            rhs,
            below: &below,
            above: &above,
        })
    }

    /// One damped-Jacobi smoothing step: `u += ω/6 · (rhs − A·u)`.
    fn smooth(&self, l: usize, u: &mut [Tf64], rhs: &[Tf64]) {
        let r = self.residual(l, u, rhs);
        axpy(u, Some(Tf64::new(self.prob.omega / 6.0)), &r);
    }

    /// Restrict a fine field to the next level: 1-2-1 full weighting in z,
    /// 2×2 averaging in x/y. Returns the coarse rhs *owned by this rank at
    /// the coarse level* (empty if the rank folds out).
    fn restrict(&self, l: usize, fine: &[Tf64]) -> Vec<Tf64> {
        let lf = &self.levels[l];
        let lc = &self.levels[l + 1];
        let (below, above) = self.halo(l, fine);
        let me = self.me();
        let folds = lc.active < lf.active;
        // Even global planes in my fine range produce coarse planes.
        let z0 = lf.z0(me);
        let produced = run_block(Restrict {
            nx: lf.nx,
            ncx: lc.nx,
            ncy: lc.ny,
            w: lf.w,
            start: if z0.is_multiple_of(2) { 0 } else { 1 },
            fine,
            below: &below,
            above: &above,
        });

        if !folds {
            // Same active set: my produced planes are exactly my coarse
            // planes (w_c = w_f / 2).
            debug_assert_eq!(produced.len(), lc.w * lc.plane());
            return produced;
        }
        // Fold: w_f == 1; even ranks produced one coarse plane, odd none.
        debug_assert_eq!(lf.w, 1);
        debug_assert_eq!(lc.active * 2, lf.active);
        if me.is_multiple_of(2) {
            let owner = me / 2;
            if owner == me {
                return produced; // rank 0 keeps plane 0
            }
            self.comm.send(owner, TAG_FOLD + l as u64, &produced);
            Vec::new()
        } else {
            Vec::new()
        }
    }

    /// Receive the folded coarse planes this rank owns after a fold
    /// transition (companion to [`Mg::restrict`]).
    fn receive_fold(&self, l: usize, mut own: Vec<Tf64>) -> Vec<Tf64> {
        let lf = &self.levels[l];
        let lc = &self.levels[l + 1];
        if lc.active >= lf.active || self.me() >= lc.active {
            return own;
        }
        // Coarse rank k owns plane k, produced by fine rank 2k.
        let producer = self.me() * 2;
        if producer != self.me() {
            own = self.comm.recv(producer, TAG_FOLD + l as u64);
        }
        debug_assert_eq!(own.len(), lc.plane());
        own
    }

    /// Prolongate the coarse correction and add it to `fine`. Handles both
    /// the same-active case (local + neighbour halo) and the unfold case.
    fn prolong_add(&self, l: usize, fine: &mut [Tf64], coarse: &[Tf64]) {
        let lf = &self.levels[l];
        let lc = &self.levels[l + 1];
        let me = self.me();
        let plane_c = lc.plane();

        // Gather the coarse planes this fine rank needs: zc(gz) for its gz
        // range, plus the wrap/odd-interp plane.
        let z0 = lf.z0(me);
        let needed: Vec<usize> = {
            let mut v = Vec::new();
            for dz in 0..lf.w {
                let gz = z0 + dz;
                let zc = gz / 2;
                if !v.contains(&zc) {
                    v.push(zc);
                }
                if gz % 2 == 1 {
                    let zc1 = (zc + 1) % lc.nz;
                    if !v.contains(&zc1) {
                        v.push(zc1);
                    }
                }
            }
            v
        };

        let folds = lc.active < lf.active;
        let mut plane_of = std::collections::HashMap::new();
        if !folds {
            // Same active set: my coarse block covers zc in
            // [me·w_c, (me+1)·w_c); the only remote plane is the next
            // block's first (periodic), fetched with a ring sendrecv.
            let wc = lc.w;
            let my_first = coarse[0..plane_c].to_vec();
            let up = (me + 1) % lc.active;
            let down = (me + lc.active - 1) % lc.active;
            let above = if lc.active > 1 {
                self.comm
                    .sendrecv(down, up, TAG_CABOVE + l as u64, &my_first)
            } else {
                my_first
            };
            for &zc in &needed {
                let local = zc.wrapping_sub(me * wc);
                if zc >= me * wc && local < wc {
                    plane_of.insert(zc, coarse[local * plane_c..(local + 1) * plane_c].to_vec());
                } else {
                    debug_assert_eq!(zc, ((me + 1) * wc) % lc.nz, "unexpected remote plane");
                    plane_of.insert(zc, above.clone());
                }
            }
        } else {
            // Unfold: coarse rank k owns plane k and pushes it to the fine
            // ranks that need it: 2k−1, 2k, 2k+1 (mod active_f).
            if me < lc.active {
                let kplane = &coarse[0..plane_c];
                let af = lf.active;
                let mut dests = vec![
                    (2 * me + af - 1) % af, // odd rank below (its zc+1)
                    2 * me,                 // even rank (its zc)
                    (2 * me + 1) % af,      // odd rank (its zc)
                ];
                dests.sort_unstable();
                dests.dedup();
                for d in dests {
                    if d != me {
                        self.comm.send(d, TAG_UNFOLD + l as u64, kplane);
                    } else {
                        plane_of.insert(me, kplane.to_vec());
                    }
                }
            }
            for &zc in &needed {
                if let std::collections::hash_map::Entry::Vacant(e) = plane_of.entry(zc) {
                    e.insert(self.comm.recv(zc, TAG_UNFOLD + l as u64));
                }
            }
        }

        let (c0, c1) = (0..lf.w)
            .map(|dz| {
                let gz = z0 + dz;
                let zc = gz / 2;
                let c1 = (gz % 2 == 1).then(|| &plane_of[&((zc + 1) % lc.nz)][..]);
                (&plane_of[&zc][..], c1)
            })
            .unzip();
        run_block(Prolong {
            nx: lf.nx,
            ncx: lc.nx,
            fine,
            c0,
            c1,
        });
    }

    /// Recursive V-cycle at level `l`; returns this rank's correction
    /// (empty for ranks inactive at `l`).
    fn vcycle(&self, l: usize, rhs: &[Tf64]) -> Vec<Tf64> {
        if !self.is_active(l) {
            return Vec::new();
        }
        let mut u = vec![Tf64::ZERO; rhs.len()];
        if l + 1 == self.levels.len() {
            for _ in 0..self.prob.coarse_smooth {
                self.smooth(l, &mut u, rhs);
            }
            return u;
        }
        for _ in 0..self.prob.presmooth {
            self.smooth(l, &mut u, rhs);
        }
        let r = self.residual(l, &u, rhs);
        let produced = self.restrict(l, &r);
        let coarse_rhs = self.receive_fold(l, produced);
        let coarse_u = self.vcycle(l + 1, &coarse_rhs);
        self.prolong_add(l, &mut u, &coarse_u);
        for _ in 0..self.prob.presmooth {
            self.smooth(l, &mut u, rhs);
        }
        u
    }

    /// Global L2 norm of a finest-level field (all ranks collective).
    fn norm(&self, v: &[Tf64]) -> Tf64 {
        let local = tf64::dot(v, v);
        self.comm.allreduce_scalar(ReduceOp::Sum, local).sqrt()
    }
}

/// Run the MG benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[‖r‖ after each V-cycle…, ‖u‖ final]`.
pub fn run(prob: &MgProblem, comm: &Comm) -> AppOutput {
    let mg = Mg::new(prob, comm);
    let lev0 = &mg.levels[0];
    assert!(
        comm.rank() < lev0.active,
        "MG level 0 must use every rank (p ≤ nz enforced in Mg::new)"
    );

    // Deterministic random RHS.
    let z0 = lev0.z0(comm.rank());
    let mut rhs = vec![Tf64::ZERO; lev0.w * lev0.plane()];
    for z in 0..lev0.w {
        let gz = z0 + z;
        for y in 0..lev0.ny {
            for x in 0..lev0.nx {
                let g = ((gz * lev0.ny + y) * lev0.nx + x) as u64;
                rhs[lev0.idx(z, y, x)] = Tf64::new(hash_range(prob.seed, g, -1.0, 1.0));
            }
        }
    }

    let mut u = vec![Tf64::ZERO; rhs.len()];
    let mut digest = Vec::with_capacity(prob.cycles + 1);
    for _cycle in 0..prob.cycles {
        let r = mg.residual(0, &u, &rhs);
        let corr = mg.vcycle(0, &r);
        axpy(&mut u, None, &corr);
        let r2 = mg.residual(0, &u, &rhs);
        digest.push(mg.norm(&r2).value());
    }
    digest.push(mg.norm(&u).value());
    // Point samples of the final field (whole-output SDC check).
    let n_total = prob.nx * prob.ny * prob.nz;
    let plane = lev0.plane();
    let samples = crate::util::sample_state(comm, n_total, 16, n_total / 16 + 1, |g| {
        let gz = g / plane;
        (gz >= z0 && gz < z0 + lev0.w).then(|| u[(gz - z0) * plane + g % plane])
    });
    digest.extend(samples.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    fn run_at(p: usize, prob: MgProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        results.into_iter().next().unwrap().result.unwrap()
    }

    fn small() -> MgProblem {
        MgProblem {
            nx: 8,
            ny: 8,
            nz: 16,
            levels: 3,
            cycles: 3,
            ..MgProblem::default()
        }
    }

    #[test]
    fn residual_decreases_over_cycles() {
        let prob = small();
        let out = run_at(1, prob.clone());
        // Digest layout: cycles residual norms, ||u||, then 16 samples.
        for w in out.digest[..prob.cycles].windows(2) {
            assert!(w[1] < w[0], "residual should shrink: {:?}", out.digest);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_at(1, small());
        for p in [2usize, 4, 8] {
            let par = run_at(p, small());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(
                d < 1e-9,
                "p={p}: rel diff {d} ({:?} vs {:?})",
                par.digest,
                serial.digest
            );
        }
    }

    #[test]
    fn fold_path_matches() {
        // p = 16 with nz = 16: every level transition folds the active set.
        let serial = run_at(1, small());
        let par = run_at(16, small());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(
            d < 1e-9,
            "rel diff {d} ({:?} vs {:?})",
            par.digest,
            serial.digest
        );
    }

    #[test]
    fn default_problem_at_64_ranks() {
        let serial = run_at(1, MgProblem::default());
        let par = run_at(64, MgProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-9, "rel diff {d}");
    }

    #[test]
    fn op_counts_not_inflated_by_scale() {
        // Active-subset coarse levels: total tracked ops at p ranks stay
        // equal to serial ops (same computation, just distributed).
        use resilim_inject::RankCtx;
        // Injectable (add/sub/mul) ops: the norm's per-rank sqrt is the
        // only redundantly executed operation and is not injectable.
        let injectable_ops = |p: usize| -> u64 {
            let world = World::new(p);
            let prob = small();
            let results = world.run_with_ctx(
                |rank| Some(RankCtx::profiling(rank)),
                move |comm| run(&prob, comm),
            );
            results
                .iter()
                .map(|r| r.ctx_report.as_ref().unwrap().profile.injectable_total())
                .sum()
        };
        let serial = injectable_ops(1);
        let par = injectable_ops(8);
        assert_eq!(serial, par, "distributed MG must not duplicate work");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, small());
        let b = run_at(4, small());
        assert!(a.identical(&b));
    }
}
