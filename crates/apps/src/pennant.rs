//! PENNANT port: staggered-grid compressible Lagrangian hydrodynamics on
//! a 2-D quadrilateral mesh, running a Leblanc/Sod-style shock tube.
//!
//! The cycle structure follows PENNANT's hydro driver:
//!
//! 1. **dt control** — CFL limit per zone, global minimum via an MPI
//!    min-reduction; like the original, a non-positive or non-finite dt
//!    aborts the run (`panic` → the harness classifies a crash).
//! 2. **corner forces** — zone volume (shoelace), density, gamma-law EOS
//!    pressure, and per-corner pressure forces; forces and masses at
//!    points on the rank boundary receive contributions from zones on
//!    both sides, exchanged point-to-point with the neighbour ranks
//!    (PENNANT's point-sum exchange). The adds mirror serial corner
//!    accumulation, so they are common computation — PENNANT has **no
//!    parallel-unique computation** (Table 1).
//! 3. **point update** — acceleration, velocity, position (with reflecting
//!    wall boundary conditions).
//! 4. **energy update** — pdV work per zone.
//!
//! An inverted (non-positive volume) zone aborts the run, exactly like
//! PENNANT's "zone volume went negative" error — this is the
//! application-level crash path that fault injection can trigger.

use crate::blocks::ops;
use crate::AppOutput;
use resilim_inject::tf64::run_block;
use resilim_inject::{Arith, Block, Tf64};
use resilim_simmpi::{Comm, ReduceOp};

/// PENNANT problem parameters: an `nzx × nzy` zone strip, shock along x.
#[derive(Debug, Clone, PartialEq)]
pub struct PennantProblem {
    /// Zones along x (the decomposed dimension).
    pub nzx: usize,
    /// Zones along y.
    pub nzy: usize,
    /// Hydro cycles to run.
    pub cycles: usize,
    /// CFL factor for dt control.
    pub cfl: f64,
    /// Maximum dt.
    pub dtmax: f64,
    /// Adiabatic index.
    pub gamma: f64,
}

impl Default for PennantProblem {
    fn default() -> Self {
        PennantProblem {
            nzx: 64,
            nzy: 2,
            cycles: 25,
            cfl: 0.3,
            dtmax: 0.05,
            gamma: 5.0 / 3.0,
        }
    }
}

#[allow(clippy::unusual_byte_groupings)]
const TAG_PSUM: u64 = 0x504E00;

/// Per-rank mesh slab: zone columns `[zx0, zx1)`, point columns
/// `[zx0, zx1]` (the shared boundary columns are replicated).
struct Mesh {
    nzy: usize,
    zx0: usize,
    zx1: usize,
    /// Point coordinates, `(lpx) × (nzy+1)`, x-major columns.
    px: Vec<Tf64>,
    py: Vec<Tf64>,
    /// Point velocities.
    pu: Vec<Tf64>,
    pv: Vec<Tf64>,
    /// Zone mass (constant in Lagrangian hydro) and specific energy.
    zm: Vec<Tf64>,
    ze: Vec<Tf64>,
    /// Zone volume from the previous force computation.
    zvol: Vec<Tf64>,
}

impl Mesh {
    fn pidx(&self, i: usize, j: usize) -> usize {
        (i - self.zx0) * (self.nzy + 1) + j
    }
    fn zidx(&self, i: usize, j: usize) -> usize {
        (i - self.zx0) * self.nzy + j
    }
    /// Corner points of zone (i, j), counter-clockwise.
    fn zone_points(&self, i: usize, j: usize) -> [usize; 4] {
        [
            self.pidx(i, j),
            self.pidx(i + 1, j),
            self.pidx(i + 1, j + 1),
            self.pidx(i, j + 1),
        ]
    }
}

fn build_mesh(prob: &PennantProblem, comm: &Comm) -> Mesh {
    let p = comm.size();
    assert!(prob.nzx.is_multiple_of(p), "PENNANT needs p | nzx");
    let per = prob.nzx / p;
    let zx0 = comm.rank() * per;
    let zx1 = zx0 + per;
    let npts = (per + 1) * (prob.nzy + 1);
    let nzones = per * prob.nzy;

    let mut mesh = Mesh {
        nzy: prob.nzy,
        zx0,
        zx1,
        px: Vec::with_capacity(npts),
        py: Vec::with_capacity(npts),
        pu: vec![Tf64::ZERO; npts],
        pv: vec![Tf64::ZERO; npts],
        zm: Vec::with_capacity(nzones),
        ze: Vec::with_capacity(nzones),
        zvol: vec![Tf64::ZERO; nzones],
    };
    // Unit-cell lattice, shock interface at x = nzx/2.
    for i in zx0..=zx1 {
        for j in 0..=prob.nzy {
            mesh.px.push(Tf64::new(i as f64));
            mesh.py.push(Tf64::new(j as f64));
        }
    }
    // Sod-style initial state: (ρ, e) = (1, 2.5) left, (0.125, 2.0) right.
    for i in zx0..zx1 {
        for j in 0..prob.nzy {
            let left = (i as f64) < prob.nzx as f64 / 2.0;
            let (rho, e) = if left { (1.0, 2.5) } else { (0.125, 2.0) };
            mesh.zm.push(Tf64::new(rho)); // unit cell volume => m = ρ
            mesh.ze.push(Tf64::new(e));
            let _ = j;
        }
    }
    mesh
}

/// Shoelace area of a quad (tracked; panics on inversion like PENNANT).
fn quad_area(x: [Tf64; 4], y: [Tf64; 4]) -> Tf64 {
    let two = Tf64::new(0.5);
    let mut s = Tf64::ZERO;
    for k in 0..4 {
        let k2 = (k + 1) % 4;
        s += x[k] * y[k2] - x[k2] * y[k];
    }
    let area = s * two;
    // `!(x > 0)` deliberately catches NaN as well as non-positive values.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(area.value() > 0.0) {
        panic!("pennant: zone volume went non-positive ({})", area.value());
    }
    area
}

/// Exchange and fold boundary-point partial sums with the x-neighbours.
/// `fields` are per-point arrays; partial sums for the shared point
/// columns are added together so both owners end with the full sum.
fn point_sum_exchange(comm: &Comm, mesh: &Mesh, fields: &mut [&mut Vec<Tf64>], tag: u64) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    let me = comm.rank();
    let nj = mesh.nzy + 1;
    // Pack my partial sums for the left and right shared columns.
    let pack = |fields: &[&mut Vec<Tf64>], i: usize, mesh: &Mesh| -> Vec<Tf64> {
        let mut buf = Vec::with_capacity(fields.len() * nj);
        for f in fields {
            for j in 0..nj {
                buf.push(f[mesh.pidx(i, j)]);
            }
        }
        buf
    };
    if me > 0 {
        let buf = pack(fields, mesh.zx0, mesh);
        comm.send(me - 1, tag, &buf);
    }
    if me + 1 < p {
        let buf = pack(fields, mesh.zx1, mesh);
        comm.send(me + 1, tag + 1, &buf);
    }
    if me > 0 {
        let buf = comm.recv(me - 1, tag + 1);
        for (fi, f) in fields.iter_mut().enumerate() {
            for j in 0..nj {
                let idx = mesh.pidx(mesh.zx0, j);
                f[idx] += buf[fi * nj + j];
            }
        }
    }
    if me + 1 < p {
        let buf = comm.recv(me + 1, tag);
        for (fi, f) in fields.iter_mut().enumerate() {
            for j in 0..nj {
                let idx = mesh.pidx(mesh.zx1, j);
                f[idx] += buf[fi * nj + j];
            }
        }
    }
}

/// The corner forces: on each corner point `k` of each zone,
/// `p_z/2 · (r_{k+1} − r_{k−1})` rotated by −90° (the standard compatible
/// discretization normal) — an add, three subs and four muls a corner.
struct CornerForces<'a> {
    mesh: &'a Mesh,
    zp: &'a [Tf64],
    fx: &'a mut [Tf64],
    fy: &'a mut [Tf64],
}

impl Block for CornerForces<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let corners = 4 * self.mesh.zm.len();
        ops(corners, 3 * corners, 4 * corners, 0, 0)
    }
    fn run<T: Arith>(self) {
        let mesh = self.mesh;
        let (px, py, zp) = (T::view(&mesh.px), T::view(&mesh.py), T::view(self.zp));
        let (fx, fy) = (T::view_mut(self.fx), T::view_mut(self.fy));
        let half = T::new(0.5);
        for i in mesh.zx0..mesh.zx1 {
            for j in 0..mesh.nzy {
                let z = mesh.zidx(i, j);
                let pts = mesh.zone_points(i, j);
                for k in 0..4 {
                    let prev = pts[(k + 3) % 4];
                    let next = pts[(k + 1) % 4];
                    let dx = px[next] - px[prev];
                    let dy = py[next] - py[prev];
                    fx[pts[k]] += zp[z] * half * dy;
                    fy[pts[k]] -= zp[z] * half * dx;
                }
            }
        }
    }
}

/// The point update: acceleration from the summed forces `f` (x, y),
/// velocity (zeroed across the reflecting walls of the `nzx`-zone box),
/// position — two divs, four muls and four adds a point.
struct PointUpdate<'a> {
    mesh: &'a mut Mesh,
    nzx: usize,
    f: [&'a [Tf64]; 2],
    pmass: &'a [Tf64],
    dt: Tf64,
}

impl Block for PointUpdate<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let n = self.mesh.px.len();
        ops(4 * n, 0, 4 * n, 2 * n, 0)
    }
    fn run<T: Arith>(self) {
        let mesh = self.mesh;
        let (nzy, zx0, zx1) = (mesh.nzy, mesh.zx0, mesh.zx1);
        let [fx, fy] = self.f.map(T::view);
        let (pmass, dt) = (T::view(self.pmass), T::from_tf64(self.dt));
        let (pu, pv) = (T::view_mut(&mut mesh.pu), T::view_mut(&mut mesh.pv));
        let (px, py) = (T::view_mut(&mut mesh.px), T::view_mut(&mut mesh.py));
        for i in zx0..=zx1 {
            for j in 0..=nzy {
                let pp = (i - zx0) * (nzy + 1) + j;
                let ax = fx[pp] / pmass[pp];
                let ay = fy[pp] / pmass[pp];
                pu[pp] += ax * dt;
                pv[pp] += ay * dt;
                if i == 0 || i == self.nzx {
                    pu[pp] = T::ZERO; // reflecting x walls
                }
                if j == 0 || j == nzy {
                    pv[pp] = T::ZERO; // reflecting y walls
                }
                px[pp] += pu[pp] * dt;
                py[pp] += pv[pp] * dt;
            }
        }
    }
}

/// The digest's sums: internal energy over the zones, and kinetic energy
/// and Σ x over the point columns from `i_lo` (shared boundary points
/// would be double counted, so interior-only + the globally-deduplicated
/// left column).
struct Energies<'a> {
    mesh: &'a Mesh,
    pmass: &'a [Tf64],
    i_lo: usize,
}

impl Block for Energies<'_> {
    type Output = [Tf64; 3];
    fn ops(&self) -> [u64; 5] {
        let zones = self.mesh.zm.len();
        let points = (self.mesh.zx1 + 1 - self.i_lo) * (self.mesh.nzy + 1);
        ops(zones + 3 * points, 0, zones + 4 * points, 0, 0)
    }
    fn run<T: Arith>(self) -> [Tf64; 3] {
        let mesh = self.mesh;
        let (zm, ze) = (T::view(&mesh.zm), T::view(&mesh.ze));
        let (pu, pv, px) = (T::view(&mesh.pu), T::view(&mesh.pv), T::view(&mesh.px));
        let pmass = T::view(self.pmass);
        let mut e_int = T::ZERO;
        for (&m, &e) in zm.iter().zip(ze) {
            e_int += m * e;
        }
        let mut e_kin = T::ZERO;
        let mut x_sum = T::ZERO;
        let half = T::new(0.5);
        for i in self.i_lo..=mesh.zx1 {
            for j in 0..=mesh.nzy {
                let pp = mesh.pidx(i, j);
                let v2 = pu[pp] * pu[pp] + pv[pp] * pv[pp];
                e_kin += half * pmass[pp] * v2;
                x_sum += px[pp];
            }
        }
        [e_int, e_kin, x_sum].map(T::to_tf64)
    }
}

/// Run the PENNANT benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[total energy, max density, Σ point x, final dt]`.
pub fn run(prob: &PennantProblem, comm: &Comm) -> AppOutput {
    let mut mesh = build_mesh(prob, comm);
    let npts = mesh.px.len();
    let nzones = mesh.zm.len();
    let gamma = Tf64::new(prob.gamma);
    let gm1 = Tf64::new(prob.gamma - 1.0);

    // Point masses: quarter of each adjacent zone's mass, with the
    // boundary-point exchange folding in the neighbour slab's quarter.
    let mut pmass = vec![Tf64::ZERO; npts];
    let quarter = Tf64::new(0.25);
    for i in mesh.zx0..mesh.zx1 {
        for j in 0..prob.nzy {
            let m4 = mesh.zm[mesh.zidx(i, j)] * quarter;
            for pp in mesh.zone_points(i, j) {
                pmass[pp] += m4;
            }
        }
    }
    point_sum_exchange(comm, &mesh, &mut [&mut pmass], TAG_PSUM + 100);

    let mut digest_dt = 0.0;
    for cycle in 0..prob.cycles {
        // --- zone state: volume, density, pressure, sound speed ---
        let mut zp = vec![Tf64::ZERO; nzones];
        let mut zrho = vec![Tf64::ZERO; nzones];
        let mut dt_limit = Tf64::new(prob.dtmax);
        for i in mesh.zx0..mesh.zx1 {
            for j in 0..prob.nzy {
                let z = mesh.zidx(i, j);
                let pts = mesh.zone_points(i, j);
                let xs = pts.map(|pp| mesh.px[pp]);
                let ys = pts.map(|pp| mesh.py[pp]);
                let vol = quad_area(xs, ys);
                mesh.zvol[z] = vol;
                let rho = mesh.zm[z] / vol;
                let e = mesh.ze[z];
                #[allow(clippy::neg_cmp_op_on_partial_ord)] // catches NaN too
                if !(e.value() >= 0.0) {
                    panic!("pennant: negative specific energy ({})", e.value());
                }
                let p_z = gm1 * rho * e;
                let cs = (gamma * p_z / rho).sqrt();
                zrho[z] = rho;
                zp[z] = p_z;
                // CFL: zone extent / signal speed (unit-cell dx ~ min edge).
                let dx = (xs[1] - xs[0]).abs().min((ys[3] - ys[0]).abs());
                let umax = pts
                    .iter()
                    .fold(Tf64::ZERO, |acc, &pp| acc.max(mesh.pu[pp].abs()));
                let limit = Tf64::new(prob.cfl) * dx / (cs + umax + 1e-12);
                dt_limit = dt_limit.min(limit);
            }
        }
        let dt = comm.allreduce_scalar(ReduceOp::Min, dt_limit.min(Tf64::new(prob.dtmax)));
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // catches NaN too
        if !(dt.value() > 0.0) {
            panic!("pennant: dt driver underflow ({})", dt.value());
        }
        digest_dt = dt.value();

        // --- corner forces: F = Σ p_z · (outward corner normal) ---
        let mut fx = vec![Tf64::ZERO; npts];
        let mut fy = vec![Tf64::ZERO; npts];
        run_block(CornerForces {
            mesh: &mesh,
            zp: &zp,
            fx: &mut fx,
            fy: &mut fy,
        });
        point_sum_exchange(
            comm,
            &mesh,
            &mut [&mut fx, &mut fy],
            TAG_PSUM + cycle as u64 * 4,
        );

        // --- point update (reflecting walls at the domain box) ---
        run_block(PointUpdate {
            mesh: &mut mesh,
            nzx: prob.nzx,
            f: [&fx, &fy],
            pmass: &pmass,
            dt,
        });

        // --- zone energy update: de = −p·dV / m ---
        for i in mesh.zx0..mesh.zx1 {
            for j in 0..prob.nzy {
                let z = mesh.zidx(i, j);
                let pts = mesh.zone_points(i, j);
                let xs = pts.map(|pp| mesh.px[pp]);
                let ys = pts.map(|pp| mesh.py[pp]);
                let newvol = quad_area(xs, ys);
                let dv = newvol - mesh.zvol[z];
                mesh.ze[z] -= zp[z] * dv / mesh.zm[z];
            }
        }
    }

    // --- digest: conserved/diagnostic quantities ---
    // Internal energy + kinetic energy (kinetic from point masses; shared
    // boundary points would be double counted, so interior-only + the
    // globally-deduplicated left column).
    let i_lo = if comm.rank() == 0 {
        mesh.zx0
    } else {
        mesh.zx0 + 1
    };
    let [e_int, e_kin, x_sum] = run_block(Energies {
        mesh: &mesh,
        pmass: &pmass,
        i_lo,
    });
    let mut rho_max = Tf64::ZERO;
    for i in mesh.zx0..mesh.zx1 {
        for j in 0..prob.nzy {
            let z = mesh.zidx(i, j);
            rho_max = rho_max.max(mesh.zm[z] / mesh.zvol[z]);
        }
    }
    let sums = comm.allreduce(ReduceOp::Sum, &[e_int + e_kin, x_sum]);
    let rho_max = comm.allreduce_scalar(ReduceOp::Max, rho_max);
    let mut digest = vec![sums[0].value(), rho_max.value(), sums[1].value(), digest_dt];
    // Point samples of positions and zone energies (whole-output check).
    // A point column is owned by the rank whose zone slab starts there
    // (shared replicas agree in a fault-free run).
    let per = prob.nzx / comm.size();
    let npts_total = (prob.nzx + 1) * (prob.nzy + 1);
    let pos = crate::util::sample_state(comm, npts_total, 8, npts_total / 8 + 1, |g| {
        let i = g / (prob.nzy + 1);
        let owner = (i / per).min(comm.size() - 1);
        (owner == comm.rank()).then(|| mesh.px[mesh.pidx(i, g % (prob.nzy + 1))])
    });
    digest.extend(pos.iter().map(|v| v.value()));
    let nz_total = prob.nzx * prob.nzy;
    let zes = crate::util::sample_state(comm, nz_total, 8, nz_total / 8 + 1, |g| {
        let i = g / prob.nzy;
        (i >= mesh.zx0 && i < mesh.zx1).then(|| mesh.ze[mesh.zidx(i, g % prob.nzy)])
    });
    digest.extend(zes.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    fn run_at(p: usize, prob: PennantProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        results.into_iter().next().unwrap().result.unwrap()
    }

    fn small() -> PennantProblem {
        PennantProblem {
            nzx: 16,
            nzy: 2,
            cycles: 12,
            ..PennantProblem::default()
        }
    }

    #[test]
    fn shock_tube_runs_and_is_finite() {
        let out = run_at(1, small());
        assert!(out.digest.iter().all(|d| d.is_finite()), "{:?}", out.digest);
        // Density must stay positive and bounded by a few times the left state.
        assert!(out.digest[1] > 0.1 && out.digest[1] < 10.0);
        // dt must have been limited below dtmax by the CFL condition.
        assert!(out.digest[3] <= 0.05);
    }

    #[test]
    fn energy_approximately_conserved() {
        let prob = small();
        let out = run_at(1, prob.clone());
        // Initial total energy: Σ m·e (all zones, unit volumes, at rest).
        let half_zones = (prob.nzx / 2 * prob.nzy) as f64;
        let e0 = half_zones * (1.0 * 2.5) + half_zones * (0.125 * 2.0);
        let drift = (out.digest[0] - e0).abs() / e0;
        // Explicit staggered schemes drift slightly; the point is order of
        // magnitude conservation, not exactness.
        assert!(
            drift < 0.05,
            "energy drift {drift} (E = {} vs {e0})",
            out.digest[0]
        );
    }

    #[test]
    fn shock_moves_points_rightward() {
        let prob = small();
        let out = run_at(1, prob.clone());
        // Initial Σx over all points.
        let x0: f64 = (0..=prob.nzx)
            .map(|i| (i as f64) * (prob.nzy + 1) as f64)
            .sum();
        assert!(
            out.digest[2] > x0,
            "interface should move right: {} vs {x0}",
            out.digest[2]
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_at(1, small());
        for p in [2usize, 4, 8] {
            let par = run_at(p, small());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(d < 1e-9, "p={p}: rel diff {d}");
        }
    }

    #[test]
    fn default_problem_at_64_ranks() {
        let serial = run_at(1, PennantProblem::default());
        let par = run_at(64, PennantProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-9, "rel diff {d}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, small());
        let b = run_at(4, small());
        assert!(a.identical(&b));
    }
}
