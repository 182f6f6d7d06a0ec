//! MiniFE port: the implicit finite-element proxy application — assemble a
//! sparse stiffness system from a 3-D hex mesh, apply Dirichlet boundary
//! conditions, and solve with conjugate gradient.
//!
//! Matches MiniFE's phases and communication:
//!
//! * **assembly** — each rank assembles the trilinear-hex Laplacian element
//!   stiffness (exact closed form on the unit cube) for its z-slab of
//!   elements; contributions to interface rows owned by the neighbour rank
//!   are shipped over and added there, just like MiniFE's
//!   `exchange_externals` of partially summed rows. Those adds happen in
//!   serial assembly too, so they are common computation.
//! * **CG solve** — fixed iteration count; the matvec halo-exchanges the
//!   neighbour node planes; dot products use user-level recursive-doubling
//!   combines ([`crate::reduction`]), whose adds are MiniFE's small
//!   parallel-unique computation (Table 1: 1.54 % / 0.68 %).
//!
//! The solution field is a hot plate: `u = 0` at `z = 0`, `u = 1` at
//! `z = top`, so correctness is physically checkable (monotone profile).

use crate::blocks::{cg_step, ops, xpby};
use crate::reduction::{global_dot, rd_allreduce_scalar};
use crate::AppOutput;
use resilim_inject::tf64::run_block;
use resilim_inject::{Arith, Block, Tf64};
use resilim_simmpi::Comm;

/// MiniFE problem parameters (`nx × ny × nz` elements, deep z).
#[derive(Debug, Clone, PartialEq)]
pub struct MiniFeProblem {
    /// Elements in x.
    pub nx: usize,
    /// Elements in y.
    pub ny: usize,
    /// Elements in z (the decomposed dimension).
    pub nz: usize,
    /// CG iterations (fixed count, MiniFE-style `max_iters`).
    pub cg_iters: usize,
}

impl Default for MiniFeProblem {
    fn default() -> Self {
        MiniFeProblem {
            nx: 3,
            ny: 3,
            nz: 64,
            cg_iters: 12,
        }
    }
}

/// Exact trilinear-hex Laplacian element stiffness on the unit cube:
/// `K[a][b]` depends only on how many coordinates differ between corners
/// `a` and `b` (0 → 1/3, 1 → 0, 2 → −1/12, 3 → −1/12).
fn element_stiffness(a: usize, b: usize) -> f64 {
    match (a ^ b).count_ones() {
        0 => 1.0 / 3.0,
        1 => 0.0,
        _ => -1.0 / 12.0,
    }
}

/// Corner offsets of a hex element: bit 0 = x, bit 1 = y, bit 2 = z.
fn corner(c: usize) -> (usize, usize, usize) {
    (c & 1, (c >> 1) & 1, (c >> 2) & 1)
}

#[allow(clippy::unusual_byte_groupings)]
const TAG_ASM: u64 = 0x4D4600;
#[allow(clippy::unusual_byte_groupings)]
const TAG_HALO: u64 = 0x4D4610;

struct MiniFe<'a, 'c> {
    prob: &'a MiniFeProblem,
    comm: &'a Comm<'c>,
    /// Node grid extents.
    nnx: usize,
    nny: usize,
    nnz: usize,
    /// Owned element z-range.
    ez0: usize,
    ez1: usize,
    /// Owned node z-layer range (layer z belongs to the rank owning
    /// element layer z, except the top layer, owned by the last rank).
    nz0: usize,
    nz1: usize,
}

impl<'a, 'c> MiniFe<'a, 'c> {
    fn new(prob: &'a MiniFeProblem, comm: &'a Comm<'c>) -> Self {
        let p = comm.size();
        assert!(
            prob.nz.is_multiple_of(p),
            "MiniFE needs p | nz (element layers)"
        );
        let per = prob.nz / p;
        let ez0 = comm.rank() * per;
        let ez1 = ez0 + per;
        let nz0 = ez0;
        let nz1 = if comm.rank() + 1 == p { ez1 + 1 } else { ez1 };
        MiniFe {
            prob,
            comm,
            nnx: prob.nx + 1,
            nny: prob.ny + 1,
            nnz: prob.nz + 1,
            ez0,
            ez1,
            nz0,
            nz1,
        }
    }

    fn plane(&self) -> usize {
        self.nnx * self.nny
    }
    fn node_id(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.nny + y) * self.nnx + x
    }
    /// Which rank owns node layer `z`.
    fn layer_owner(&self, z: usize) -> usize {
        let per = self.prob.nz / self.comm.size();
        (z.min(self.prob.nz - 1)) / per
    }
    fn owns_layer(&self, z: usize) -> bool {
        z >= self.nz0 && z < self.nz1
    }
    fn is_dirichlet(&self, z: usize) -> bool {
        z == 0 || z == self.nnz - 1
    }

    /// Grid coordinates `(x, y, z)` of node `g`.
    fn node_coords(&self, g: usize) -> (usize, usize, usize) {
        let (z, in_plane) = (g / self.plane(), g % self.plane());
        (in_plane % self.nnx, in_plane / self.nnx, z)
    }

    /// Offset of each stencil place's column from the row's node id,
    /// shifted up by place 13's (the row itself), so it stays unsigned:
    /// column = row + `offsets[slot]` − `offsets[13]`.
    fn stencil_offsets(&self) -> [usize; 27] {
        std::array::from_fn(|slot| (slot / 9) * self.plane() + (slot / 3 % 3) * self.nnx + slot % 3)
    }

    /// Assemble the local rows into a [`StencilMatrix`] over the
    /// halo-extended vector, and the rhs.
    fn assemble(&self) -> (StencilMatrix, Vec<Tf64>) {
        let plane = self.plane();
        let nrows = (self.nz1 - self.nz0) * plane;
        // One block per node layer: a single block of every row (≈ 0.5 MB
        // serially) is an allocation the allocator maps on the first trial
        // and then keeps resident in each worker's heap.
        let mut rows = vec![vec![StencilRow::EMPTY; plane]; self.nz1 - self.nz0];
        let mut rhs = vec![Tf64::ZERO; nrows];
        // Contributions to rows owned by neighbours, flattened as
        // (row, col, value) triplets per destination.
        let p = self.comm.size();
        let mut export: Vec<Vec<(usize, usize, Tf64)>> = vec![Vec::new(); p];
        let offsets = self.stencil_offsets();
        let mut in_halo = true;

        for ez in self.ez0..self.ez1 {
            for ey in 0..self.prob.ny {
                for ex in 0..self.prob.nx {
                    for a in 0..8 {
                        let (ax, ay, az) = corner(a);
                        let (gx, gy, gz) = (ex + ax, ey + ay, ez + az);
                        let gr = self.node_id(gx, gy, gz);
                        for b in 0..8 {
                            let (bx, by, bz) = corner(b);
                            let k = element_stiffness(a, b);
                            if k == 0.0 {
                                continue;
                            }
                            if self.owns_layer(gz) {
                                let slot = stencil_slot((gx, gy, gz), (ex + bx, ey + by, ez + bz));
                                rows[gz - self.nz0][gy * self.nnx + gx].add(slot, Tf64::new(k));
                            } else {
                                let gc = self.node_id(ex + bx, ey + by, ez + bz);
                                export[self.layer_owner(gz)].push((gr, gc, Tf64::new(k)));
                            }
                        }
                    }
                }
            }
        }

        // Ship exported partial contributions to the owning neighbour and
        // fold them in (the adds mirror serial assembly's accumulation).
        // Element layer `ez` touches node layers `ez` and `ez + 1`, so the
        // only possible export target is rank `me + 1`.
        if p > 1 {
            let me = self.comm.rank();
            for (dst, triplets) in export.iter().enumerate() {
                assert!(
                    dst == me + 1 || triplets.is_empty(),
                    "assembly may only export upward to the adjacent slab"
                );
            }
            if me + 1 < p {
                let triplets = &export[me + 1];
                let mut buf: Vec<Tf64> = Vec::with_capacity(triplets.len() * 3);
                for &(r, c, v) in triplets {
                    buf.push(Tf64::new(r as f64));
                    buf.push(Tf64::new(c as f64));
                    buf.push(v);
                }
                self.comm.send(me + 1, TAG_ASM, &buf);
            }
            if me > 0 {
                let buf = self.comm.recv(me - 1, TAG_ASM);
                // The halo-extended vector: layer nz0 − 1, the owned
                // layers, and layer nz1 where a neighbour owns it.
                let ext_len = plane + nrows + if me + 1 < p { plane } else { 0 };
                for t in buf.chunks_exact(3) {
                    let gr = t[0].value() as usize;
                    let gc = t[1].value() as usize;
                    let r = self.node_coords(gr);
                    assert!(self.owns_layer(r.2), "imported row must be mine");
                    let slot = stencil_slot(r, self.node_coords(gc));
                    rows[r.2 - self.nz0][r.1 * self.nnx + r.0].add(slot, t[2]);
                    // A triplet hit on the wire (`--fault-model msg`) may
                    // name a column outside that vector.
                    let at = plane + (r.2 - self.nz0) * plane + r.1 * self.nnx + r.0;
                    let col = (at + offsets[slot]).checked_sub(offsets[13]);
                    in_halo &= col.is_some_and(|c| c < ext_len);
                }
            }
        }

        // Dirichlet boundary conditions: u(z=0) = 0, u(z=top) = 1.
        // Row replacement on boundary rows; column elimination moves known
        // values to the RHS of interior rows, in the order the columns
        // first appeared.
        let one = Tf64::ONE;
        let top = (self.nnz - 1) * plane;
        let layers = rows.iter_mut().zip(rhs.chunks_exact_mut(plane));
        for (lz, (layer_rows, layer_rhs)) in layers.enumerate() {
            let gz = self.nz0 + lz;
            if self.is_dirichlet(gz) {
                for (row, b) in layer_rows.iter_mut().zip(layer_rhs) {
                    *row = StencilRow::EMPTY;
                    row.add(13, Tf64::ONE);
                    *b = if gz == 0 { Tf64::ZERO } else { one };
                }
                continue;
            }
            let gr0 = gz * plane;
            for (i, (row, b)) in layer_rows.iter_mut().zip(layer_rhs).enumerate() {
                for slot in row.order[..usize::from(row.len)]
                    .iter()
                    .map(|&s| usize::from(s))
                {
                    let gc = gr0 + i + offsets[slot] - offsets[13];
                    if gc >= top {
                        *b -= row.vals[slot] * one;
                    } else if gc >= plane {
                        continue;
                    }
                    // The z = 0 boundary contributes 0.
                    row.present &= !(1 << slot);
                }
            }
        }
        // Row 0 is node nz0·plane; the extended vector starts one layer
        // lower where a neighbour rank owns that layer.
        let first = if self.nz0 > 0 { plane } else { 0 };
        let entries = rows
            .iter()
            .flatten()
            .map(|row| row.present.count_ones() as usize)
            .sum();
        (
            StencilMatrix {
                rows,
                offsets,
                first,
                entries,
                in_halo,
            },
            rhs,
        )
    }

    /// Matvec with halo exchange: needs node layers nz0−1 and nz1 from the
    /// neighbouring ranks, which go around `x` in the halo-extended `ext`.
    fn matvec(&self, a: &StencilMatrix, x: &[Tf64], ext: &mut Vec<Tf64>, out: &mut Vec<Tf64>) {
        let plane = self.plane();
        let p = self.comm.size();
        let me = self.comm.rank();
        // Exchange halo node planes (data movement).
        let mut below: Vec<Tf64> = Vec::new();
        let mut above: Vec<Tf64> = Vec::new();
        if p > 1 {
            if me > 0 {
                self.comm.send(me - 1, TAG_HALO, &x[0..plane]);
            }
            if me + 1 < p {
                let top = &x[x.len() - plane..];
                self.comm.send(me + 1, TAG_HALO + 1, top);
            }
            if me > 0 {
                below = self.comm.recv(me - 1, TAG_HALO + 1);
            }
            if me + 1 < p {
                above = self.comm.recv(me + 1, TAG_HALO);
            }
        }
        ext.clear();
        ext.extend_from_slice(&below);
        ext.extend_from_slice(x);
        ext.extend_from_slice(&above);
        out.clear();
        let block = Matvec { a, ext, out };
        if !a.in_halo {
            // The sweep would index past `ext` and panic part way: it runs
            // op by op and counts the ops it got to, as it always did.
            return block.run::<Tf64>();
        }
        run_block(block);
    }
}

/// The matvec's sweep over the halo-extended vector `ext`: one mul and
/// one add per stored entry.
struct Matvec<'a> {
    a: &'a StencilMatrix,
    ext: &'a [Tf64],
    out: &'a mut Vec<Tf64>,
}

impl Block for Matvec<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        ops(self.a.entries, 0, self.a.entries, 0, 0)
    }
    fn run<T: Arith>(self) {
        let (a, ext) = (self.a, T::view(self.ext));
        let center = a.offsets[13];
        for (at, row) in (a.first..).zip(a.rows.iter().flatten()) {
            // Ascending stencil place is ascending column.
            let vals = T::view(&row.vals);
            let mut acc = T::ZERO;
            let mut present = row.present;
            while present != 0 {
                let slot = present.trailing_zeros() as usize;
                present &= present - 1;
                acc += vals[slot] * ext[at + a.offsets[slot] - center];
            }
            self.out.push(acc.to_tf64());
        }
    }
}

/// Place of column node `c` in row node `r`'s 27-point stencil, from the
/// two nodes' grid coordinates (each differs by at most one).
fn stencil_slot(r: (usize, usize, usize), c: (usize, usize, usize)) -> usize {
    (c.2 + 1 - r.2) * 9 + (c.1 + 1 - r.1) * 3 + (c.0 + 1 - r.0)
}

/// One local row: a value per place of its 27-point stencil
/// ([`stencil_slot`]), which places hold an entry, and the places in the
/// order their first contribution arrived (the order the Dirichlet
/// elimination follows).
#[derive(Clone)]
struct StencilRow {
    vals: [Tf64; 27],
    present: u32,
    order: [u8; 27],
    len: u8,
}

impl StencilRow {
    const EMPTY: StencilRow = StencilRow {
        vals: [Tf64::ZERO; 27],
        present: 0,
        order: [0; 27],
        len: 0,
    };

    /// Accumulate `v` at stencil place `slot`: the first contribution
    /// is the entry, later ones are added to it.
    fn add(&mut self, slot: usize, v: Tf64) {
        if self.present & (1 << slot) == 0 {
            self.present |= 1 << slot;
            self.vals[slot] = v;
            self.order[usize::from(self.len)] = slot as u8;
            self.len += 1;
        } else {
            self.vals[slot] += v;
        }
    }
}

/// The assembled local rows by node layer, each keeping its entries at
/// their stencil places. Place `slot` of (layer-major) row `i` is column
/// `first + i + offsets[slot] − offsets[13]` of the halo-extended vector
/// `[layer nz0−1 | owned layers | layer nz1]` (a halo layer is present
/// only where a neighbour rank owns it), so the matvec reads every
/// operand from one slice and needs no column array.
struct StencilMatrix {
    rows: Vec<Vec<StencilRow>>,
    offsets: [usize; 27],
    /// Extended-vector index of row 0's node.
    first: usize,
    /// Stored entries (places present) over all rows.
    entries: usize,
    /// Whether every place is a column of the halo-extended vector.
    in_halo: bool,
}

/// Run the MiniFE benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[final residual², u·rhs energy, Σu]`.
pub fn run(prob: &MiniFeProblem, comm: &Comm) -> AppOutput {
    let fe = MiniFe::new(prob, comm);
    let (a, rhs) = fe.assemble();
    let n = rhs.len();

    // CG with fixed iteration count.
    let mut x = vec![Tf64::ZERO; n];
    let mut r = rhs.clone();
    let mut p_vec = r.clone();
    let mut rho = global_dot(comm, &r, &r);
    let mut q = Vec::with_capacity(n);
    let mut ext = Vec::with_capacity(n + 2 * fe.plane());
    for _ in 0..prob.cg_iters {
        fe.matvec(&a, &p_vec, &mut ext, &mut q);
        let alpha = rho / global_dot(comm, &p_vec, &q);
        cg_step(alpha, &mut x, &mut r, &p_vec, &q);
        let rho0 = rho;
        rho = global_dot(comm, &r, &r);
        let beta = rho / rho0;
        xpby(&r, beta, &mut p_vec);
    }

    let energy = global_dot(comm, &x, &rhs);
    let usum = rd_allreduce_scalar(comm, x.iter().fold(Tf64::ZERO, |acc, &xi| acc + xi));
    let mut digest = vec![rho.value(), energy.value(), usum.value()];
    // Point samples of the solution (whole-output SDC check).
    let plane = fe.plane();
    let n_total = plane * fe.nnz;
    let samples = crate::util::sample_state(comm, n_total, 16, n_total / 16 + 1, |g| {
        let gz = g / plane;
        fe.owns_layer(gz).then(|| x[g - fe.nz0 * plane])
    });
    digest.extend(samples.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    fn run_at(p: usize, prob: MiniFeProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        results.into_iter().next().unwrap().result.unwrap()
    }

    #[test]
    fn element_stiffness_rows_sum_to_zero() {
        for a in 0..8 {
            let s: f64 = (0..8).map(|b| element_stiffness(a, b)).sum();
            assert!(s.abs() < 1e-15, "row {a} sums to {s}");
        }
    }

    #[test]
    fn element_stiffness_symmetric() {
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(element_stiffness(a, b), element_stiffness(b, a));
            }
        }
    }

    fn small() -> MiniFeProblem {
        MiniFeProblem {
            nx: 3,
            ny: 3,
            nz: 8,
            cg_iters: 25,
        }
    }

    #[test]
    fn hot_plate_profile_is_linear() {
        // The exact solution of the 1-D hot plate is u = z / nz; with
        // enough CG iterations Σu ≈ plane · Σ(z/nz).
        let prob = small();
        let out = run_at(1, prob.clone());
        let plane = ((prob.nx + 1) * (prob.ny + 1)) as f64;
        let expect: f64 = (0..=prob.nz)
            .map(|z| z as f64 / prob.nz as f64)
            .sum::<f64>()
            * plane;
        let got = out.digest[2];
        assert!(
            (got - expect).abs() < 1e-6 * expect,
            "Σu = {got}, expected {expect}"
        );
        // Residual is essentially zero after convergence.
        assert!(out.digest[0] < 1e-12, "rho = {}", out.digest[0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_at(1, small());
        for p in [2usize, 4, 8] {
            let par = run_at(p, small());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(d < 1e-6, "p={p}: rel diff {d}");
        }
    }

    #[test]
    fn default_problem_at_64_ranks() {
        let serial = run_at(1, MiniFeProblem::default());
        let par = run_at(64, MiniFeProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-6, "rel diff {d}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, small());
        let b = run_at(4, small());
        assert!(a.identical(&b));
    }
}
