//! NPB FT port: a 3-D FFT-based spectral PDE solver.
//!
//! Each iteration evolves an initial complex field in frequency space
//! (`exp` decay factors) and transforms it back, accumulating a checksum —
//! the NPB FT pipeline. The grid is deliberately anisotropic
//! (`nx × ny × nz` with a deep `z`), so the *distributed* dimension can
//! decompose to 128 ranks at a laptop-scale problem.
//!
//! ## Decomposition and the parallel-unique computation
//!
//! Planes are distributed **cyclically in z** (rank `r` owns planes
//! `z ≡ r mod p`). The x/y FFTs are plane-local. The z transform uses the
//! classic **four-step (Bailey) factorization** of an `n = M·P` point DFT:
//!
//! 1. local `M`-point FFTs of the cyclic subsequences (common computation —
//!    the serial path runs the same kernel with `M = n`),
//! 2. scaling by inter-stage twiddle factors `W_n^{r·j}` — computation that
//!    **only exists in parallel execution**: the paper's "computation in
//!    the transpose operation" that makes FT's parallel-unique share large
//!    (Table 1: 10.4 % / 17.7 %),
//! 3. an all-to-all that redistributes (pencil, j) lines,
//! 4. local `P`-point FFTs across the rank dimension (common computation).
//!
//! Step 2 runs inside [`Region::ParallelUnique`](resilim_inject::Region).

use crate::blocks::ops;
use crate::util::{block_range, hash_range, Cplx};
use crate::AppOutput;
use resilim_inject::tf64::run_block;
use resilim_inject::{ctx, Arith, Block, Region, Tf64};
use resilim_simmpi::Comm;

/// FT problem parameters (a scaled-down NPB Class S).
#[derive(Debug, Clone, PartialEq)]
pub struct FtProblem {
    /// Grid extent in x (power of two).
    pub nx: usize,
    /// Grid extent in y (power of two).
    pub ny: usize,
    /// Grid extent in z (power of two, the distributed dimension).
    pub nz: usize,
    /// Number of evolve/inverse-FFT iterations.
    pub iterations: usize,
    /// Diffusion coefficient in the evolve factors.
    pub alpha: f64,
    /// Setup RNG seed.
    pub seed: u64,
}

impl Default for FtProblem {
    fn default() -> Self {
        FtProblem {
            nx: 4,
            ny: 4,
            nz: 128,
            iterations: 2,
            alpha: 1e-4,
            seed: 0x5EEDF7,
        }
    }
}

/// Plain-f64 twiddle table for an `n`-point FFT (setup data, untracked).
struct Twiddles {
    /// `(cos, -sin)` pairs for each butterfly span.
    w: Vec<(f64, f64)>,
}

impl Twiddles {
    fn new(n: usize) -> Twiddles {
        assert!(n.is_power_of_two());
        let mut w = Vec::with_capacity(n.max(1));
        for k in 0..n.max(1) {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            w.push((ang.cos(), ang.sin()));
        }
        Twiddles { w }
    }

    /// `W_n^k` (`k < n`) as an untainted complex constant.
    #[inline]
    fn factor<T: Arith>(&self, k: usize) -> Cplx<T> {
        let (c, s) = self.w[k];
        Cplx::new(c, s)
    }
}

/// In-place iterative radix-2 DIT FFT with tracked butterflies.
fn fft_inplace<T: Arith>(buf: &mut [Cplx<T>], tw: &Twiddles) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation (data movement, untracked).
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    debug_assert_eq!(tw.w.len(), n);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        // Butterfly k of a span uses W_n^{k·n/len}.
        let step = n / len;
        for span in buf.chunks_exact_mut(len) {
            let (lo, hi) = span.split_at_mut(half);
            let factors = tw.w.iter().step_by(step);
            for ((a, b), &(c, s)) in lo.iter_mut().zip(hi).zip(factors) {
                let t = Cplx::new(c, s).mul(*b);
                let u = *a;
                *a = u.add(t);
                *b = u.sub(t);
            }
        }
        len *= 2;
    }
}

/// Inverse FFT via the conjugate trick; scaling by `1/n` is tracked
/// (serial and parallel inverse transforms both perform it).
fn ifft_inplace<T: Arith>(buf: &mut [Cplx<T>], tw: &Twiddles) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    for c in buf.iter_mut() {
        *c = c.conj();
    }
    fft_inplace(buf, tw);
    let scale = T::new(1.0 / n as f64);
    for c in buf.iter_mut() {
        *c = c.conj().scale(scale);
    }
}

/// [`fft_inplace`] (or, `inverse`, [`ifft_inplace`]) on an `n`-point line.
fn transform<T: Arith>(line: &mut [Cplx<T>], tw: &Twiddles, inverse: bool) {
    if inverse {
        ifft_inplace(line, tw);
    } else {
        fft_inplace(line, tw);
    }
}

/// Ops of one `n`-point [`transform`]: `n/2 · log₂ n` butterflies of
/// three adds, three subs and four muls, and for the inverse two muls a
/// point of `1/n` scaling.
fn transform_ops(n: usize, inverse: bool) -> [u64; 5] {
    if n <= 1 {
        return [0; 5];
    }
    let b = n / 2 * n.trailing_zeros() as usize;
    ops(3 * b, 3 * b, 4 * b + if inverse { 2 * n } else { 0 }, 0, 0)
}

/// `lines` times `per`.
fn times(lines: usize, per: [u64; 5]) -> [u64; 5] {
    per.map(|n| lines as u64 * n)
}

/// Append a complex value to an interleaved message payload.
fn push_cplx(buf: &mut Vec<Tf64>, c: Cplx) {
    buf.push(c.re);
    buf.push(c.im);
}

/// Complex value `t` of an interleaved message payload.
fn cplx_at(buf: &[Tf64], t: usize) -> Cplx {
    Cplx {
        re: buf[2 * t],
        im: buf[2 * t + 1],
    }
}

/// Copy a strided line out of the field (data movement, untracked).
fn load_line<T: Arith>(
    field: &[Cplx],
    start: usize,
    stride: usize,
    len: usize,
    out: &mut Vec<Cplx<T>>,
) {
    out.clear();
    out.extend((0..len).map(|i| Cplx::from_tracked(field[start + i * stride])));
}

/// Store a line back (data movement, untracked).
fn store_line<T: Arith>(field: &mut [Cplx], start: usize, stride: usize, line: &[Cplx<T>]) {
    for (i, &c) in line.iter().enumerate() {
        field[start + i * stride] = c.to_tracked();
    }
}

/// `count` strided lines of one length, each transformed (forward or
/// inverse) with one twiddle table: line `l` holds the points
/// `first + l·step + i·stride` for `i < tw.w.len()`, copied out, transformed
/// and copied back in line order.
struct Lines<'a> {
    field: &'a mut [Cplx],
    first: usize,
    step: usize,
    stride: usize,
    count: usize,
    tw: &'a Twiddles,
    inverse: bool,
}

impl Block for Lines<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        times(self.count, transform_ops(self.tw.w.len(), self.inverse))
    }
    fn run<T: Arith>(self) {
        let len = self.tw.w.len();
        let mut line = Vec::with_capacity(len);
        for l in 0..self.count {
            let start = self.first + l * self.step;
            load_line::<T>(self.field, start, self.stride, len, &mut line);
            transform(&mut line, self.tw, self.inverse);
            store_line(self.field, start, self.stride, &line);
        }
    }
}

/// The four-step inter-stage scaling: plane `j` of rank `r` by
/// `W_n^{r·j}` (conjugated on the inverse), one complex mul a point.
struct Twiddle<'a> {
    field: &'a mut [Cplx],
    stride: usize,
    rank: usize,
    tw_n: &'a Twiddles,
    conj: bool,
}

impl Block for Twiddle<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let n = self.field.len();
        ops(n, n, 4 * n, 0, 0)
    }
    fn run<T: Arith>(self) {
        let nz = self.tw_n.w.len();
        for (j, plane) in self.field.chunks_exact_mut(self.stride).enumerate() {
            let w = self.tw_n.factor::<T>((self.rank * j) % nz);
            let w = if self.conj { w.conj() } else { w };
            for c in plane {
                *c = Cplx::from_tracked(*c).mul(w).to_tracked();
            }
        }
    }
}

/// The evolve sweep: each frequency value times `exp(coeff·|k̄|²)`, with
/// `ksq[i]` the squared wavenumber of value `i`: three muls and an exp a
/// point.
struct Evolve<'a> {
    freq: &'a [Cplx],
    ksq: Vec<f64>,
    coeff: Tf64,
}

impl Block for Evolve<'_> {
    type Output = Vec<Cplx>;
    fn ops(&self) -> [u64; 5] {
        let n = self.freq.len().min(self.ksq.len());
        ops(0, 0, 3 * n, 0, n)
    }
    fn run<T: Arith>(self) -> Vec<Cplx> {
        let coeff = T::from_tf64(self.coeff);
        let points = self.freq.iter().zip(&self.ksq);
        points
            .map(|(&c, &ksq)| {
                let factor = (coeff * T::new(ksq)).exp();
                Cplx::<T>::from_tracked(c).scale(factor).to_tracked()
            })
            .collect()
    }
}

/// Per-rank FT state.
struct Ft<'a, 'c> {
    prob: &'a FtProblem,
    comm: &'a Comm<'c>,
    /// Planes this rank owns: local j ↔ global z = j·p + rank.
    m: usize,
    /// Pencils per plane (= nx·ny).
    pencils: usize,
    tw_x: Twiddles,
    tw_y: Twiddles,
    tw_m: Twiddles,
    tw_p: Twiddles,
    tw_n: Twiddles,
}

impl<'a, 'c> Ft<'a, 'c> {
    fn new(prob: &'a FtProblem, comm: &'a Comm<'c>) -> Self {
        let p = comm.size();
        assert!(prob.nz.is_multiple_of(p), "FT needs p | nz");
        let m = prob.nz / p;
        Ft {
            prob,
            comm,
            m,
            pencils: prob.nx * prob.ny,
            tw_x: Twiddles::new(prob.nx),
            tw_y: Twiddles::new(prob.ny),
            tw_m: Twiddles::new(m),
            tw_p: Twiddles::new(p),
            tw_n: Twiddles::new(prob.nz),
        }
    }

    #[inline]
    fn idx(&self, j: usize, y: usize, x: usize) -> usize {
        (j * self.prob.ny + y) * self.prob.nx + x
    }

    /// Deterministic initial field, identical at any scale.
    fn initial_field(&self) -> Vec<Cplx> {
        let (nx, ny) = (self.prob.nx, self.prob.ny);
        let mut field = vec![Cplx::ZERO; self.m * ny * nx];
        for j in 0..self.m {
            let z = j * self.comm.size() + self.comm.rank();
            for y in 0..ny {
                for x in 0..nx {
                    let g = ((z * ny + y) * nx + x) as u64;
                    field[self.idx(j, y, x)] = Cplx::new(
                        hash_range(self.prob.seed, g, -0.5, 0.5),
                        hash_range(self.prob.seed ^ 0xF00D, g, -0.5, 0.5),
                    );
                }
            }
        }
        field
    }

    /// Plane-local x and y FFT passes (forward or inverse): plane by
    /// plane, its `ny` x lines, then its `nx` y lines.
    fn fft_xy(&self, field: &mut [Cplx], inverse: bool) {
        let nx = self.prob.nx;
        for j in 0..self.m {
            let first = self.idx(j, 0, 0);
            for (step, stride, count, tw) in
                [(nx, 1, self.prob.ny, &self.tw_x), (1, nx, nx, &self.tw_y)]
            {
                run_block(Lines {
                    field: &mut *field,
                    first,
                    step,
                    stride,
                    count,
                    tw,
                    inverse,
                });
            }
        }
    }

    /// The `M`-point z transform of every pencil (stride `nx·ny` through
    /// the rank's planes), forward or inverse.
    fn fft_pencils(&self, field: &mut [Cplx], inverse: bool) {
        run_block(Lines {
            field,
            first: 0,
            step: 1,
            stride: self.pencils,
            count: self.pencils,
            tw: &self.tw_m,
            inverse,
        });
    }

    /// The `P`-point transform of each pair line `freq[t·P..(t + 1)·P]`.
    fn fft_pairs(&self, freq: &mut [Cplx], inverse: bool) {
        let p = self.comm.size();
        run_block(Lines {
            count: freq.len() / p,
            field: freq,
            first: 0,
            step: p,
            stride: 1,
            tw: &self.tw_p,
            inverse,
        });
    }

    /// The inter-stage twiddle scaling (conjugated on the inverse), in
    /// the parallel-unique region.
    fn twiddle(&self, field: &mut [Cplx], conj: bool) {
        let _region = ctx::enter_region(Region::ParallelUnique);
        run_block(Twiddle {
            field,
            stride: self.pencils,
            rank: self.comm.rank(),
            tw_n: &self.tw_n,
            conj,
        });
    }

    /// Number of (pencil, j) pairs in the four-step redistribution.
    fn total_pairs(&self) -> usize {
        self.pencils * self.m
    }

    /// Field index `pencil + j·(nx·ny)` of every pair, in pair order
    /// `u = pencil·M + j`.
    fn pair_slots(&self) -> impl Iterator<Item = usize> {
        let (m, stride) = (self.m, self.pencils);
        (0..self.pencils).flat_map(move |pencil| (0..m).map(move |j| pencil + j * stride))
    }

    /// Forward z transform: four-step across ranks (plain FFT when serial).
    /// Consumes the spatial field, returns the frequency-layout data:
    /// for each locally owned pair `(pencil, j)`, `P` values indexed by `q`
    /// (global frequency `kz = q·M + j`).
    fn forward_z(&self, field: &mut [Cplx]) -> Vec<Cplx> {
        let p = self.comm.size();

        // Step 1 (common): local M-point FFT per pencil. Serial runs the
        // identical kernel with M = nz, which *is* the whole z transform.
        self.fft_pencils(field, false);
        if p == 1 {
            // Serial frequency layout: pair (pencil, j) for all j, P = 1.
            return field.to_vec();
        }

        // Step 2 (parallel-unique): inter-stage twiddle scaling W_n^{r·j}.
        self.twiddle(field, false);

        // Step 3: all-to-all — pair (pencil, j) moves to its block owner.
        // Pairs are numbered u = pencil·M + j and blocks are contiguous in
        // u, so rank s takes the next `block_range(total, p, s).len()`.
        let total = self.total_pairs();
        let mut pairs = self.pair_slots().map(|i| field[i]);
        let outgoing = (0..p)
            .map(|s| {
                let n = block_range(total, p, s).len();
                let mut buf = Vec::with_capacity(2 * n);
                pairs.by_ref().take(n).for_each(|c| push_cplx(&mut buf, c));
                buf
            })
            .collect();
        let incoming = self.comm.alltoallv(outgoing);

        // Step 4 (common): P-point FFT across the rank dimension for each
        // owned pair.
        let npairs = block_range(total, p, self.comm.rank()).len();
        let mut freq = vec![Cplx::ZERO; npairs * p];
        for (t, line) in freq.chunks_exact_mut(p).enumerate() {
            for (c, part) in line.iter_mut().zip(&incoming) {
                *c = cplx_at(part, t);
            }
        }
        self.fft_pairs(&mut freq, false);
        freq
    }

    /// Inverse z transform: frequency layout back to the spatial cyclic
    /// layout (reverses the four steps).
    fn inverse_z(&self, freq: &[Cplx]) -> Vec<Cplx> {
        let p = self.comm.size();
        let stride = self.pencils;
        if p == 1 {
            let mut field = freq.to_vec();
            self.fft_pencils(&mut field, true);
            return field;
        }

        // Step 4⁻¹ (common): inverse P-point FFT per owned pair.
        let npairs = freq.len() / p;
        let mut unfft = freq.to_vec();
        self.fft_pairs(&mut unfft, true);
        // Route element r of each pair line back to rank r.
        let mut by_dest: Vec<Vec<Tf64>> = (0..p).map(|_| Vec::with_capacity(2 * npairs)).collect();
        for pair in unfft.chunks_exact(p) {
            for (buf, &c) in by_dest.iter_mut().zip(pair) {
                push_cplx(buf, c);
            }
        }
        let incoming = self.comm.alltoallv(by_dest);

        // Reassemble my B_r[pencil, j] values: from each owner rank `s`, in
        // ascending pair index within s's block (so in ascending u overall).
        let mut field = vec![Cplx::ZERO; self.m * stride];
        let values = incoming.iter().flat_map(|part| part.chunks_exact(2));
        for (i, c) in self.pair_slots().zip(values) {
            field[i] = Cplx { re: c[0], im: c[1] };
        }

        // Step 2⁻¹ (parallel-unique): conjugate twiddles.
        self.twiddle(&mut field, true);

        // Step 1⁻¹ (common): inverse M-point FFT per pencil.
        self.fft_pencils(&mut field, true);
        field
    }

    /// Evolve the frequency field by `exp(-alpha·t·|k̄|²)` (common
    /// computation; factors from untainted index data).
    fn evolve(&self, freq: &[Cplx], t: usize) -> Vec<Cplx> {
        let p = self.comm.size();
        let (nx, ny, nz) = (self.prob.nx, self.prob.ny, self.prob.nz);
        // Squared signed wavenumber of index k on an n-point axis.
        let sq = |k: usize, n: usize| -> f64 {
            let signed = if k <= n / 2 {
                k as f64
            } else {
                k as f64 - n as f64
            };
            signed.powi(2)
        };
        let coeff = Tf64::new(-self.prob.alpha * t as f64);
        // Untracked index data: each value's squared wavenumber.
        let mut ksq = Vec::with_capacity(freq.len());
        if p == 1 {
            // Serial layout: [j][y][x] with kz = j, which is field order.
            for j in 0..nz {
                let sz = sq(j, nz);
                for y in 0..ny {
                    let sy = sq(y, ny);
                    ksq.extend((0..nx).map(|x| sq(x, nx) + sy + sz));
                }
            }
        } else {
            // My pairs u = pencil·M + j, pencil = y·nx + x, walked in order.
            let first = block_range(self.total_pairs(), p, self.comm.rank()).start;
            let (mut j, pencil) = (first % self.m, first / self.m);
            let (mut x, mut y) = (pencil % nx, pencil / nx);
            for _ in freq.chunks_exact(p) {
                let sxy = sq(x, nx) + sq(y, ny);
                ksq.extend((0..p).map(|q| sxy + sq(q * self.m + j, nz)));
                j += 1;
                if j == self.m {
                    j = 0;
                    x += 1;
                    if x == nx {
                        x = 0;
                        y += 1;
                    }
                }
            }
        }
        ksq.truncate(freq.len());
        run_block(Evolve { freq, ksq, coeff })
    }

    /// Strided global checksum of the spatial field (the NPB verification
    /// quantity). Local partials in global sample order + MPI reduction.
    fn checksum(&self, field: &[Cplx]) -> (Tf64, Tf64) {
        let p = self.comm.size();
        let (nx, ny, nz) = (self.prob.nx, self.prob.ny, self.prob.nz);
        let samples = 64usize;
        let mut re = Tf64::ZERO;
        let mut im = Tf64::ZERO;
        for i in 0..samples {
            let g = (i * 131 + 17) % (nx * ny * nz);
            let x = g % nx;
            let y = (g / nx) % ny;
            let z = g / (nx * ny);
            if z % p == self.comm.rank() {
                let c = field[self.idx(z / p, y, x)];
                re += c.re;
                im += c.im;
            }
        }
        let summed = self
            .comm
            .allreduce(resilim_simmpi::ReduceOp::Sum, &[re, im]);
        (summed[0], summed[1])
    }
}

/// Run the FT benchmark on the calling rank; collective over `comm`.
///
/// Digest: `[re_1, im_1, …, re_T, im_T]` checksums, one pair per iteration.
pub fn run(prob: &FtProblem, comm: &Comm) -> AppOutput {
    let ft = Ft::new(prob, comm);
    let mut field = ft.initial_field();
    ft.fft_xy(&mut field, false);
    let freq0 = ft.forward_z(&mut field);

    let mut digest = Vec::with_capacity(prob.iterations * 2 + 16);
    let mut last_v = Vec::new();
    for t in 1..=prob.iterations {
        let w = ft.evolve(&freq0, t);
        let mut v = ft.inverse_z(&w);
        ft.fft_xy(&mut v, true);
        let (re, im) = ft.checksum(&v);
        digest.push(re.value());
        digest.push(im.value());
        if t == prob.iterations {
            last_v = v;
        }
    }
    // Point samples of the final field (whole-output SDC check).
    let n_total = prob.nx * prob.ny * prob.nz;
    let p = comm.size();
    let samples = crate::util::sample_state(comm, n_total, 8, n_total / 8 + 1, |g| {
        let x = g % prob.nx;
        let y = (g / prob.nx) % prob.ny;
        let z = g / (prob.nx * prob.ny);
        (z % p == comm.rank()).then(|| last_v[ft.idx(z / p, y, x)].re)
    });
    digest.extend(samples.iter().map(|v| v.value()));
    AppOutput { digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::World;

    /// Naive DFT reference.
    fn naive_dft(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = (0.0f64, 0.0f64);
                for (z, &(re, im)) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (z * k % n) as f64 / n as f64;
                    let (c, s) = (ang.cos(), ang.sin());
                    acc.0 += re * c - im * s;
                    acc.1 += re * s + im * c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let tw = Twiddles::new(n);
            let input: Vec<(f64, f64)> = (0..n)
                .map(|i| ((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
                .collect();
            let mut buf: Vec<Cplx> = input.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
            fft_inplace(&mut buf, &tw);
            let expect = naive_dft(&input);
            for (got, want) in buf.iter().zip(expect.iter()) {
                assert!((got.re.value() - want.0).abs() < 1e-9, "n={n}");
                assert!((got.im.value() - want.1).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 32;
        let tw = Twiddles::new(n);
        let orig: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut buf = orig.clone();
        fft_inplace(&mut buf, &tw);
        ifft_inplace(&mut buf, &tw);
        for (a, b) in buf.iter().zip(orig.iter()) {
            assert!((a.re.value() - b.re.value()).abs() < 1e-12);
            assert!((a.im.value() - b.im.value()).abs() < 1e-12);
        }
    }

    fn run_at(p: usize, prob: FtProblem) -> AppOutput {
        let world = World::new(p);
        let results = world.run(move |comm| run(&prob, comm));
        results.into_iter().next().unwrap().result.unwrap()
    }

    fn small_problem() -> FtProblem {
        FtProblem {
            nx: 4,
            ny: 4,
            nz: 16,
            iterations: 2,
            alpha: 1e-4,
            seed: 99,
        }
    }

    #[test]
    fn serial_checksum_is_finite_and_nonzero() {
        let out = run_at(1, small_problem());
        // Digest layout: (re, im) per iteration, then 8 point samples.
        assert_eq!(out.digest.len(), 2 * small_problem().iterations + 8);
        assert!(out.digest.iter().all(|d| d.is_finite()));
        assert!(out.digest.iter().any(|d| d.abs() > 1e-12));
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_at(1, small_problem());
        for p in [2usize, 4, 8, 16] {
            let par = run_at(p, small_problem());
            let d = par.max_rel_diff(&serial).unwrap();
            assert!(d < 1e-9, "p={p}: rel diff {d}");
        }
    }

    #[test]
    fn default_problem_parallel_matches_serial() {
        let serial = run_at(1, FtProblem::default());
        let par = run_at(4, FtProblem::default());
        let d = par.max_rel_diff(&serial).unwrap();
        assert!(d < 1e-9, "rel diff {d}");
    }

    #[test]
    fn evolve_decays_checksum() {
        // With a strongly diffusive alpha the evolved field shrinks toward
        // the k=0 mode; later iterations must differ from earlier ones.
        let mut prob = small_problem();
        prob.alpha = 0.5;
        prob.iterations = 3;
        let out = run_at(1, prob);
        assert_ne!(out.digest[0], out.digest[4]);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_at(4, small_problem());
        let b = run_at(4, small_problem());
        assert!(a.identical(&b));
    }
}
