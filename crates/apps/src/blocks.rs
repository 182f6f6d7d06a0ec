//! Elementwise vector updates shared by the Krylov and multigrid kernels,
//! each run as one charged [`Block`]: its ops are counted at once and it
//! runs hook-free unless it holds an injection target or the hang guard's
//! op (see `resilim_inject::tf64::run_block`).
//!
//! Like `zip`, each update runs over the shortest of its slices, and so do
//! its counts.

use resilim_inject::tf64::run_block;
use resilim_inject::{Arith, Block, Tf64};

/// Per-kind op counts in [`OpKind::index`](resilim_inject::OpKind::index)
/// order, from element counts.
pub(crate) const fn ops(add: usize, sub: usize, mul: usize, div: usize, other: usize) -> [u64; 5] {
    [add as u64, sub as u64, mul as u64, div as u64, other as u64]
}

/// The CG step: `x += α·p` and `r −= α·q`, element by element.
pub(crate) fn cg_step(alpha: Tf64, x: &mut [Tf64], r: &mut [Tf64], p: &[Tf64], q: &[Tf64]) {
    run_block(CgStep { alpha, x, r, p, q });
}

struct CgStep<'a> {
    alpha: Tf64,
    x: &'a mut [Tf64],
    r: &'a mut [Tf64],
    p: &'a [Tf64],
    q: &'a [Tf64],
}

impl Block for CgStep<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let n = self
            .x
            .len()
            .min(self.r.len())
            .min(self.p.len())
            .min(self.q.len());
        ops(n, n, 2 * n, 0, 0)
    }
    fn run<T: Arith>(self) {
        let alpha = T::from_tf64(self.alpha);
        let (x, r) = (T::view_mut(self.x), T::view_mut(self.r));
        let (p, q) = (T::view(self.p), T::view(self.q));
        for ((xi, ri), (&pi, &qi)) in x.iter_mut().zip(r).zip(p.iter().zip(q)) {
            *xi += alpha * pi;
            *ri -= alpha * qi;
        }
    }
}

/// The CG direction update: `p = r + β·p`.
pub(crate) fn xpby(r: &[Tf64], beta: Tf64, p: &mut [Tf64]) {
    run_block(Xpby { r, beta, p });
}

struct Xpby<'a> {
    r: &'a [Tf64],
    beta: Tf64,
    p: &'a mut [Tf64],
}

impl Block for Xpby<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let n = self.p.len().min(self.r.len());
        ops(n, 0, n, 0, 0)
    }
    fn run<T: Arith>(self) {
        let beta = T::from_tf64(self.beta);
        for (pi, &ri) in T::view_mut(self.p).iter_mut().zip(T::view(self.r)) {
            *pi = ri + beta * *pi;
        }
    }
}

/// `u += s·r` (`s` absent: `u += r`).
pub(crate) fn axpy(u: &mut [Tf64], s: Option<Tf64>, r: &[Tf64]) {
    run_block(Axpy { u, s, r });
}

struct Axpy<'a> {
    u: &'a mut [Tf64],
    s: Option<Tf64>,
    r: &'a [Tf64],
}

impl Block for Axpy<'_> {
    type Output = ();
    fn ops(&self) -> [u64; 5] {
        let n = self.u.len().min(self.r.len());
        ops(n, 0, if self.s.is_some() { n } else { 0 }, 0, 0)
    }
    fn run<T: Arith>(self) {
        let (u, r) = (T::view_mut(self.u), T::view(self.r));
        match self.s.map(T::from_tf64) {
            Some(s) => {
                for (ui, &ri) in u.iter_mut().zip(r) {
                    *ui += s * ri;
                }
            }
            None => {
                for (ui, &ri) in u.iter_mut().zip(r) {
                    *ui += ri;
                }
            }
        }
    }
}
