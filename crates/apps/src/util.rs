//! Shared numerical utilities: deterministic problem-setup randomness,
//! tracked complex arithmetic, and block-partition helpers.

use resilim_inject::Tf64;

/// SplitMix64 step — the workhorse of deterministic setup randomness.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform value in `[0, 1)` from a `(seed, index)` pair.
///
/// Problem setup must produce **identical data regardless of rank count**
/// (strong scaling: same input problem at every scale), so all setup
/// randomness is indexed by global ids instead of drawn from a sequential
/// stream.
#[inline]
pub fn hash_unit(seed: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(index));
    // 53 mantissa bits -> [0, 1).
    (h >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Deterministic uniform value in `[lo, hi)`.
#[inline]
pub fn hash_range(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * hash_unit(seed, index)
}

/// Deterministic integer in `[0, n)`.
#[inline]
pub fn hash_index(seed: u64, index: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (splitmix64(seed ^ splitmix64(index)) % n as u64) as usize
}

/// The contiguous block of `n` items owned by `rank` out of `size` ranks
/// (remainder spread over the first ranks), as `start..end`.
#[inline]
pub fn block_range(n: usize, size: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / size;
    let rem = n % size;
    let start = rank * base + rank.min(rem);
    let len = base + usize::from(rank < rem);
    start..start + len
}

/// Which rank owns item `i` under [`block_range`] partitioning.
#[inline]
pub fn block_owner(n: usize, size: usize, i: usize) -> usize {
    debug_assert!(i < n);
    let base = n / size;
    let rem = n % size;
    let cut = rem * (base + 1);
    if i < cut {
        i / (base + 1)
    } else {
        rem + (i - cut) / base
    }
}

/// A tracked complex number (used by FT).
#[derive(Debug, Clone, Copy)]
pub struct Cplx {
    /// Real part.
    pub re: Tf64,
    /// Imaginary part.
    pub im: Tf64,
}

#[allow(clippy::should_implement_trait)] // methods mirror num-complex's API
impl Cplx {
    /// Untainted complex zero.
    pub const ZERO: Cplx = Cplx {
        re: Tf64::ZERO,
        im: Tf64::ZERO,
    };

    /// Untainted complex from plain parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Cplx {
        Cplx {
            re: Tf64::new(re),
            im: Tf64::new(im),
        }
    }

    /// Complex addition (tracked).
    #[inline]
    pub fn add(self, o: Cplx) -> Cplx {
        Cplx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    /// Complex subtraction (tracked).
    #[inline]
    pub fn sub(self, o: Cplx) -> Cplx {
        Cplx {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Complex multiplication (tracked). Always inlined: out of line,
    /// every butterfly passed both operands and the product through
    /// memory.
    #[inline(always)]
    pub fn mul(self, o: Cplx) -> Cplx {
        Cplx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    /// Scale by a real factor (tracked).
    #[inline]
    pub fn scale(self, s: Tf64) -> Cplx {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Complex conjugate (untracked sign flip).
    #[inline]
    pub fn conj(self) -> Cplx {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Whether either component is tainted.
    #[inline]
    pub fn is_tainted(self) -> bool {
        self.re.is_tainted() || self.im.is_tainted()
    }
}

/// Collect `k` strided samples of a globally distributed state vector
/// into digest values.
///
/// Sample `i` probes global index `(i·stride + offset) mod n`. Each rank
/// contributes the value for the indices it owns and zero elsewhere; an
/// MPI sum-reduction (exact: all other contributions are zero) assembles
/// the sampled values on every rank. Runs serially as the identity.
///
/// The paper classifies a test as SDC when *the application output*
/// differs from the fault-free run — a whole-output comparison. Digests
/// built only from global sums can hide corruption (perturbations of a
/// converging solver shift components while barely moving aggregate
/// norms), so every app's digest also carries these point samples.
pub fn sample_state(
    comm: &resilim_simmpi::Comm,
    n: usize,
    k: usize,
    stride: usize,
    local: impl Fn(usize) -> Option<Tf64>,
) -> Vec<Tf64> {
    let mut probes = vec![Tf64::ZERO; k];
    for (i, probe) in probes.iter_mut().enumerate() {
        let g = (i * stride + 1) % n;
        if let Some(v) = local(g) {
            *probe = v;
        }
    }
    if comm.is_serial() {
        return probes;
    }
    comm.allreduce(resilim_simmpi::ReduceOp::Sum, &probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_unit_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let a = hash_unit(42, i);
            let b = hash_unit(42, i);
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a), "{a}");
        }
    }

    #[test]
    fn hash_unit_varies_with_seed_and_index() {
        assert_ne!(hash_unit(1, 0), hash_unit(2, 0));
        assert_ne!(hash_unit(1, 0), hash_unit(1, 1));
    }

    #[test]
    fn hash_unit_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash_unit(7, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn hash_range_bounds() {
        for i in 0..100 {
            let v = hash_range(3, i, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn block_partition_covers_everything() {
        for n in [1usize, 7, 64, 100] {
            for size in [1usize, 2, 3, 8, 64] {
                let mut seen = vec![false; n];
                for rank in 0..size {
                    for i in block_range(n, size, rank) {
                        assert!(!seen[i], "double coverage n={n} size={size}");
                        seen[i] = true;
                        assert_eq!(block_owner(n, size, i), rank);
                    }
                }
                assert!(seen.into_iter().all(|s| s), "gap n={n} size={size}");
            }
        }
    }

    #[test]
    fn block_partition_balanced() {
        for rank in 0..8 {
            let r = block_range(100, 8, rank);
            assert!(r.len() == 12 || r.len() == 13);
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        let m = a.mul(b);
        assert_eq!(m.re.value(), 1.0 * 3.0 - -2.0);
        assert_eq!(m.im.value(), -1.0 + 2.0 * 3.0);
        let s = a.add(b).sub(b);
        assert_eq!(s.re.value(), 1.0);
        assert_eq!(s.im.value(), 2.0);
        assert_eq!(a.conj().im.value(), -2.0);
        assert_eq!(a.scale(Tf64::new(2.0)).re.value(), 2.0);
    }

    #[test]
    fn cplx_taint_detection() {
        let clean = Cplx::new(1.0, 1.0);
        assert!(!clean.is_tainted());
        let dirty = Cplx {
            re: Tf64::from_parts(1.0, 2.0),
            im: Tf64::new(0.0),
        };
        assert!(dirty.is_tainted());
    }
}
