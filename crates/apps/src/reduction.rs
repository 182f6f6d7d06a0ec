//! User-level global reductions with explicit combine arithmetic.
//!
//! NPB CG (and MiniFE's dot products) implement global sums with
//! point-to-point exchanges plus **explicit floating-point adds in user
//! code** rather than `MPI_Allreduce`. Those combine adds only exist in
//! parallel execution — they are precisely the small *parallel-unique
//! computation* the paper's Table 1 reports for CG and MiniFE (1.6 % /
//! 0.27 % for CG, 1.54 % / 0.68 % for MiniFE).
//!
//! This module provides that pattern: a recursive-doubling allreduce whose
//! combine adds run inside a [`Region::ParallelUnique`] guard. In serial
//! execution the function returns its input untouched, so the combines
//! genuinely never happen there (Observation 1: parallel computation =
//! serial computation + extra).

use resilim_inject::{ctx, Region, Tf64};
use resilim_simmpi::Comm;

/// Message tag space reserved for user-level reductions.
#[allow(clippy::unusual_byte_groupings)]
const RD_TAG: u64 = 0x5244; // "RD"

/// Recursive-doubling global sum with user-level combine adds
/// (parallel-unique computation). Requires a power-of-two world size.
///
/// All ranks receive the result. Every rank performs `log2(p)` tracked
/// additions per element inside the parallel-unique region.
fn rd_allreduce_sum(comm: &Comm, x: &[Tf64]) -> Vec<Tf64> {
    let p = comm.size();
    assert!(
        p.is_power_of_two(),
        "recursive doubling needs power-of-two ranks"
    );
    let mut acc = x.to_vec();
    if p == 1 {
        return acc;
    }
    let me = comm.rank();
    let rounds = p.trailing_zeros();
    for round in 0..rounds {
        let partner = me ^ (1 << round);
        let theirs = comm.sendrecv(partner, partner, RD_TAG + round as u64, &acc);
        assert_eq!(theirs.len(), acc.len(), "rd_allreduce: length mismatch");
        let _region = ctx::enter_region(Region::ParallelUnique);
        for (a, b) in acc.iter_mut().zip(theirs) {
            *a += b; // the parallel-unique combine add
        }
    }
    acc
}

/// Recursive-doubling global sum of one value (all ranks receive it).
pub fn rd_allreduce_scalar(comm: &Comm, x: Tf64) -> Tf64 {
    rd_allreduce_sum(comm, &[x])[0]
}

/// Global dot product: tracked local partial (common computation) +
/// recursive-doubling combine (parallel-unique computation).
pub fn global_dot(comm: &Comm, a: &[Tf64], b: &[Tf64]) -> Tf64 {
    let local = resilim_inject::tf64::dot(a, b);
    rd_allreduce_scalar(comm, local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::RankCtx;
    use resilim_simmpi::World;

    #[test]
    fn rd_sum_matches_direct_sum() {
        for p in [1usize, 2, 4, 8] {
            let world = World::new(p);
            let results = world.run(move |comm| {
                let x = [Tf64::new((comm.rank() + 1) as f64), Tf64::new(0.5)];
                let s = rd_allreduce_sum(comm, &x);
                (s[0].value(), s[1].value())
            });
            let expect0 = (p * (p + 1) / 2) as f64;
            let expect1 = 0.5 * p as f64;
            for r in results {
                let (a, b) = r.result.unwrap();
                assert_eq!(a, expect0, "p={p}");
                assert_eq!(b, expect1, "p={p}");
            }
        }
    }

    #[test]
    fn combine_adds_are_parallel_unique() {
        let p = 4;
        let world = World::new(p);
        let results = world.run_with_ctx(
            |rank| Some(RankCtx::profiling(rank)),
            |comm| {
                let x = [Tf64::new(1.0)];
                rd_allreduce_sum(comm, &x)[0].value()
            },
        );
        for r in &results {
            let profile = &r.ctx_report.as_ref().unwrap().profile;
            // log2(4) = 2 combine adds, all parallel-unique.
            assert_eq!(profile.injectable(Region::ParallelUnique), 2);
            assert_eq!(profile.injectable(Region::Common), 0);
            assert_eq!(*r.result.as_ref().unwrap(), p as f64);
        }
    }

    #[test]
    fn serial_has_no_parallel_unique_ops() {
        let world = World::new(1);
        let results = world.run_with_ctx(
            |rank| Some(RankCtx::profiling(rank)),
            |comm| global_dot(comm, &[Tf64::new(2.0)], &[Tf64::new(3.0)]).value(),
        );
        let r = &results[0];
        assert_eq!(*r.result.as_ref().unwrap(), 6.0);
        let profile = &r.ctx_report.as_ref().unwrap().profile;
        assert_eq!(profile.injectable(Region::ParallelUnique), 0);
        assert!(profile.injectable(Region::Common) > 0);
    }

    #[test]
    fn global_dot_consistent_across_scales() {
        let n = 16usize;
        let serial: f64 = {
            let world = World::new(1);
            let r = world.run(move |comm| {
                let a: Vec<Tf64> = (0..n).map(|i| Tf64::new(i as f64 * 0.25)).collect();
                global_dot(comm, &a, &a).value()
            });
            r.into_iter().next().unwrap().result.unwrap()
        };
        for p in [2usize, 4, 8] {
            let world = World::new(p);
            let results = world.run(move |comm| {
                let range = crate::util::block_range(n, comm.size(), comm.rank());
                let a: Vec<Tf64> = range.map(|i| Tf64::new(i as f64 * 0.25)).collect();
                global_dot(comm, &a, &a).value()
            });
            for r in results {
                let v = r.result.unwrap();
                assert!(
                    (v - serial).abs() <= 1e-12 * serial.abs(),
                    "p={p}: {v} vs {serial}"
                );
            }
        }
    }

    #[test]
    fn taint_spreads_through_rd_reduction() {
        let world = World::new(4);
        let results = world.run(|comm| {
            let x = if comm.rank() == 2 {
                [Tf64::from_parts(1.5, 1.0)] // pre-tainted contribution
            } else {
                [Tf64::new(1.0)]
            };
            rd_allreduce_sum(comm, &x)[0].is_tainted()
        });
        for r in results {
            assert!(r.result.unwrap(), "every rank must end up tainted");
        }
    }
}
