//! Property-based tests of the collective algorithms against sequential
//! reference implementations, over random payloads and world sizes.

use proptest::prelude::*;
use resilim_inject::Tf64;
use resilim_simmpi::{ReduceOp, World};

fn world_size() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 4, 5, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce(Sum/Min/Max) equals the sequential rank-order fold on every
    /// rank, bitwise.
    #[test]
    fn allreduce_matches_sequential_fold(
        p in world_size(),
        per_rank in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 8),
    ) {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let world = World::new(p);
            let data = per_rank.clone();
            let results = world.run(move |comm| {
                let mine: Vec<Tf64> =
                    data[comm.rank()].iter().map(|&x| Tf64::new(x)).collect();
                comm.allreduce(op, &mine)
                    .into_iter()
                    .map(|x| x.value())
                    .collect::<Vec<f64>>()
            });
            // Sequential fold in rank order.
            let mut expect = per_rank[0][..3].to_vec();
            for contribution in per_rank.iter().take(p).skip(1) {
                for (e, &x) in expect.iter_mut().zip(contribution.iter()) {
                    *e = match op {
                        ReduceOp::Sum => *e + x,
                        ReduceOp::Min => e.min(x),
                        ReduceOp::Max => e.max(x),
                    };
                }
            }
            for r in results {
                let got = r.result.unwrap();
                prop_assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(expect.iter()) {
                    prop_assert_eq!(g.to_bits(), e.to_bits(), "{:?} p={}", op, p);
                }
            }
        }
    }

    /// Allgather returns every rank's buffer, rank-indexed, on all ranks.
    #[test]
    fn allgather_is_rank_indexed(
        p in world_size(),
        lens in prop::collection::vec(0usize..6, 8),
    ) {
        let world = World::new(p);
        let lens2 = lens.clone();
        let results = world.run(move |comm| {
            let me = comm.rank();
            let mine: Vec<Tf64> = (0..lens2[me])
                .map(|i| Tf64::new((me * 100 + i) as f64))
                .collect();
            comm.allgather(&mine)
                .parts()
                .map(|part| part.iter().map(|x| x.value() as usize).collect())
                .collect::<Vec<Vec<usize>>>()
        });
        for r in results {
            let all = r.result.unwrap();
            prop_assert_eq!(all.len(), p);
            for (src, part) in all.iter().enumerate() {
                prop_assert_eq!(part.len(), lens[src]);
                for (i, &v) in part.iter().enumerate() {
                    prop_assert_eq!(v, src * 100 + i);
                }
            }
        }
    }

    /// Alltoallv delivers buffer (src -> dst) exactly once, to dst, from src.
    #[test]
    fn alltoallv_is_a_permutation(p in world_size(), salt in 0u64..1000) {
        let world = World::new(p);
        let results = world.run(move |comm| {
            let me = comm.rank();
            let outgoing: Vec<Vec<Tf64>> = (0..p)
                .map(|dst| vec![Tf64::new((salt as usize + me * p + dst) as f64)])
                .collect();
            comm.alltoallv(outgoing)
                .into_iter()
                .map(|b| b[0].value() as usize)
                .collect::<Vec<usize>>()
        });
        for (rank, r) in results.into_iter().enumerate() {
            let incoming = r.result.unwrap();
            for (src, got) in incoming.into_iter().enumerate() {
                prop_assert_eq!(got, salt as usize + src * p + rank);
            }
        }
    }
}
