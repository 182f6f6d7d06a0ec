//! The per-rank communicator handle.
//!
//! [`Comm`] wraps the shared fabric with an MPI-flavoured API: tagged
//! point-to-point messages plus the collectives the six applications call
//! (barrier, allreduce, allgather, alltoallv, sendrecv). A message is a
//! buffer of tracked floats; the barrier's empty tokens are the only
//! messages that are not numeric sends.
//!
//! Design notes:
//!
//! * **Errors abort the job.** A failed fabric operation ends the rank
//!   with its typed cause as the panic payload; the world runner
//!   classifies it (see [`PanicKind`](crate::PanicKind)). This mirrors
//!   the default `MPI_ERRORS_ARE_FATAL`.
//! * **Collectives are linear and deterministic.** Reductions fold
//!   contributions at rank 0 in rank order 0,1,…,p−1 as they are
//!   received, so results are bit-reproducible and independent of the
//!   order they were sent in. The O(p) fan-in is most of a large trial:
//!   at p=64 an allreduce is 126 messages and ~64 handoffs (≈ 14 µs
//!   against 0.7 µs at p=4) and two thirds of a campaign's CPU is not app
//!   compute (`simmpi.overhead_share` in `trial_budget`). Hence the rules
//!   here: fold or concatenate on arrival, stage nothing per rank, and
//!   hand a received buffer on instead of copying it.
//! * **Reduction arithmetic is not instrumented.** The paper injects into
//!   application computation, never into MPI internals, so collective
//!   combines bypass the injection hook (and therefore also keep dynamic
//!   op counts identical across scales). Taint still propagates, because
//!   it is carried by the values themselves.
//! * **Every received payload reports its taint** to the current rank's
//!   injection context — that is how cross-rank contamination (paper
//!   §3.2) becomes observable.

use crate::error::Abort;
use crate::fabric::Fabric;
use resilim_inject::{ctx, Tf64};
use std::cell::Cell;

/// Reduction operators for [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Combine two tracked scalars in both worlds, outside the injection
    /// hook (reductions model MPI-internal arithmetic).
    #[inline]
    pub fn combine(self, a: Tf64, b: Tf64) -> Tf64 {
        let f: fn(f64, f64) -> f64 = match self {
            ReduceOp::Sum => |x, y| x + y,
            ReduceOp::Min => f64::min,
            ReduceOp::Max => f64::max,
        };
        Tf64::from_parts(f(a.value(), b.value()), f(a.shadow(), b.shadow()))
    }
}

/// What [`Comm::allgather`] returns: every rank's buffer, concatenated in
/// rank order, plus how many elements each rank contributed.
#[derive(Debug)]
pub struct Gathered {
    flat: Vec<Tf64>,
    counts: Vec<usize>,
}

impl Gathered {
    /// Rank `r`'s contribution.
    pub fn part(&self, r: usize) -> &[Tf64] {
        self.parts().nth(r).expect("rank within the world")
    }

    /// Every rank's contribution, in rank order.
    pub fn parts(&self) -> impl Iterator<Item = &[Tf64]> {
        let mut rest = self.flat.as_slice();
        self.counts.iter().map(move |&n| {
            let (part, tail) = rest.split_at(n);
            rest = tail;
            part
        })
    }

    /// The rank-ordered concatenation of all contributions.
    pub fn into_flat(self) -> Vec<Tf64> {
        self.flat
    }
}

/// Base tag for internal collective messages; user tags must stay below.
const COLL_TAG_BASE: u64 = 1 << 63;

/// Per-rank communicator handle (one per rank).
pub struct Comm<'a> {
    rank: usize,
    size: usize,
    fabric: &'a Fabric,
    coll_seq: Cell<u64>,
}

impl<'a> Comm<'a> {
    /// Handle for `rank` over a shared fabric.
    pub(crate) fn new(rank: usize, fabric: &'a Fabric) -> Comm<'a> {
        Comm {
            rank,
            size: fabric.size(),
            fabric,
            coll_seq: Cell::new(0),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (number of ranks).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this is a single-rank (serial) world.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.size == 1
    }

    fn chk<T>(r: Result<T, Abort>) -> T {
        r.unwrap_or_else(|cause| std::panic::panic_any(cause))
    }

    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLL_TAG_BASE | seq
    }

    /// Send `data` to `dst` under any tag (collectives use their own).
    fn post(&self, dst: usize, tag: u64, data: Vec<Tf64>) {
        Self::chk(self.fabric.send(self.rank, dst, tag, data));
    }

    // ----------------------------------------------------------------
    // Point-to-point
    // ----------------------------------------------------------------

    /// Send tracked floats to `dst` (non-blocking buffered send).
    pub fn send(&self, dst: usize, tag: u64, data: &[Tf64]) {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must be < 2^63");
        self.post(dst, tag, data.to_vec());
    }

    /// Receive tracked floats from `src`, reporting their taint to this
    /// rank's injection context.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<Tf64> {
        let payload = Self::chk(self.fabric.recv(self.rank, src, tag));
        ctx::note_values(&payload);
        payload
    }

    /// Combined send-to-`dst` + receive-from-`src` (halo-exchange staple;
    /// deadlock-free because sends never block).
    pub fn sendrecv(&self, dst: usize, src: usize, tag: u64, data: &[Tf64]) -> Vec<Tf64> {
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    // ----------------------------------------------------------------
    // Collectives (all ranks must call, in the same order)
    // ----------------------------------------------------------------

    /// Synchronize all ranks. Its tokens are empty and bypass the
    /// sender-side hooks, so a barrier never counts as a numeric send.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        if self.size == 1 {
            return;
        }
        if self.rank == 0 {
            for src in 1..self.size {
                Self::chk(self.fabric.recv(self.rank, src, tag));
            }
            for dst in 1..self.size {
                Self::chk(self.fabric.send_token(self.rank, dst, tag));
            }
        } else {
            Self::chk(self.fabric.send_token(self.rank, 0, tag));
            Self::chk(self.fabric.recv(self.rank, 0, tag));
        }
    }

    /// Allreduce: reduce onto rank 0, then broadcast the result.
    pub fn allreduce(&self, op: ReduceOp, data: &[Tf64]) -> Vec<Tf64> {
        let reduced = self.reduce(op, data);
        self.bcast(reduced)
    }

    /// Scalar allreduce convenience.
    pub fn allreduce_scalar(&self, op: ReduceOp, x: Tf64) -> Tf64 {
        self.allreduce(op, &[x])[0]
    }

    /// Reduce `data` elementwise onto rank 0: `Some(result)` there, `None`
    /// elsewhere. The fan-in half of [`Comm::allreduce`].
    fn reduce(&self, op: ReduceOp, data: &[Tf64]) -> Option<Vec<Tf64>> {
        let tag = self.next_coll_tag();
        if self.rank != 0 {
            self.post(0, tag, data.to_vec());
            return None;
        }
        // Receives are matched by source in rank order, so folding each
        // contribution as it arrives is the fixed order 0,1,…,p−1
        // whatever order the messages were sent in.
        let mut acc = data.to_vec();
        for src in 1..self.size {
            let part = self.recv(src, tag);
            assert_eq!(
                part.len(),
                acc.len(),
                "reduce: length mismatch across ranks"
            );
            for (a, &b) in acc.iter_mut().zip(&part) {
                *a = op.combine(*a, b);
            }
        }
        Some(acc)
    }

    /// Rank 0's `data` (`Some` exactly there) on every rank. The fan-out
    /// half of [`Comm::allreduce`].
    fn bcast(&self, data: Option<Vec<Tf64>>) -> Vec<Tf64> {
        let tag = self.next_coll_tag();
        match data {
            Some(data) => {
                for dst in 1..self.size {
                    self.post(dst, tag, data.clone());
                }
                data
            }
            None => self.recv(0, tag),
        }
    }

    /// Gather every rank's buffer at rank 0, which concatenates them in
    /// rank order as they arrive. The fan-in half of [`Comm::allgather`].
    fn gather(&self, data: &[Tf64]) -> Option<Gathered> {
        let tag = self.next_coll_tag();
        if self.rank != 0 {
            self.post(0, tag, data.to_vec());
            return None;
        }
        // Sized for equal parts; uneven ones grow it.
        let mut flat = Vec::with_capacity(data.len() * self.size);
        let mut counts = Vec::with_capacity(self.size);
        flat.extend_from_slice(data);
        counts.push(data.len());
        for src in 1..self.size {
            let part = self.recv(src, tag);
            flat.extend_from_slice(&part);
            counts.push(part.len());
        }
        Some(Gathered { flat, counts })
    }

    /// Allgather: every rank receives every rank's buffer, as one
    /// rank-ordered concatenation plus per-rank counts. Buffers may have
    /// different lengths (allgatherv semantics).
    pub fn allgather(&self, data: &[Tf64]) -> Gathered {
        let gathered = self.gather(data);
        if self.size == 1 {
            return gathered.expect("serial gather");
        }
        // Fan out a length table, then the concatenation.
        let tag = self.next_coll_tag();
        if let Some(all) = gathered {
            let lens: Vec<Tf64> = all.counts.iter().map(|&n| Tf64::new(n as f64)).collect();
            for dst in 1..self.size {
                self.post(dst, tag, lens.clone());
                self.post(dst, tag, all.flat.clone());
            }
            return all;
        }
        // Only the buffer is reported to the injection context as a
        // received payload; the table is bookkeeping.
        let lens = Self::chk(self.fabric.recv(self.rank, 0, tag));
        // The buffer that arrived is the buffer returned. The table
        // crossed the wire too (`--fault-model msg` may have hit it): it
        // alone decides where the parts are, as when every part was cut
        // out by it.
        let mut flat = self.recv(0, tag);
        let counts: Vec<usize> = lens.iter().map(|len| len.value() as usize).collect();
        let total = counts
            .iter()
            .try_fold(0usize, |sum, &n| sum.checked_add(n))
            .filter(|&total| total <= flat.len())
            .unwrap_or_else(|| {
                panic!(
                    "allgather: length table {counts:?} overruns {} elements",
                    flat.len()
                )
            });
        flat.truncate(total);
        Gathered { flat, counts }
    }

    /// All-to-all with per-destination buffers: `outgoing[d]` goes to rank
    /// `d`; returns `incoming[s]` from each rank `s`. (The FT transpose
    /// backbone.)
    pub fn alltoallv(&self, outgoing: Vec<Vec<Tf64>>) -> Vec<Vec<Tf64>> {
        assert_eq!(
            outgoing.len(),
            self.size,
            "alltoallv: need one buffer per rank"
        );
        let tag = self.next_coll_tag();
        let mut incoming: Vec<Vec<Tf64>> = vec![Vec::new(); self.size];
        for (dst, buf) in outgoing.into_iter().enumerate() {
            if dst == self.rank {
                incoming[dst] = buf;
            } else {
                self.post(dst, tag, buf);
            }
        }
        for (src, slot) in incoming.iter_mut().enumerate() {
            if src != self.rank {
                *slot = self.recv(src, tag);
            }
        }
        incoming
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn reduce_op_combine() {
        let a = Tf64::new(3.0);
        let b = Tf64::new(5.0);
        assert_eq!(ReduceOp::Sum.combine(a, b).value(), 8.0);
        assert_eq!(ReduceOp::Min.combine(a, b).value(), 3.0);
        assert_eq!(ReduceOp::Max.combine(a, b).value(), 5.0);
    }

    #[test]
    fn combine_preserves_world_separation() {
        let a = Tf64::from_parts(1.0, 10.0);
        let b = Tf64::from_parts(2.0, 20.0);
        let s = ReduceOp::Sum.combine(a, b);
        assert_eq!(s.value(), 3.0);
        assert_eq!(s.shadow(), 30.0);
        assert!(s.is_tainted());
    }

    #[test]
    fn combine_min_can_mask_taint() {
        // Corrupted world picks 1.0 (clean), shadow world picks 1.0 too.
        let corrupt = Tf64::from_parts(50.0, 2.0);
        let clean = Tf64::new(1.0);
        let m = ReduceOp::Min.combine(corrupt, clean);
        assert_eq!(m.value(), 1.0);
        // Shadow: min(2.0, 1.0) = 1.0 -> identical, taint masked.
        assert!(!m.is_tainted());
    }

    // Collective behaviour across the ranks of a real world.

    #[test]
    fn allreduce_sum_all_sizes() {
        for p in [1usize, 2, 3, 4, 8] {
            let world = World::new(p);
            let results = world.run(move |comm| {
                let x = [Tf64::new((comm.rank() + 1) as f64)];
                comm.allreduce(ReduceOp::Sum, &x)[0].value()
            });
            let expect = (p * (p + 1) / 2) as f64;
            for r in results {
                assert_eq!(r.result.unwrap(), expect, "p={p}");
            }
        }
    }

    #[test]
    fn gather_rank_ordered() {
        let world = World::new(4);
        let results = world.run(|comm| {
            let mine = vec![Tf64::new(comm.rank() as f64); comm.rank() + 1];
            comm.gather(&mine)
        });
        for (rank, r) in results.into_iter().enumerate() {
            let g = r.result.unwrap();
            if rank == 0 {
                let g = g.unwrap();
                for (i, part) in g.parts().enumerate() {
                    assert_eq!(part.len(), i + 1);
                    assert!(part.iter().all(|x| x.value() == i as f64));
                }
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        let world = World::new(3);
        let results = world.run(|comm| {
            let mine = vec![Tf64::new(comm.rank() as f64); comm.rank() + 1];
            let all = comm.allgather(&mine);
            all.parts().map(<[Tf64]>::len).collect::<Vec<_>>()
        });
        for r in results {
            assert_eq!(r.result.unwrap(), vec![1, 2, 3]);
        }
    }

    #[test]
    fn allgather_cuts_the_parts_by_the_length_table_it_was_sent() {
        // The table crosses the wire like any numeric message, so
        // `--fault-model msg` can hit it. What the receiver then holds is
        // decided by the table alone: a shrunk entry shifts and shortens
        // the parts, an entry that overruns the payload crashes the rank.
        use crate::{MsgFault, PanicKind};
        use resilim_inject::RankCtx;
        let run = |bit: u8| {
            // Rank 0's first numeric send is the table [3.0, 3.0].
            let fault = MsgFault {
                src: 0,
                msg_index: 0,
                elem_sel: 0,
                bit,
            };
            World::new(2).with_msg_fault(Some(fault)).run_with_ctx(
                |rank| Some(RankCtx::profiling(rank)),
                |comm| {
                    let mine = [Tf64::new(comm.rank() as f64); 3];
                    let all = comm.allgather(&mine);
                    let parts: Vec<Vec<f64>> = all
                        .parts()
                        .map(|p| p.iter().map(|x| x.value()).collect())
                        .collect();
                    (parts, all.into_flat().len())
                },
            )
        };
        // 3.0 -> 2.0 (top mantissa bit).
        let results = run(51);
        let (parts, flat_len) = results[1].result.as_ref().unwrap();
        assert_eq!(parts, &[vec![0.0, 0.0], vec![0.0, 1.0, 1.0]]);
        assert_eq!(*flat_len, 5);
        let (parts, flat_len) = results[0].result.as_ref().unwrap();
        assert_eq!(parts, &[vec![0.0; 3], vec![1.0; 3]], "the root is upstream");
        assert_eq!(*flat_len, 6);
        // 3.0 -> 6.0 (lowest exponent bit).
        let results = run(52);
        assert_eq!(
            results[1].result.as_ref().unwrap_err().kind,
            PanicKind::Crash
        );
    }

    #[test]
    fn alltoallv_transpose() {
        let p = 4;
        let world = World::new(p);
        let results = world.run(move |comm| {
            let me = comm.rank();
            // Send value me*10+dst to each dst.
            let outgoing: Vec<Vec<Tf64>> = (0..p)
                .map(|dst| vec![Tf64::new((me * 10 + dst) as f64)])
                .collect();
            let incoming = comm.alltoallv(outgoing);
            incoming
                .iter()
                .map(|b| b[0].value() as usize)
                .collect::<Vec<_>>()
        });
        for (rank, r) in results.into_iter().enumerate() {
            let inc = r.result.unwrap();
            let expect: Vec<usize> = (0..p).map(|src| src * 10 + rank).collect();
            assert_eq!(inc, expect);
        }
    }

    #[test]
    fn sendrecv_ring() {
        let p = 5;
        let world = World::new(p);
        let results = world.run(move |comm| {
            let me = comm.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let got = comm.sendrecv(right, left, 3, &[Tf64::new(me as f64)]);
            got[0].value() as usize
        });
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r.result.unwrap(), (rank + p - 1) % p);
        }
    }

    #[test]
    fn barrier_completes() {
        let world = World::new(6);
        let results = world.run(|comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            true
        });
        assert!(results.into_iter().all(|r| r.result.unwrap()));
    }

    #[test]
    fn barrier_tokens_are_not_numeric_sends() {
        // A barrier's tokens are scheduled like any message, but they
        // never enter a rank's send profile or the wire-fault index:
        // otherwise the fault armed on rank 0's first numeric send would
        // fire on a token, and golden profiles would count barriers.
        use crate::MsgFault;
        use resilim_inject::RankCtx;
        let fault = MsgFault {
            src: 0,
            msg_index: 0,
            elem_sel: 0,
            bit: 52,
        };
        let run = |send: bool| {
            World::new(4).with_msg_fault(Some(fault)).run_with_ctx(
                |rank| Some(RankCtx::profiling(rank)),
                move |comm| {
                    comm.barrier();
                    if send && comm.rank() == 0 {
                        comm.send(1, 0, &[Tf64::new(1.0)]);
                    }
                    if send && comm.rank() == 1 {
                        comm.recv(0, 0);
                    }
                    comm.barrier();
                },
            )
        };
        for o in run(false) {
            let report = o.ctx_report.expect("profiling context");
            assert_eq!(report.profile.msgs_sent, 0, "rank {}", o.rank);
            assert_eq!(report.wire_fired, 0, "rank {}", o.rank);
            assert!(!report.contaminated, "rank {}", o.rank);
        }
        // Control: one numeric message is counted and takes the fault.
        let control = run(true);
        let sender = control[0].ctx_report.as_ref().unwrap();
        assert_eq!(sender.profile.msgs_sent, 1);
        assert_eq!(sender.wire_fired, 1);
        assert!(control[1].ctx_report.as_ref().unwrap().contaminated);
    }

    #[test]
    fn deterministic_reduction_order() {
        // Sum of values whose FP addition is order-sensitive; two runs must
        // agree bitwise.
        let run_once = || {
            let world = World::new(8);
            let results = world.run(|comm| {
                let x = [Tf64::new(0.1 * (comm.rank() as f64 + 1.0))];
                comm.allreduce(ReduceOp::Sum, &x)[0].value().to_bits()
            });
            results
                .into_iter()
                .map(|r| r.result.unwrap())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run_once(), run_once());
    }
}
