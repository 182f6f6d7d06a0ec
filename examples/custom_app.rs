//! Plugging *your own* application into the injection substrate: write a
//! rank body on tracked scalars, run it under a [`World`], inject faults,
//! and watch contamination spread — without the campaign harness.
//!
//! The "application" here is a tiny distributed Jacobi relaxation on a
//! ring; everything is built from the public API of `resilim-inject` and
//! `resilim-simmpi`.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use resilim::inject::{ctx, InjectionPlan, Operand, RankCtx, Region, Target, Tf64};
use resilim::simmpi::{ReduceOp, World};

const RANKS: usize = 8;
const CELLS_PER_RANK: usize = 16;
const SWEEPS: usize = 30;

/// One rank of a ring-coupled Jacobi relaxation; returns the global
/// energy of the final field (a stand-in for "application output").
fn rank_body(comm: &resilim::simmpi::Comm) -> f64 {
    let me = comm.rank();
    let p = comm.size();
    // Initial condition: a smooth global ramp (every cell non-zero).
    let mut u: Vec<Tf64> = (0..CELLS_PER_RANK)
        .map(|i| Tf64::new(1.0 + 0.1 * (me * CELLS_PER_RANK + i) as f64))
        .collect();

    for sweep in 0..SWEEPS {
        // Exchange boundary cells around the ring.
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let from_left = comm.sendrecv(right, left, sweep as u64, &[u[CELLS_PER_RANK - 1]]);
        let from_right = comm.sendrecv(left, right, 1000 + sweep as u64, &[u[0]]);

        // Jacobi update with the halo values.
        let mut next = u.clone();
        for i in 0..CELLS_PER_RANK {
            let l = if i == 0 { from_left[0] } else { u[i - 1] };
            let r = if i + 1 == CELLS_PER_RANK {
                from_right[0]
            } else {
                u[i + 1]
            };
            next[i] = (l + r + u[i] + u[i]) * 0.25;
        }
        u = next;
    }
    // Output: global energy (sum of squares) — unlike the mean, this is
    // not conserved by the relaxation, so corruption shows up in it.
    let energy = resilim::inject::tf64::dot(&u, &u);
    comm.allreduce_scalar(ReduceOp::Sum, energy).value()
}

fn main() {
    // 1. Fault-free profiling run: how many injectable FP ops per rank?
    let world = World::new(RANKS);
    let clean = world.run_with_ctx(|rank| Some(RankCtx::profiling(rank)), rank_body);
    let golden = *clean[0].result.as_ref().unwrap();
    let ops = clean[0]
        .ctx_report
        .as_ref()
        .unwrap()
        .profile
        .injectable(Region::Common);
    println!("fault-free output {golden:.6}, {ops} injectable ops per rank");

    // 2. Inject a high-bit flip into rank 3, a third of the way in.
    let plan = InjectionPlan::single(Target {
        region: Region::Common,
        op_index: ops / 3,
        bit: 54, // exponent bit: a large-magnitude corruption
        operand: Operand::A,
    });
    let faulty = world.run_with_ctx(
        move |rank| {
            let p = if rank == 3 {
                plan.clone()
            } else {
                InjectionPlan::none()
            };
            Some(RankCtx::new(rank, p))
        },
        rank_body,
    );

    // 3. Observe the corruption and its spread.
    let corrupted = *faulty[0].result.as_ref().unwrap();
    let contaminated: Vec<usize> = faulty
        .iter()
        .filter(|r| r.ctx_report.as_ref().unwrap().contaminated)
        .map(|r| r.rank)
        .collect();
    println!("corrupted output  {corrupted:.6} (fault-free {golden:.6})");
    println!("contaminated ranks: {contaminated:?}");
    let fired = faulty[3].ctx_report.as_ref().unwrap().fired[0];
    println!(
        "the fault: bit {} of a {:?} operand, {} -> {}",
        fired.target.bit, fired.kind, fired.before, fired.after
    );

    // 4. A low-bit flip for contrast: usually absorbed by rounding.
    let plan = InjectionPlan::single(Target {
        region: Region::Common,
        op_index: ops / 3,
        bit: 0,
        operand: Operand::A,
    });
    let subtle = world.run_with_ctx(
        move |rank| {
            let p = if rank == 3 {
                plan.clone()
            } else {
                InjectionPlan::none()
            };
            Some(RankCtx::new(rank, p).with_taint_threshold(1e-9))
        },
        rank_body,
    );
    let out = *subtle[0].result.as_ref().unwrap();
    let spread = subtle
        .iter()
        .filter(|r| r.ctx_report.as_ref().unwrap().contaminated)
        .count();
    println!(
        "\nlow-bit flip for contrast: output {out:.6}, {spread} rank(s) significantly contaminated"
    );
    // A final sanity check so the example doubles as a smoke test.
    assert!((out - golden).abs() / golden.abs() < 1e-3);
    ctx::take();
}
