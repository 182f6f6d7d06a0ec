//! Every charged kernel block counts exactly the ops it runs.
//!
//! A block's ops are counted up front from sizes (`Block::ops`) and the
//! block then runs hook-free, so a count that is off by one op shifts
//! every later injectable index without any op going through a hook to
//! notice. This suite runs every app at p = 1, 4 and 8 twice:
//!
//! * a profiling run, where every block is charged and runs hook-free;
//! * the same run on a context that was put into watching mode first (a
//!   value born tainted below θ, then discarded), where every block is
//!   refused and runs op by op through the hooks, which count each op.
//!
//! Every rank's per-region, per-kind op profile, its messages sent and
//! its digest must be the same in both.

use resilim_apps::App;
use resilim_inject::{OpProfile, RankCtx, Tf64};
use resilim_simmpi::World;

/// Per rank: the op profile and the digest bits (`None` if it failed).
fn run(app: App, procs: usize, per_op: bool) -> Vec<(OpProfile, Option<Vec<u64>>)> {
    let spec = app.default_spec();
    let results = World::new(procs).run_with_ctx(
        |r| {
            let ctx = RankCtx::profiling(r);
            Some(if per_op {
                ctx.with_taint_threshold(1e-3)
            } else {
                ctx
            })
        },
        move |comm| {
            if per_op {
                // Born tainted below θ on an uncontaminated context: it
                // watches from here on, and nothing it computes diverges.
                let _ = Tf64::from_parts(1.0, 1.0 + f64::EPSILON);
            }
            spec.run_rank(comm)
        },
    );
    results
        .into_iter()
        .map(|r| {
            let report = r.ctx_report.expect("context installed");
            assert!(!report.contaminated, "{app} p={procs}: nothing diverges");
            let digest = r
                .result
                .ok()
                .map(|out| out.digest.iter().map(|d| d.to_bits()).collect());
            (report.profile, digest)
        })
        .collect()
}

#[test]
fn charged_blocks_count_what_per_op_runs_count() {
    for app in App::ALL {
        for procs in [1, 4, 8] {
            let charged = run(app, procs, false);
            let per_op = run(app, procs, true);
            assert!(charged.iter().all(|(_, d)| d.is_some()), "{app} p={procs}");
            for (rank, (c, p)) in charged.iter().zip(&per_op).enumerate() {
                assert_eq!(c, p, "{app} p={procs} rank {rank}: charged vs per-op");
            }
        }
    }
}
