//! The operands each tracked op sees are pinned, not only what a trial
//! makes of them.
//!
//! `outcome_pin` holds every outcome and feature record of a small
//! campaign, but an app kernel that writes `b + a` where it wrote `a + b`
//! leaves those untouched: the sum is bitwise the same, so the same
//! trials fail the same way. The injection sample space is not the same,
//! though — a flip of operand A now corrupts the other value. This suite
//! pins the sample space itself for every app at p = 1, 4 and 8:
//!
//! * every rank's fault-free [`OpProfile`] (per-region, per-kind op counts
//!   and messages sent), and
//! * 32 seeded single-target runs whose operand alternates A/B and whose
//!   op index is uniform over the target rank's injectable ops: the kind,
//!   the operand bits before and after the flip and the masked-at-site
//!   flag of every fired record, plus rank 0's digest bits.
//!
//! A kernel rewrite may change index arithmetic, loop nesting, slices and
//! allocations; it may not change the sequence of tracked ops, their
//! operand order, their region marks or the messages, and this table is
//! what says so.

use resilim_apps::App;
use resilim_harness::GoldenRun;
use resilim_inject::{InjectionPlan, OpProfile, Operand, RankCtx, Region, Target};
use resilim_simmpi::World;

/// Single-target runs per `(app, procs)`.
const RUNS: u64 = 32;

/// `(app, procs, profile digest, fired-record digest)`, recorded before
/// the kernels were rewritten to hoist their index arithmetic.
const PINNED: [(App, usize, u64, u64); 18] = [
    (App::Cg, 1, 0xe706f3b7b378290e, 0x3e07cf6c7d8a0878),
    (App::Ft, 1, 0x6822280b81222480, 0xf9eb0fa66e56ba40),
    (App::Mg, 1, 0x385bb36b8210dc35, 0xcd8af89fe9bb644e),
    (App::Lu, 1, 0xfef294e4cfe922d1, 0xde074725bd83956e),
    (App::MiniFe, 1, 0xbbc3d9d5d27929c4, 0x1cc39ac0a47a2508),
    (App::Pennant, 1, 0xf5e2f9ca40236df6, 0x46ecfbc263b23ad2),
    (App::Cg, 4, 0x2a5f591f5b6751b9, 0x001a9b2ad072c406),
    (App::Ft, 4, 0x0d1a7501f238ee5b, 0x43979a5c5c7d1005),
    (App::Mg, 4, 0xa9db7fb04df72f9f, 0x9f78b09a61cedeee),
    (App::Lu, 4, 0x335d4dcdae9758eb, 0x67b95db167864763),
    (App::MiniFe, 4, 0xd235720440186ffa, 0xfdc55bdb8df3783d),
    (App::Pennant, 4, 0x1d1bf93c2eeffae2, 0x77086082ba0bc3b8),
    (App::Cg, 8, 0x28f916f23a76394a, 0xa3038f6cbd045bdd),
    (App::Ft, 8, 0xd8244bbe715d7ac7, 0xb05fd827a7e1a29d),
    (App::Mg, 8, 0x48c66802027a1b43, 0x0698478c777645c0),
    (App::Lu, 8, 0xf771a01831b1a807, 0xe568661a1d6d109b),
    (App::MiniFe, 8, 0xd7b6dfec6e8ce015, 0x9b73c4c7e3357934),
    (App::Pennant, 8, 0xdfd5abd310ad2e1b, 0x77a7a9867927538f),
];

/// FNV-1a, fed one `u64` (little-endian) at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64: the test's own seeded stream, independent of the
/// harness's trial planner.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn profile_digest(profiles: &[OpProfile]) -> u64 {
    let mut h = Fnv::new();
    for p in profiles {
        for region in &p.regions {
            region.per_kind.iter().for_each(|&n| h.word(n));
        }
        h.word(p.msgs_sent);
    }
    h.0
}

fn fired_digest(golden: &GoldenRun, seed: u64) -> u64 {
    let procs = golden.procs;
    let op_cap = golden.op_cap();
    let mut rng = seed;
    let mut h = Fnv::new();
    for run in 0..RUNS {
        let rank = (splitmix(&mut rng) % procs as u64) as usize;
        let profile = &golden.profiles[rank];
        let common = profile.injectable(Region::Common);
        let total = profile.injectable_total();
        assert!(total > 0, "rank {rank} has no injectable ops");
        let index = splitmix(&mut rng) % total;
        let (region, op_index) = if index < common {
            (Region::Common, index)
        } else {
            (Region::ParallelUnique, index - common)
        };
        let target = Target {
            region,
            op_index,
            bit: (splitmix(&mut rng) % 64) as u8,
            operand: if run % 2 == 0 { Operand::A } else { Operand::B },
        };
        let spec = golden.spec.clone();
        let results = World::new(procs).run_with_ctx(
            |r| {
                let plan = if r == rank {
                    InjectionPlan::single(target)
                } else {
                    InjectionPlan::none()
                };
                Some(RankCtx::new(r, plan).with_op_cap(op_cap))
            },
            move |comm| spec.run_rank(comm),
        );
        for r in &results {
            let report = r.ctx_report.as_ref().expect("context installed");
            for f in &report.fired {
                h.word(f.kind as u64);
                h.word(f.before.to_bits());
                h.word(f.after.to_bits());
                h.word(u64::from(f.masked_at_site));
            }
        }
        match &results[0].result {
            Ok(out) => out.digest.iter().for_each(|d| h.word(d.to_bits())),
            Err(_) => h.word(u64::MAX),
        }
    }
    h.0
}

#[test]
fn golden_profiles_and_fired_operands_are_unchanged() {
    let mut measured = Vec::new();
    for (app, procs, ..) in PINNED {
        let golden = GoldenRun::measure(&app.default_spec(), procs);
        let seed = 7 ^ ((app as u64) << 8) ^ procs as u64;
        measured.push((
            app,
            procs,
            profile_digest(&golden.profiles),
            fired_digest(&golden, seed),
        ));
    }
    assert_eq!(
        measured, PINNED,
        "an op count, a message count or a fired operand changed"
    );
}
