//! Property-based tests for the tracked-scalar algebra and injection plans.

use proptest::prelude::*;
use resilim_inject::{ctx, InjectionPlan, OpKind, OpMask, Operand, RankCtx, Region, Target, Tf64};
use std::collections::VecDeque;

fn finite_f64() -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL | prop::num::f64::SUBNORMAL | prop::num::f64::ZERO
}

/// One step of the differential programs below: `acc = acc <op> const`
/// (or `acc = |acc|`), executed inside `region`. The constant is born
/// tainted when `c_shadow` differs from `c`: the hooked run builds it
/// with `Tf64::from_parts` under the installed context.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: u8,
    c: f64,
    c_shadow: f64,
    region: Region,
}

/// Relative taints a born-tainted constant or a received element carries,
/// clean first: against the thresholds below, each is under some θ and
/// over others, and 6e-10 and 6e-4 sit just under one, so that a product
/// of two such values or one cancellation in a subtraction carries their
/// taint over it.
const TAINTS: [f64; 7] = [0.0, 1e-15, 6e-10, 1e-6, 6e-4, 1e-2, 1.0];

/// The significance thresholds a scenario runs under (0 = bitwise).
const THETAS: [f64; 3] = [0.0, 1e-9, 1e-3];

/// `(value, shadow)` of a tracked scalar whose corrupted world is `x`
/// off by the relative amount `rel`.
fn tainted(x: f64, rel: f64) -> (f64, f64) {
    (x + x * rel, x)
}

/// Number of distinct step ops; the last one is unary.
const STEP_OPS: u8 = 7;
const STEP_ABS: u8 = 6;

fn step_kind(op: u8) -> OpKind {
    match op {
        0 => OpKind::Add,
        1 => OpKind::Sub,
        2 => OpKind::Mul,
        3 => OpKind::Div,
        _ => OpKind::Other, // min / max / abs
    }
}

fn step_apply(op: u8, a: f64, b: f64) -> f64 {
    match op {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => a.min(b),
        5 => a.max(b),
        _ => a.abs(),
    }
}

fn step_tf64(op: u8, a: Tf64, b: Tf64) -> Tf64 {
    match op {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => a.min(b),
        5 => a.max(b),
        _ => a.abs(),
    }
}

/// What happens to the installed context between two steps.
#[derive(Debug, Clone, Copy)]
enum Interlude {
    /// `ctx::take`; a different context installed, worked and taken, as
    /// another rank's time slice does; `ctx::install`.
    Park,
    /// `ctx::with`: the context is re-packed around a closure and
    /// exploded again. The closure reads the exact op total.
    With,
    /// Take the context, change its mask, install it. The injectable
    /// index is the sum of the masked kinds' counts, so this is the one
    /// way to a target whose index is already *behind* the counters at
    /// install: it never fires, and it blocks everything queued after it.
    Remask(OpMask),
    /// A message arrives: its `(value, shadow)` elements, built before
    /// the context was installed (on the sending rank, as it were), go
    /// through `ctx::note_values`, and the first one is the next step's
    /// operand in place of its constant.
    Recv([(f64, f64); 2]),
}

/// The masks a scenario draws from.
fn masks() -> Vec<OpMask> {
    vec![
        OpMask::FP_ARITH,
        OpMask::DIV,
        OpMask::ALL,
        OpMask::of(&[OpKind::Add]),
        OpMask::of(&[OpKind::Mul]),
        OpMask::of(&[OpKind::Other]),
        OpMask::of(&[OpKind::Sub, OpKind::Div]),
        OpMask::empty(),
    ]
}

/// Execution-order list of injectable (region, op_index) slots for a
/// program under `mask`, plus which slots sit right after a region switch.
fn injectable_slots(steps: &[Step], mask: OpMask) -> (Vec<(Region, u64)>, Vec<usize>) {
    let mut slots = Vec::new();
    let mut boundary_slots = Vec::new();
    let mut inj = [0u64; 2];
    let mut pending_boundary = false;
    let mut prev_region = None;
    for s in steps {
        if prev_region.is_some() && prev_region != Some(s.region) {
            pending_boundary = true;
        }
        prev_region = Some(s.region);
        if mask.contains(step_kind(s.op)) {
            let r = s.region.index();
            slots.push((s.region, inj[r]));
            inj[r] += 1;
            if pending_boundary {
                boundary_slots.push(slots.len() - 1);
                pending_boundary = false;
            }
        }
    }
    (slots, boundary_slots)
}

/// Everything a run is compared on.
#[derive(Debug, Default, PartialEq)]
struct RunResult {
    /// Final (value bits, shadow bits); `None` when the run did not reach
    /// its end.
    end: Option<(u64, u64)>,
    /// (target, before bits, after bits, masked at site), firing order.
    fired: Vec<(Target, u64, u64, bool)>,
    contaminated: bool,
    first_contam_op: Option<u64>,
    msgs_recvd: u64,
    tainted_msgs_recvd: u64,
    per_kind: [[u64; 5]; 2],
    /// Per region: ops of the kinds in the mask the run ended under.
    injectable: [u64; 2],
    hang_guard_tripped: bool,
    /// DUE kill at the first firing op.
    killed: bool,
}

fn masked_count(per_kind: &[u64; 5], mask: OpMask) -> u64 {
    OpKind::ALL
        .into_iter()
        .filter(|k| mask.contains(*k))
        .map(|k| per_kind[k.index()])
        .sum()
}

/// The parameters of one differential scenario.
#[derive(Debug, Clone)]
struct Scenario {
    init: f64,
    steps: Vec<Step>,
    targets: Vec<Target>,
    mask: OpMask,
    op_cap: u64,
    kill_on_fire: bool,
    /// Contamination significance threshold.
    theta: f64,
    /// `(before step, what)`; a position equal to the program length is
    /// after the last step.
    interludes: Vec<(usize, Interlude)>,
}

/// Reference ("slow-path") interpreter: the same semantics as the hook
/// machinery, written as straight-line code over plain `(value, shadow)`
/// pairs with no thread-locals, no `Cell`s, no budgets, no modes and no
/// outlined fire path: every op is counted, compared against the cap and,
/// when its kind is masked, against the front target, and every result's
/// two worlds are compared at θ.
fn reference_run(sc: &Scenario) -> RunResult {
    // Same canonical ordering the plan gives the real run.
    let sorted = InjectionPlan::multi(sc.targets.clone());
    let mut queues: [VecDeque<Target>; 2] = [VecDeque::new(), VecDeque::new()];
    for &t in sorted.targets() {
        queues[t.region.index()].push_back(t);
    }
    let (mut v, mut sh) = (sc.init, sc.init);
    let mut mask = sc.mask;
    let mut total = 0u64;
    let mut out = RunResult::default();
    let significant = |v: f64, sh: f64| ctx::significant_divergence(v, sh, sc.theta);
    let contaminate = |out: &mut RunResult, total: u64| {
        if !out.contaminated {
            out.contaminated = true;
            out.first_contam_op = Some(total);
        }
    };
    // The interludes the reference has to know of: a remask, and a
    // message (counted, stamped when any element is significantly
    // tainted, its first element held for the next step).
    let interlude = |at: usize,
                     total: u64,
                     mask: &mut OpMask,
                     held: &mut Option<(f64, f64)>,
                     out: &mut RunResult| {
        for (_, what) in sc.interludes.iter().filter(|(pos, _)| *pos == at) {
            match what {
                Interlude::Remask(m) => *mask = *m,
                Interlude::Recv(payload) => {
                    out.msgs_recvd += 1;
                    if payload.iter().any(|&(v, sh)| significant(v, sh)) {
                        out.tainted_msgs_recvd += 1;
                        contaminate(out, total);
                    }
                    *held = Some(payload[0]);
                }
                Interlude::Park | Interlude::With => {}
            }
        }
    };
    let mut held = None;
    let mut steps = sc.steps.iter().enumerate();
    let ended = loop {
        let Some((i, s)) = steps.next() else {
            break true;
        };
        interlude(i, total, &mut mask, &mut held, &mut out);
        let r = s.region.index();
        let kind = step_kind(s.op);
        out.per_kind[r][kind.index()] += 1;
        total += 1;
        if total > sc.op_cap {
            out.hang_guard_tripped = true;
            break false;
        }
        let mut due: Vec<Target> = Vec::new();
        if mask.contains(kind) {
            let idx = masked_count(&out.per_kind[r], mask) - 1;
            while queues[r].front().is_some_and(|t| t.op_index == idx) {
                due.push(queues[r].pop_front().unwrap());
            }
        }
        let (mut av, ash) = (v, sh);
        let (mut bv, bsh) = held.take().unwrap_or((s.c, s.c_shadow));
        // On a unary op both operand names mean the one operand. Every
        // flip is recorded in queue order, all under one masked-at-site
        // flag.
        let unary = s.op == STEP_ABS;
        let mut recs: Vec<(Target, f64, f64)> = Vec::new();
        for &t in &due {
            let x = match t.operand {
                Operand::B if !unary => &mut bv,
                Operand::A | Operand::B => &mut av,
            };
            let before = *x;
            *x = t.apply(before);
            recs.push((t, before, *x));
        }
        let nv = step_apply(s.op, av, bv);
        let nsh = step_apply(s.op, ash, bsh);
        if !recs.is_empty() {
            let masked = nv.to_bits() == nsh.to_bits();
            for (t, before, after) in recs {
                out.fired
                    .push((t, before.to_bits(), after.to_bits(), masked));
            }
            contaminate(&mut out, total);
        }
        if sc.kill_on_fire && !due.is_empty() {
            out.killed = true;
            break false;
        }
        if significant(nv, nsh) {
            contaminate(&mut out, total);
        }
        v = nv;
        sh = nsh;
    };
    if ended {
        interlude(sc.steps.len(), total, &mut mask, &mut held, &mut out);
        out.end = Some((v.to_bits(), sh.to_bits()));
    }
    out.injectable = out.per_kind.map(|row| masked_count(&row, mask));
    out
}

/// The same scenario on the real hook machinery. Also returns what each
/// `With` interlude read as the op total, with what it should have read
/// (one op per step).
fn hooked_run(sc: &Scenario) -> (RunResult, Vec<(u64, u64)>) {
    // Messages are built where no context is installed, as on their
    // sender: only `note_values` can tell the receiving context of them.
    assert!(!ctx::is_installed(), "leaked context");
    let payloads: Vec<[Tf64; 2]> = sc
        .interludes
        .iter()
        .map(|(_, what)| match what {
            Interlude::Recv(p) => p.map(|(v, sh)| Tf64::from_parts(v, sh)),
            _ => [Tf64::ZERO; 2],
        })
        .collect();
    let prev = ctx::install(
        RankCtx::new(0, InjectionPlan::multi(sc.targets.clone()))
            .with_op_mask(sc.mask)
            .with_op_cap(sc.op_cap)
            .with_kill_on_fire(sc.kill_on_fire)
            .with_taint_threshold(sc.theta),
    );
    assert!(prev.is_none(), "leaked context");
    let mut totals = Vec::new();
    let interlude = |at: usize, totals: &mut Vec<(u64, u64)>, held: &mut Option<Tf64>| {
        let here = sc.interludes.iter().zip(&payloads);
        for ((_, what), payload) in here.filter(|((pos, _), _)| *pos == at) {
            match what {
                Interlude::Park => {
                    let parked = ctx::take().expect("installed");
                    // A guest whose every cell differs from the host's.
                    let guest = InjectionPlan::single(Target {
                        region: Region::Common,
                        op_index: 1,
                        bit: 40,
                        operand: Operand::A,
                    });
                    ctx::install(
                        RankCtx::new(9, guest)
                            .with_op_mask(OpMask::ALL)
                            .with_op_cap(1000),
                    );
                    let x = Tf64::new(2.0);
                    let y = (x * x + x).abs();
                    let guest = ctx::take().expect("guest").into_report();
                    assert_eq!((guest.profile.total(), guest.fired.len()), (3, 1));
                    assert!(y.is_tainted());
                    ctx::install(parked);
                }
                Interlude::With => {
                    let total = ctx::with(|c| c.profile().total()).expect("installed");
                    totals.push((total, at as u64));
                }
                Interlude::Remask(m) => {
                    let c = ctx::take().expect("installed");
                    ctx::install(c.with_op_mask(*m));
                }
                Interlude::Recv(_) => {
                    ctx::note_values(payload);
                    *held = Some(payload[0]);
                }
            }
        }
    };
    let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut acc = Tf64::new(sc.init);
        let mut held = None;
        for (i, s) in sc.steps.iter().enumerate() {
            interlude(i, &mut totals, &mut held);
            let _g = ctx::enter_region(s.region);
            let b = held
                .take()
                .unwrap_or_else(|| Tf64::from_parts(s.c, s.c_shadow));
            acc = step_tf64(s.op, acc, b);
        }
        interlude(sc.steps.len(), &mut totals, &mut held);
        (acc.value().to_bits(), acc.shadow().to_bits())
    }));
    let report = ctx::take().expect("installed").into_report();
    let killed = match &end {
        Ok(_) => false,
        Err(payload) => {
            let trip = payload.downcast_ref::<ctx::Trip>();
            *trip.expect("the only panics are the two trips") == ctx::Trip::Due
        }
    };
    assert_eq!(report.detected, killed);
    assert_eq!(report.planned, sc.targets.len());
    let result = RunResult {
        end: end.ok(),
        fired: report
            .fired
            .iter()
            .map(|f| {
                (
                    f.target,
                    f.before.to_bits(),
                    f.after.to_bits(),
                    f.masked_at_site,
                )
            })
            .collect(),
        contaminated: report.contaminated,
        first_contam_op: report.first_contam_op,
        msgs_recvd: report.msgs_recvd,
        tainted_msgs_recvd: report.tainted_msgs_recvd,
        per_kind: report.profile.regions.map(|c| c.per_kind),
        injectable: report.profile.regions.map(|c| c.injectable),
        hang_guard_tripped: report.hang_guard_tripped,
        killed,
    };
    (result, totals)
}

/// A relative taint drawn from `0..12`: clean about half the time.
fn taint_of(draw: usize) -> f64 {
    TAINTS.get(draw).copied().unwrap_or(0.0)
}

/// Strategy for a program with region switches and born-tainted
/// constants scattered through it.
fn program() -> impl Strategy<Value = (f64, Vec<Step>)> {
    let flags = (any::<bool>(), any::<bool>(), 0usize..12);
    let step = (0..STEP_OPS, 0.1f64..3.0, flags).prop_map(|(op, mag, (neg, parallel, taint))| {
        let (c, c_shadow) = tainted(if neg { -mag } else { mag }, taint_of(taint));
        Step {
            op,
            c,
            c_shadow,
            region: if parallel {
                Region::ParallelUnique
            } else {
                Region::Common
            },
        }
    });
    (-2.0f64..2.0, prop::collection::vec(step, 4..96))
}

/// Strategy for a whole scenario: a program, a mask, a hang cap drawn
/// over every position of the program (or out of reach), up to eight
/// targets — on the adversarial windows (first and last injectable op,
/// first one after each region switch), on arbitrary slots, on arbitrary
/// indices of either region (some past the end), and on or right after
/// the previous target's index — up to four interludes (messages among
/// them), a significance threshold, and born-tainted constants in half of
/// the programs.
fn scenario() -> impl Strategy<Value = Scenario> {
    let flips = prop::collection::vec((0usize..4096, 0u8..64, 0u8..2, 0u8..4), 0..9);
    let element = || (0.1f64..3.0, 0usize..12).prop_map(|(x, taint)| tainted(x, taint_of(taint)));
    let interludes = prop::collection::vec(
        (0usize..4096, 0u8..6, 0usize..8, (element(), element())),
        0..5,
    );
    let knobs = (
        (0usize..8, 0usize..160),
        (0u8..4, 0usize..THETAS.len(), any::<bool>()),
    );
    (program(), knobs, flips, interludes).prop_map(
        |((init, mut steps), knobs, flips, interludes)| {
            let ((mask, cap), (kill, theta, born)) = knobs;
            // Half the programs have no born-tainted constant, so
            // that a message is the only way their taint arrives.
            if !born {
                for s in &mut steps {
                    s.c_shadow = s.c;
                }
            }
            let n = steps.len();
            let mask = masks()[mask];
            let (slots, boundary_slots) = injectable_slots(&steps, mask);
            let mut windows: Vec<usize> = Vec::new();
            if !slots.is_empty() {
                windows.push(0);
                windows.push(slots.len() - 1);
                windows.extend(boundary_slots.iter().copied());
            }
            let mut targets: Vec<Target> = Vec::new();
            for (which, bit, operand, mode) in flips {
                let (region, op_index) = match (mode, targets.last()) {
                    (0, _) if !windows.is_empty() => slots[windows[which % windows.len()]],
                    (1, _) if !slots.is_empty() => slots[which % slots.len()],
                    (2, Some(prev)) => (prev.region, prev.op_index + (which % 2) as u64),
                    _ => (Region::ALL[(which / 1024) % 2], (which % (n + 4)) as u64),
                };
                targets.push(Target {
                    region,
                    op_index,
                    bit,
                    operand: if operand == 0 { Operand::A } else { Operand::B },
                });
            }
            Scenario {
                init,
                // Half the scenarios trip somewhere in the program;
                // the rest run under the harness's cap or none.
                op_cap: match cap {
                    c if c <= n => c as u64,
                    c if c % 2 == 0 => 8 * n as u64 + 100_000,
                    _ => u64::MAX,
                },
                kill_on_fire: kill == 0,
                theta: THETAS[theta],
                interludes: interludes
                    .into_iter()
                    .map(|(at, what, m, (first, second))| {
                        let what = match what {
                            0 => Interlude::Park,
                            1 => Interlude::With,
                            2 | 3 => Interlude::Remask(masks()[m]),
                            _ => Interlude::Recv([first, second]),
                        };
                        (at % (n + 1), what)
                    })
                    .collect(),
                steps,
                targets,
                mask,
            }
        },
    )
}

proptest! {
    /// Untainted inputs always produce untainted outputs whose value
    /// matches plain f64 arithmetic exactly.
    #[test]
    fn clean_arithmetic_is_transparent(a in finite_f64(), b in finite_f64()) {
        let ta = Tf64::new(a);
        let tb = Tf64::new(b);
        for (t, p) in [
            (ta + tb, a + b),
            (ta - tb, a - b),
            (ta * tb, a * b),
            (ta / tb, a / b),
            (ta.min(tb), a.min(b)),
            (ta.max(tb), a.max(b)),
        ] {
            prop_assert_eq!(t.value().to_bits(), p.to_bits());
            prop_assert!(!t.is_tainted());
        }
    }

    /// The shadow world always equals the arithmetic on shadows, and the
    /// corrupted world always equals the arithmetic on values — the two
    /// never cross-contaminate.
    #[test]
    fn worlds_stay_separate(
        av in finite_f64(), ash in finite_f64(),
        bv in finite_f64(), bsh in finite_f64(),
    ) {
        let a = Tf64::from_parts(av, ash);
        let b = Tf64::from_parts(bv, bsh);
        let s = a * b + a;
        prop_assert_eq!(s.value().to_bits(), (av * bv + av).to_bits());
        prop_assert_eq!(s.shadow().to_bits(), (ash * bsh + ash).to_bits());
    }

    /// Taint is exactly "bits differ": deciding taintedness after any op
    /// chain is equivalent to comparing the two worlds.
    #[test]
    fn taint_iff_bits_differ(v in finite_f64(), sh in finite_f64()) {
        let t = Tf64::from_parts(v, sh);
        prop_assert_eq!(t.is_tainted(), v.to_bits() != sh.to_bits());
    }

    /// A double application of the same target restores the value.
    #[test]
    fn flip_is_involutive(x in finite_f64(), bit in 0u8..64) {
        let t = Target { region: Region::Common, op_index: 0, bit, operand: Operand::A };
        prop_assert_eq!(t.apply(t.apply(x)).to_bits(), x.to_bits());
        prop_assert_ne!(t.apply(x).to_bits(), x.to_bits());
    }

    /// Multi-target plans keep all targets and sort them by
    /// (region, op_index).
    #[test]
    fn plan_sorting(indices in prop::collection::vec(0u64..1000, 0..20)) {
        let targets: Vec<Target> = indices.iter().map(|&i| Target {
            region: if i % 3 == 0 { Region::ParallelUnique } else { Region::Common },
            op_index: i,
            bit: (i % 64) as u8,
            operand: Operand::A,
        }).collect();
        let plan = InjectionPlan::multi(targets.clone());
        prop_assert_eq!(plan.len(), targets.len());
        let sorted = plan.targets();
        for w in sorted.windows(2) {
            prop_assert!((w[0].region, w[0].op_index) <= (w[1].region, w[1].op_index));
        }
    }

    /// For any chain of clean ops with a single injected bit-flip, the
    /// shadow equals the completely uninstrumented computation.
    #[test]
    fn shadow_equals_fault_free_run(
        xs in prop::collection::vec(-1e3f64..1e3, 3..40),
        target_idx in 0u64..20,
        bit in 0u8..64,
    ) {
        // Fault-free reference.
        let mut reference = 1.0f64;
        for &x in &xs {
            reference = reference * 0.5 + x;
        }

        let plan = InjectionPlan::single(Target {
            region: Region::Common,
            op_index: target_idx,
            bit,
            operand: Operand::B,
        });
        ctx::install(RankCtx::new(0, plan));
        let mut acc = Tf64::new(1.0);
        for &x in &xs {
            acc = acc * 0.5 + x;
        }
        let report = ctx::take().unwrap().into_report();
        prop_assert_eq!(acc.shadow().to_bits(), reference.to_bits());
        // If the fault fired and the result is tainted, the rank must be
        // contaminated.
        if acc.is_tainted() {
            prop_assert!(report.contaminated);
            prop_assert_eq!(report.fired.len(), 1);
        }
    }

    /// Op counting is independent of injection: a plan never changes how
    /// many dynamic ops are counted.
    #[test]
    fn counting_independent_of_plan(n in 1usize..50, target_idx in 0u64..100) {
        let run = |plan: InjectionPlan| {
            ctx::install(RankCtx::new(0, plan));
            let mut acc = Tf64::new(0.0);
            for i in 0..n {
                acc += i as f64;
            }
            ctx::take().unwrap().into_report()
        };
        let clean = run(InjectionPlan::none());
        let injected = run(InjectionPlan::single(Target {
            region: Region::Common,
            op_index: target_idx,
            bit: 12,
            operand: Operand::A,
        }));
        prop_assert_eq!(clean.profile.injectable(Region::Common), n as u64);
        prop_assert_eq!(
            injected.profile.injectable(Region::Common),
            clean.profile.injectable(Region::Common)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Differential identity between the hook machinery (the "fast
    /// path": exploded thread-local cells, per-(region, kind) op budgets,
    /// outlined `#[cold]` checked-op and fire functions) and a
    /// straight-line reference interpreter that counts and checks every
    /// op and compares every result. Whatever mask, hang cap, plan, kill
    /// switch and threshold the scenario draws, whichever constants are
    /// born tainted, and wherever the context is parked under another
    /// one, re-packed by `ctx::with`, re-masked or handed a message with
    /// taint under or over the threshold: the run trips or dies at
    /// exactly the reference's op or ends on the same value and shadow
    /// bits, with the same fired records (order, before/after bits,
    /// masked flags), contamination, first-contamination op, message and
    /// taint-crossing counts and per-kind counts — and the op total reads
    /// exact whenever it is looked at.
    #[test]
    fn fast_path_matches_reference(sc in scenario()) {
        let want = reference_run(&sc);
        let (got, totals) = hooked_run(&sc);
        prop_assert_eq!(&got, &want, "{:?}", sc);
        for (read, executed) in totals {
            prop_assert_eq!(read, executed, "{:?}", sc);
        }
    }
}

/// Operands of every op of a charge scenario: `A op B`.
const OP_A: f64 = 1.25;
const OP_B: f64 = 0.75;

/// The op of kind `k` ([`OpKind::index`]) a charge scenario runs.
fn kind_apply(k: usize, a: f64, b: f64) -> f64 {
    step_apply(if k == 4 { 4 } else { k as u8 }, a, b)
}

fn kind_tf64(k: usize, a: Tf64, b: Tf64) -> Tf64 {
    step_tf64(if k == 4 { 4 } else { k as u8 }, a, b)
}

/// One step of a charge scenario.
#[derive(Debug, Clone, Copy)]
enum Charged {
    /// One hooked op of kind `.0` in region `.1`.
    Op(usize, Region),
    /// A block of `.0[k]` ops of kind `k` in region `.1`: charged at
    /// once, or — refused — run op by op, the kinds in index order.
    Block([u64; 5], Region),
    /// A value born tainted on the context (and discarded): an
    /// uncontaminated context starts watching.
    Watch,
    /// Take the context off the thread and put it back.
    Park,
    /// Take the context, change its mask, install it.
    Remask(OpMask),
}

#[derive(Debug, Clone)]
struct ChargeScenario {
    steps: Vec<Charged>,
    targets: Vec<Target>,
    mask: OpMask,
    op_cap: u64,
    kill_on_fire: bool,
}

/// What a charge scenario is compared on: after every step, the exact
/// per-kind counts and, for a block, whether it was charged; at the end,
/// everything the report says.
#[derive(Debug, Default, PartialEq)]
struct ChargeResult {
    /// Per step: the per-kind counts after it, and `Some(charged)` for a
    /// block.
    trace: Vec<([[u64; 5]; 2], Option<bool>)>,
    fired: Vec<(Target, u64, u64, bool)>,
    contaminated: bool,
    first_contam_op: Option<u64>,
    per_kind: [[u64; 5]; 2],
    hang_guard_tripped: bool,
    killed: bool,
}

/// Reference for a charge scenario: every op counted, capped and matched
/// against the front target one by one; a block is charged exactly when
/// the context is not watching and the block holds neither its region's
/// front target nor an op past the cap, and is otherwise run op by op.
fn charge_reference(sc: &ChargeScenario) -> ChargeResult {
    let sorted = InjectionPlan::multi(sc.targets.clone());
    let mut queues: [VecDeque<Target>; 2] = [VecDeque::new(), VecDeque::new()];
    for &t in sorted.targets() {
        queues[t.region.index()].push_back(t);
    }
    let mut mask = sc.mask;
    let mut total = 0u64;
    let mut born = false;
    let mut out = ChargeResult::default();
    // One op; `false` when the run ends at it.
    let op = |k: usize,
              r: usize,
              mask: OpMask,
              total: &mut u64,
              queues: &mut [VecDeque<Target>; 2],
              out: &mut ChargeResult|
     -> bool {
        out.per_kind[r][k] += 1;
        *total += 1;
        if *total > sc.op_cap {
            out.hang_guard_tripped = true;
            return false;
        }
        let mut due = Vec::new();
        if mask.contains(OpKind::ALL[k]) {
            let idx = masked_count(&out.per_kind[r], mask) - 1;
            while queues[r].front().is_some_and(|t| t.op_index == idx) {
                due.push(queues[r].pop_front().unwrap());
            }
        }
        if due.is_empty() {
            return true;
        }
        let (mut a, mut b) = (OP_A, OP_B);
        let mut recs = Vec::new();
        for t in due {
            let x = match t.operand {
                Operand::A => &mut a,
                Operand::B => &mut b,
            };
            let before = *x;
            *x = t.apply(before);
            recs.push((t, before, *x));
        }
        let masked = kind_apply(k, a, b).to_bits() == kind_apply(k, OP_A, OP_B).to_bits();
        for (t, before, after) in recs {
            out.fired
                .push((t, before.to_bits(), after.to_bits(), masked));
        }
        if !out.contaminated {
            out.contaminated = true;
            out.first_contam_op = Some(*total);
        }
        if sc.kill_on_fire {
            out.killed = true;
            return false;
        }
        true
    };
    'run: for &step in &sc.steps {
        let mut charged = None;
        match step {
            Charged::Op(k, region) => {
                if !op(k, region.index(), mask, &mut total, &mut queues, &mut out) {
                    break 'run;
                }
            }
            Charged::Block(counts, region) => {
                let r = region.index();
                let n: u64 = counts.iter().sum();
                let done = masked_count(&out.per_kind[r], mask);
                let m = masked_count(&counts, mask);
                let holds_target = queues[r]
                    .front()
                    .is_some_and(|t| t.op_index >= done && t.op_index - done < m);
                let holds_trip = n > 0 && total + n > sc.op_cap;
                let watching = born && !out.contaminated;
                let charge = !watching && !holds_target && !holds_trip;
                charged = Some(charge);
                if charge {
                    for (count, c) in out.per_kind[r].iter_mut().zip(counts) {
                        *count += c;
                    }
                    total += n;
                } else {
                    for (k, &c) in counts.iter().enumerate() {
                        for _ in 0..c {
                            if !op(k, r, mask, &mut total, &mut queues, &mut out) {
                                break 'run;
                            }
                        }
                    }
                }
            }
            Charged::Watch => born = true,
            Charged::Park => {}
            Charged::Remask(m) => mask = m,
        }
        out.trace.push((out.per_kind, charged));
    }
    out
}

/// The same scenario on the real context: `ctx::charge` for every block,
/// the hooks for every op it refuses and every single op.
fn charge_run(sc: &ChargeScenario) -> ChargeResult {
    let prev = ctx::install(
        RankCtx::new(0, InjectionPlan::multi(sc.targets.clone()))
            .with_op_mask(sc.mask)
            .with_op_cap(sc.op_cap)
            .with_kill_on_fire(sc.kill_on_fire),
    );
    assert!(prev.is_none(), "leaked context");
    let mut trace = Vec::new();
    let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let op = |k: usize| {
            let _ = kind_tf64(k, Tf64::new(OP_A), Tf64::new(OP_B));
        };
        for &step in &sc.steps {
            let mut charged = None;
            match step {
                Charged::Op(k, region) => {
                    let _g = ctx::enter_region(region);
                    op(k);
                }
                Charged::Block(counts, region) => {
                    let _g = ctx::enter_region(region);
                    let charge = ctx::charge(counts);
                    charged = Some(charge);
                    if !charge {
                        for (k, &c) in counts.iter().enumerate() {
                            (0..c).for_each(|_| op(k));
                        }
                    }
                }
                Charged::Watch => {
                    let _ = Tf64::from_parts(1.0, 1.0 + f64::EPSILON);
                }
                Charged::Park => {
                    let parked = ctx::take().expect("installed");
                    ctx::install(parked);
                }
                Charged::Remask(m) => {
                    let c = ctx::take().expect("installed");
                    ctx::install(c.with_op_mask(m));
                }
            }
            let counts = ctx::with(|c| c.profile().regions.map(|r| r.per_kind));
            trace.push((counts.expect("installed"), charged));
        }
    }));
    let report = ctx::take().expect("installed").into_report();
    let killed = match &ended {
        Ok(()) => false,
        Err(payload) => {
            let trip = payload.downcast_ref::<ctx::Trip>();
            *trip.expect("the only panics are the two trips") == ctx::Trip::Due
        }
    };
    ChargeResult {
        trace,
        fired: report
            .fired
            .iter()
            .map(|f| {
                (
                    f.target,
                    f.before.to_bits(),
                    f.after.to_bits(),
                    f.masked_at_site,
                )
            })
            .collect(),
        contaminated: report.contaminated,
        first_contam_op: report.first_contam_op,
        per_kind: report.profile.regions.map(|c| c.per_kind),
        hang_guard_tripped: report.hang_guard_tripped,
        killed,
    }
}

/// Strategy for a charge scenario: blocks of up to 12 ops per kind (many
/// kinds empty) among single ops, watch events, parks and remasks; up to
/// six targets over the first 300 indices of either region; a cap
/// anywhere in the run or out of reach.
fn charge_scenario() -> impl Strategy<Value = ChargeScenario> {
    let region = |p: bool| {
        if p {
            Region::ParallelUnique
        } else {
            Region::Common
        }
    };
    // A count drawn over 0..26 is empty about half the time.
    let counts = prop::collection::vec(0u64..26, 5..6)
        .prop_map(|c| std::array::from_fn(|k| if c[k] < 13 { c[k] } else { 0 }));
    let step =
        (0u8..12, 0usize..8, any::<bool>(), counts).prop_map(move |(what, k, parallel, counts)| {
            match what {
                0..=2 => Charged::Op(k % 5, region(parallel)),
                3..=8 => Charged::Block(counts, region(parallel)),
                9 => Charged::Watch,
                10 => Charged::Park,
                _ => Charged::Remask(masks()[k]),
            }
        });
    let target = (any::<bool>(), 0u64..300, 0u8..64, any::<bool>()).prop_map(
        move |(parallel, op_index, bit, b)| Target {
            region: region(parallel),
            op_index,
            bit,
            operand: if b { Operand::B } else { Operand::A },
        },
    );
    let knobs = (0usize..8, 0u64..1800, 0u8..4);
    (
        prop::collection::vec(step, 1..40),
        prop::collection::vec(target, 0..7),
        knobs,
    )
        .prop_map(|(steps, targets, (mask, cap, kill))| ChargeScenario {
            steps,
            targets,
            mask: masks()[mask],
            // Two thirds of the caps fall somewhere in the run.
            op_cap: if cap < 1200 { cap } else { u64::MAX },
            kill_on_fire: kill == 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `ctx::charge` against a reference that counts every op one by one.
    /// Whatever blocks, single ops, watch events, parks and remasks a
    /// scenario interleaves under whatever plan, cap and mask: after each
    /// step the exact per-kind counts are the reference's; a block is
    /// refused exactly when it holds its region's front target or the op
    /// that trips the cap, or the context is watching; and the fired
    /// records, contamination, first-contamination op, hang trip and DUE
    /// kill are the reference's.
    #[test]
    fn charge_matches_reference(sc in charge_scenario()) {
        let want = charge_reference(&sc);
        let got = charge_run(&sc);
        prop_assert_eq!(&got, &want, "{:?}", sc);
    }
}
