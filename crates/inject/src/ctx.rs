//! Per-rank injection context and the thread-local hook machinery.
//!
//! Every simulated MPI rank runs on its own thread with a [`RankCtx`]
//! installed. The [`Tf64`] arithmetic operators call into the
//! context through [`hook_binop`]/[`hook_unop`]; when no context is
//! installed the hooks degrade to plain shadow-tracked arithmetic (useful
//! in unit tests and examples).
//!
//! ## Hot path
//!
//! Most tracked ops never reach a hook: an app kernel's hot loop is a
//! [`Block`](crate::tf64::Block) whose op counts are known before it
//! runs, and [`charge`] counts them to the current region in one step —
//! one compare and one subtract per op kind against the budget cells
//! below — after which the block runs hook-free. Only a block that holds
//! the region's front injection target or the op that trips the hang
//! guard (decided from the exact counts in the outlined
//! `charge_checked`), and every block while the context is watching,
//! is refused and runs op by op through the hooks.
//!
//! The hooks run on every tracked op outside a charged block, so their
//! common case is the throughput floor of the rest. A
//! [`RankCtx`] is the form the context runs in: hot cells (`HotCtx`),
//! plain `Cell`s for everything the per-op path reads or writes (region,
//! op budgets, contamination flag, rank id) and the per-message counters,
//! plus a cold half (`ColdCtx`: target queues, fired records) that sits
//! behind a `RefCell` while installed. The per-op path therefore never
//! borrows a `RefCell`, never allocates, and never calls through a
//! function pointer.
//!
//! What the per-op path has to answer is "is this the op to fire at, or
//! the op that trips the hang guard?" — *no* for all but a handful of the
//! ops of a trial. So every `(region, kind)` pair has one **budget cell**:
//! how many more ops of that kind may run in that region before either
//! can happen. An op loads its cell, branches if it is zero and stores
//! cell − 1; nothing else is counted or compared. A zero cell leads to the
//! outlined `checked_op`, which does the exact bookkeeping — count the
//! op, trip iff the exact total exceeds the cap, fire iff the kind is
//! masked and the exact injectable index is the front target's — and then
//! re-arms all ten cells from the exact state (`HotCtx::rearm` has the
//! rule and why the unchecked ops can contain neither the firing nor the
//! tripping op). Ops executed per cell = granted − remaining is exact at
//! every instant, so every count the context reports is what a counter
//! bumped per op would read. Firing an injection, tripping the hang
//! guard, and first-contamination marking are outlined `#[cold]`
//! functions.
//!
//! What the hook does past the budget is set by one **mode** cell: a
//! thread with no context is *untracked* (plain two-world arithmetic); an
//! installed context is *tracked* (count, fire) or, while it may hold a
//! value tainted below the significance threshold θ without being
//! contaminated, *watching*: only then does an op compare its result's
//! two worlds, because only then can the compare mark anything. A
//! context starts tracked; [`note_values`] receiving sub-θ taint, or
//! [`Tf64::from_parts`] building a tainted value, on an uncontaminated
//! context starts watching; contamination (a fire, a significant message
//! or op result) ends it. A rank that is neither contaminated nor
//! watching holds no tainted value — a hook result is tainted only if an
//! operand is, and every other way a tainted value comes to a rank goes
//! through one of those transitions — so its ops' results never differ
//! and the compare it skips could never have marked it.
//!
//! Both hooks leave for one cold path, generic over the op's operands:
//! `checked` (a `[Tf64; 2]` or a `[Tf64; 1]`) and, at a target, `fire`.
//! A unary op's one operand takes both A and B flips, and every flip of
//! an op is masked at site exactly when the op's result still equals the
//! shadow's.
//!
//! The cells are armed where the limits they are armed from change:
//! [`RankCtx::new`] arms them, and [`RankCtx::with_op_cap`] /
//! [`RankCtx::with_op_mask`] re-arm them from the exact counts.
//! [`install`] copies the cells onto the thread and moves the cold half
//! in; [`take`] copies them out and moves the cold half out. Neither
//! counts, packs or re-arms, so a context leaves its thread and comes
//! back exactly as it was — at a rank's entry and exit, and at every
//! coroutine handoff between ranks that share a thread (every blocking
//! receive).

use crate::mask::OpMask;
use crate::plan::{InjectionPlan, Operand, Target};
use crate::profile::{masked_sum, OpKind, OpProfile};
use crate::region::{Region, RegionGuard};
use crate::tf64::Tf64;
use resilim_obs as obs;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Trace name for a region (`"common"` / `"parallel_unique"`).
fn region_trace_name(r: Region) -> &'static str {
    match r {
        Region::Common => "common",
        Region::ParallelUnique => "parallel_unique",
    }
}

/// A fault that actually fired during execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredRecord {
    /// The planned target that fired.
    pub target: Target,
    /// Operation kind at the firing site.
    pub kind: OpKind,
    /// Operand value before the flip (corrupted-world value).
    pub before: f64,
    /// Operand value after the flip.
    pub after: f64,
    /// Whether the flip was *instantly masked*: the operation result was
    /// bitwise identical to the shadow result despite the flip.
    pub masked_at_site: bool,
}

/// Summary extracted from a [`RankCtx`] after a rank finishes.
#[derive(Debug, Clone, Default)]
pub struct CtxReport {
    /// Rank id the context belonged to.
    pub rank: usize,
    /// Dynamic-op counts observed.
    pub profile: OpProfile,
    /// Faults that fired (may be fewer than planned if corruption shortened
    /// the execution before later targets were reached).
    pub fired: Vec<FiredRecord>,
    /// Number of faults that were planned.
    pub planned: usize,
    /// Whether this rank was ever contaminated: a fault fired on it, it
    /// received a message carrying an element whose two worlds differ
    /// significantly (see [`significant_divergence`]), or one of its
    /// tracked ops produced such a result. Taint below the threshold θ
    /// does not contaminate: a rank can hold and compute with it and still
    /// report `false`. (A context's θ defaults to 0, where any taint is
    /// significant; campaigns default to 1e-9.)
    pub contaminated: bool,
    /// Whether the hang guard tripped (op budget exceeded).
    pub hang_guard_tripped: bool,
    /// Whether the corruption was detected on this rank — by a DUE kill or
    /// a replica payload comparison (see [`note_msg_send`]).
    pub detected: bool,
    /// Wire (message-payload) faults fired while this rank was sending.
    pub wire_fired: u64,
    /// Numeric messages this rank received through the fabric.
    pub msgs_recvd: u64,
    /// Taint crossings: received numeric messages whose payload carried at
    /// least one significantly divergent element (the feature pipeline's
    /// per-message fabric stamp).
    pub tainted_msgs_recvd: u64,
    /// Tracked-op index at which this rank first became contaminated
    /// (`None` when it never was).
    pub first_contam_op: Option<u64>,
    /// Messages sent by this rank when it first became contaminated.
    pub msgs_sent_at_contam: u64,
    /// Numeric messages received by this rank when it first became
    /// contaminated.
    pub msgs_recvd_at_contam: u64,
}

/// Panic payload message used by the hang guard; the runtime recognises it
/// to classify the outcome as a hang rather than a crash.
pub const HANG_GUARD_MSG: &str = "resilim: hang guard tripped (op budget exceeded)";

/// Panic payload message used by a DUE (detected-uncorrectable error) rank
/// kill; the runtime recognises it to classify the outcome as a Due
/// failure rather than a crash.
pub const DUE_MSG: &str = "resilim: detected uncorrectable error (rank killed)";

/// Per-rank fault-injection context, in the form it runs in: the hot
/// cells the hooks read and the cold half the fire path borrows (see the
/// module docs). [`install`] puts both on the thread, [`take`] lifts them
/// off again.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub struct RankCtx {
    hot: HotCtx,
    cold: ColdCtx,
}

/// Whether a (corrupted, shadow) pair differs *significantly* at relative
/// threshold `theta`: `|v − sh| > θ·max(|v|, |sh|)`, with any bitwise
/// difference significant at `theta == 0` and non-finite disagreements
/// always significant.
#[inline]
pub fn significant_divergence(v: f64, sh: f64, theta: f64) -> bool {
    if v.to_bits() == sh.to_bits() {
        return false;
    }
    if theta <= 0.0 {
        return true;
    }
    if !v.is_finite() || !sh.is_finite() {
        return true;
    }
    (v - sh).abs() > theta * v.abs().max(sh.abs())
}

impl RankCtx {
    /// New context for `rank` with an injection plan.
    pub fn new(rank: usize, plan: InjectionPlan) -> Self {
        let planned = plan.len();
        let cold = ColdCtx {
            queues: plan.into_queues(),
            planned,
            ..ColdCtx::new()
        };
        let hot = HotCtx::new();
        hot.mode.set(Mode::Tracked);
        hot.rank.set(rank);
        for (next, queue) in hot.next_pending.iter().zip(&cold.queues) {
            next.set(queue.front().map_or(u64::MAX, |t| t.op_index));
        }
        hot.rearm();
        RankCtx { hot, cold }
    }

    /// Profiling context: counts ops, injects nothing.
    pub fn profiling(rank: usize) -> Self {
        RankCtx::new(rank, InjectionPlan::none())
    }

    /// Set the hang-guard budget: the context panics (with
    /// [`HANG_GUARD_MSG`]) once more than `cap` tracked ops execute.
    /// Re-arms the budget cells from the exact counts, so a context that
    /// has already run may be re-capped.
    pub fn with_op_cap(self, cap: u64) -> Self {
        self.hot.op_cap.set(cap);
        self.hot.rearm();
        self
    }

    /// Set the relative significance threshold for contamination marking
    /// (see [`significant_divergence`]). Zero means bitwise.
    pub fn with_taint_threshold(self, theta: f64) -> Self {
        self.hot.taint_threshold.set(theta);
        self
    }

    /// The contamination significance threshold.
    pub fn taint_threshold(&self) -> f64 {
        self.hot.taint_threshold.get()
    }

    /// Set which operation kinds are injection targets. The default is
    /// the paper's floating-point add/sub/mul; the index space of plan
    /// targets is counted over exactly this set, so plans and profiles
    /// must use the same mask. Re-arms the budget cells from the exact
    /// counts, so a context that has already run may be re-masked.
    pub fn with_op_mask(self, mask: OpMask) -> Self {
        self.hot.mask.set(mask);
        self.hot.rearm();
        self
    }

    /// The injectable-operation mask.
    pub fn op_mask(&self) -> OpMask {
        self.hot.mask.get()
    }

    /// Arm DUE semantics: a fired fault kills the rank (panic with
    /// [`DUE_MSG`]) instead of silently continuing. The fault is recorded
    /// and the rank marked contaminated before the kill.
    pub fn with_kill_on_fire(mut self, kill: bool) -> Self {
        self.cold.kill_on_fire = kill;
        self
    }

    /// Enable replica payload comparison: every message payload this rank
    /// sends or receives is compared against the shadow (replica) world,
    /// and the first significant divergence sets the `detected` flag.
    pub fn with_replication(self, replicate: bool) -> Self {
        self.hot.replicate.set(replicate);
        self
    }

    /// Rank id.
    pub fn rank(&self) -> usize {
        self.hot.rank.get()
    }

    /// Extract the final report.
    pub fn into_report(self) -> CtxReport {
        let profile = self.profile();
        // Ops are aggregated by the per-region counters and flushed once
        // per rank here — never evented per-op.
        if obs::enabled() {
            obs::count(
                obs::Counter::OpsCommon,
                profile.region(Region::Common).total(),
            );
            obs::count(
                obs::Counter::OpsParallelUnique,
                profile.region(Region::ParallelUnique).total(),
            );
            obs::observe(obs::Hist::OpsPerRank, profile.total());
        }
        let h = &self.hot;
        let first_contam_op = h.first_contam_op.get();
        CtxReport {
            rank: h.rank.get(),
            profile,
            fired: self.cold.fired,
            planned: self.cold.planned,
            contaminated: h.contaminated.get(),
            hang_guard_tripped: self.cold.hang_guard_tripped,
            detected: h.detected.get(),
            wire_fired: h.wire_fired.get(),
            msgs_recvd: h.msgs_recvd.get(),
            tainted_msgs_recvd: h.tainted_msgs_recvd.get(),
            first_contam_op: (first_contam_op != u64::MAX).then_some(first_contam_op),
            msgs_sent_at_contam: h.msgs_sent_at_contam.get(),
            msgs_recvd_at_contam: h.msgs_recvd_at_contam.get(),
        }
    }

    /// Current op profile snapshot.
    pub fn profile(&self) -> OpProfile {
        let mask = self.hot.mask.get();
        let mut p = OpProfile::default();
        for (counts, per_kind) in p.regions.iter_mut().zip(self.hot.per_kind()) {
            counts.per_kind = per_kind;
            counts.injectable = masked_sum(&per_kind, mask);
        }
        p.msgs_sent = self.hot.msgs_sent.get();
        p
    }
}

/// Cold half of a context: everything the per-op fast path never
/// touches. Installed, it is behind the thread-local's only `RefCell`,
/// borrowed exclusively from `#[cold]` outlined paths.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct ColdCtx {
    /// Pending targets per region, ascending op_index.
    queues: [VecDeque<Target>; 2],
    fired: Vec<FiredRecord>,
    planned: usize,
    hang_guard_tripped: bool,
    /// DUE semantics: panic (with [`DUE_MSG`]) at the firing op instead
    /// of continuing with the corrupted value. Only read on the
    /// already-cold fire path.
    kill_on_fire: bool,
}

impl ColdCtx {
    /// Nothing planned or fired: a fresh thread's cold half, and the one
    /// [`RankCtx::new`] starts from.
    const fn new() -> ColdCtx {
        ColdCtx {
            queues: [VecDeque::new(), VecDeque::new()],
            fired: Vec::new(),
            planned: 0,
            hang_guard_tripped: false,
            kill_on_fire: false,
        }
    }
}

/// What the per-op hook does on a thread (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// No context installed: plain two-world arithmetic.
    Untracked,
    /// A context that is contaminated or holds no tainted value: count
    /// and fire.
    Tracked,
    /// An uncontaminated context that may hold taint below θ: count, fire
    /// and compare every result's two worlds.
    Watching,
}

/// Hot cells of a context (see module docs): `Cell`s for the per-op fast
/// path and the per-message counters. Contains no `Drop` types, so the
/// `thread_local!` const-init fast path applies: accessing the installed
/// cells is a direct TLS load with no lazy-initialization or
/// destructor-registration branch. The cold half lives in the separate
/// `COLD` thread-local.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct HotCtx {
    /// Whether these cells are a context and whether its ops compare
    /// their results. [`RankCtx::new`] makes it tracked, so it travels
    /// with the other cells; [`take`] leaves the thread untracked.
    mode: Cell<Mode>,
    rank: Cell<usize>,
    region: Cell<Region>,
    /// Which operation kinds are injection targets (and counted in the
    /// per-region injectable index space).
    mask: Cell<OpMask>,
    contaminated: Cell<bool>,
    /// Relative significance threshold for *contamination marking*: a rank
    /// counts as contaminated only when it holds a value whose corrupted
    /// and shadow worlds differ by more than this relative amount. Zero
    /// (the default) means any bitwise difference contaminates. Value
    /// taint itself stays bit-exact regardless.
    taint_threshold: Cell<f64>,
    /// Hang-guard budget: abort once total tracked ops exceed it.
    /// `u64::MAX` = uncapped. Read when the budgets are re-armed, never
    /// per op.
    op_cap: Cell<u64>,
    /// Op-index of the front pending target per region (`u64::MAX` when
    /// the queue is empty). The budgets are armed from this; the queue is
    /// only touched when an injection is due.
    next_pending: [Cell<u64>; 2],
    /// Budget cells: ops of `(region, kind)` that may still run before the
    /// next one has to go through [`checked_op`]. The only cells the
    /// per-op path writes.
    budget: [[Cell<u64>; 5]; 2],
    /// Everything ever granted to a cell, the ops counted one by one in
    /// [`checked_op`] included: `granted − budget` is the exact number of
    /// ops of that region and kind executed so far.
    granted: [[Cell<u64>; 5]; 2],
    /// Replica-compare detection (TeaMPI-style): the shadow world doubles
    /// as the clean replica, and every message payload is compared between
    /// worlds at the send/receive points. Touched per *message*, never per
    /// op — the hook fast path does not read these.
    replicate: Cell<bool>,
    detected: Cell<bool>,
    msgs_sent: Cell<u64>,
    wire_fired: Cell<u64>,
    /// Feature counters (see [`CtxReport`]). Touched per message or inside
    /// the already-`#[cold]` [`contaminate`] — never per op.
    msgs_recvd: Cell<u64>,
    tainted_msgs_recvd: Cell<u64>,
    /// Tracked-op index at first contamination (`u64::MAX` = never).
    first_contam_op: Cell<u64>,
    msgs_sent_at_contam: Cell<u64>,
    msgs_recvd_at_contam: Cell<u64>,
}

impl HotCtx {
    /// Not a context, nothing counted or armed: a fresh thread's cells,
    /// and the ones [`RankCtx::new`] starts from.
    const fn new() -> HotCtx {
        HotCtx {
            mode: Cell::new(Mode::Untracked),
            rank: Cell::new(0),
            region: Cell::new(Region::Common),
            mask: Cell::new(OpMask::FP_ARITH),
            contaminated: Cell::new(false),
            taint_threshold: Cell::new(0.0),
            op_cap: Cell::new(u64::MAX),
            next_pending: [const { Cell::new(u64::MAX) }; 2],
            budget: [const { [const { Cell::new(0) }; 5] }; 2],
            granted: [const { [const { Cell::new(0) }; 5] }; 2],
            replicate: Cell::new(false),
            detected: Cell::new(false),
            msgs_sent: Cell::new(0),
            wire_fired: Cell::new(0),
            msgs_recvd: Cell::new(0),
            tainted_msgs_recvd: Cell::new(0),
            first_contam_op: Cell::new(u64::MAX),
            msgs_sent_at_contam: Cell::new(0),
            msgs_recvd_at_contam: Cell::new(0),
        }
    }

    /// Whether these cells are a context.
    fn installed(&self) -> bool {
        self.mode.get() != Mode::Untracked
    }

    /// An uncontaminated context that may now hold taint below θ starts
    /// watching; a contaminated one, or none, stays as it is.
    fn watch(&self) {
        if self.mode.get() == Mode::Tracked && !self.contaminated.get() {
            self.mode.set(Mode::Watching);
        }
    }

    /// Exact ops executed so far per region and kind.
    fn per_kind(&self) -> [[u64; 5]; 2] {
        let mut counts = [[0; 5]; 2];
        for (r, row) in counts.iter_mut().enumerate() {
            for (k, n) in row.iter_mut().enumerate() {
                *n = self.granted[r][k].get() - self.budget[r][k].get();
            }
        }
        counts
    }

    /// Exact total of tracked ops executed so far.
    fn total_ops(&self) -> u64 {
        self.per_kind().iter().flatten().sum()
    }

    /// Re-arm the budget cells from the exact state.
    fn rearm(&self) {
        self.arm(self.per_kind());
    }

    /// Arm all ten budget cells for a context that has executed `counts`
    /// ops, from `op_cap`, `mask` and `next_pending`:
    ///
    /// * *hang guard* — the op that trips is number `op_cap + 1`, so
    ///   `op_cap − total` more may run unchecked; every cell gets at most
    ///   a tenth of that, rounded down, and the ten together never reach
    ///   the tripping op. A cap already exceeded leaves every cell empty:
    ///   each later op trips again.
    /// * *firing* — with the front target of region `r` at injectable
    ///   index `N` and `done` injectable ops executed there, `N − done`
    ///   masked ops of `r` come before the firing one; each of the `m`
    ///   masked kinds of `r` gets at most `⌊(N − done)/m⌋`, and together
    ///   they never reach it. An empty queue (`u64::MAX`) is a limit no
    ///   run reaches; a front target the counters have already passed can
    ///   never fire (nor, the queue being sorted, can anything behind it),
    ///   so it must limit nothing — or it would pin its cells at zero.
    ///
    /// A cell takes the smaller of its limits. The kind whose cell ran out
    /// consumed its whole share, so the distance to the nearer event
    /// shrinks by at least 1/`m` (1/10 for the cap) per [`checked_op`]
    /// visit: tens of visits per target in a trial of a million ops.
    fn arm(&self, counts: [[u64; 5]; 2]) {
        let mask = self.mask.get();
        let masked = u64::from(mask.bits().count_ones());
        let total: u64 = counts.iter().flatten().sum();
        let cap_share = self.op_cap.get().saturating_sub(total) / 10;
        for (r, row) in counts.iter().enumerate() {
            let done = masked_sum(row, mask);
            // (`max(1)`: an empty mask has no cell to share among.)
            let fire_share = self.next_pending[r]
                .get()
                .checked_sub(done)
                .map_or(u64::MAX, |ahead| ahead / masked.max(1));
            for kind in OpKind::ALL {
                let k = kind.index();
                let grant = if mask.contains(kind) {
                    cap_share.min(fire_share)
                } else {
                    cap_share
                };
                self.budget[r][k].set(grant);
                self.granted[r][k].set(row[k] + grant);
            }
        }
    }

    /// Overwrite every cell with `src`'s: how [`install`] puts a context's
    /// cells on the thread (a `&HotCtx` cannot be assigned to as a whole).
    fn copy_from(&self, src: &HotCtx) {
        self.mode.set(src.mode.get());
        self.rank.set(src.rank.get());
        self.region.set(src.region.get());
        self.mask.set(src.mask.get());
        self.contaminated.set(src.contaminated.get());
        self.taint_threshold.set(src.taint_threshold.get());
        self.op_cap.set(src.op_cap.get());
        for i in 0..2 {
            self.next_pending[i].set(src.next_pending[i].get());
            for k in 0..5 {
                self.budget[i][k].set(src.budget[i][k].get());
                self.granted[i][k].set(src.granted[i][k].get());
            }
        }
        self.replicate.set(src.replicate.get());
        self.detected.set(src.detected.get());
        self.msgs_sent.set(src.msgs_sent.get());
        self.wire_fired.set(src.wire_fired.get());
        self.msgs_recvd.set(src.msgs_recvd.get());
        self.tainted_msgs_recvd.set(src.tainted_msgs_recvd.get());
        self.first_contam_op.set(src.first_contam_op.get());
        self.msgs_sent_at_contam.set(src.msgs_sent_at_contam.get());
        self.msgs_recvd_at_contam
            .set(src.msgs_recvd_at_contam.get());
    }
}

thread_local! {
    /// The installed context's hot cells: every field is a `Cell` of a
    /// `Copy` type (no destructor), so `ACTIVE.with` compiles down to
    /// direct thread-local loads/stores.
    static ACTIVE: HotCtx = const { HotCtx::new() };

    /// The installed context's cold half. Only touched by `#[cold]`
    /// outlined paths and by [`install`]/[`take`].
    static COLD: RefCell<ColdCtx> = const { RefCell::new(ColdCtx::new()) };
}

/// Install a context on the current thread, returning the one it
/// displaces. The cells are copied in and the cold half is moved in, as
/// they are: nothing is re-armed, summed or allocated.
pub fn install(ctx: RankCtx) -> Option<RankCtx> {
    // A rank switching back in finds nothing installed. Returning a
    // literal `None` there, not a local that held `take()`'s result,
    // spares every handoff a copy of the whole `Option<RankCtx>`.
    if !is_installed() {
        put(ctx);
        return None;
    }
    let prev = take();
    put(ctx);
    prev
}

/// Copy `ctx`'s cells onto the thread and move its cold half in.
fn put(ctx: RankCtx) {
    ACTIVE.with(|h| h.copy_from(&ctx.hot));
    COLD.with(|c| *c.borrow_mut() = ctx.cold);
}

/// Remove and return the current thread's context, leaving none
/// installed. The cells are copied out and the cold half is moved out
/// (its buffers change hands by pointer), so [`install`] puts the context
/// back exactly as it was — whatever ran on the thread in between.
pub fn take() -> Option<RankCtx> {
    ACTIVE.with(|h| {
        if !h.installed() {
            return None;
        }
        let hot = h.clone();
        h.mode.set(Mode::Untracked);
        let cold = COLD.with(|c| c.replace(ColdCtx::new()));
        Some(RankCtx { hot, cold })
    })
}

/// Whether a context is installed on this thread.
pub fn is_installed() -> bool {
    ACTIVE.with(HotCtx::installed)
}

/// Run `f` with mutable access to the installed context (if any).
///
/// The context is taken off the thread for the duration of `f`; tracked
/// arithmetic performed *inside* `f` runs context-free.
pub fn with<R>(f: impl FnOnce(&mut RankCtx) -> R) -> Option<R> {
    let mut ctx = take()?;
    let r = f(&mut ctx);
    install(ctx);
    Some(r)
}

/// Enter a computation region; restored when the guard drops.
pub fn enter_region(r: Region) -> RegionGuard {
    let prev = ACTIVE.with(|h| {
        if h.installed() {
            let prev = h.region.get();
            h.region.set(r);
            Some(prev)
        } else {
            None
        }
    });
    RegionGuard { prev }
}

pub(crate) fn set_region(r: Region) {
    ACTIVE.with(|h| {
        if h.installed() {
            h.region.set(r);
        }
    });
}

/// Report received values to the current rank's context: the rank is
/// marked contaminated when any element diverges beyond the context's
/// significance threshold (how the runtime accounts message-borne
/// contamination), and an uncontaminated rank that receives only taint
/// below it starts watching its ops' results.
pub fn note_values(values: &[Tf64]) {
    ACTIVE.with(|h| {
        if !h.installed() {
            return;
        }
        h.msgs_recvd.set(h.msgs_recvd.get() + 1);
        // Three consumers of the same scan: contamination marking (latches
        // on the first divergent value held), replica-compare detection
        // (receive-side compare point under `--replicate`, latches), and
        // the per-message taint-crossing stamp (counts every message). The
        // scan breaks at the first divergent element; on the zero-injection
        // path nothing is tainted, so the per-element check is the same
        // bits compare it always was. Taint below θ only starts watching.
        let theta = h.taint_threshold.get();
        let (mut crossed, mut tainted) = (false, false);
        for &v in values {
            if v.is_tainted() {
                tainted = true;
                if significant_divergence(v.value(), v.shadow(), theta) {
                    crossed = true;
                    break;
                }
            }
        }
        if tainted && !crossed {
            h.watch();
        }
        if crossed {
            h.tainted_msgs_recvd.set(h.tainted_msgs_recvd.get() + 1);
            if !h.contaminated.get() {
                contaminate(h);
            }
            if h.replicate.get() && !h.detected.get() {
                replica_detect(h);
            }
        }
    });
}

/// Note an outgoing numeric message on the current rank's context: counts
/// it into the per-rank send profile (the sample space of the
/// message-corruption fault model) and, under replication, compares the
/// payload against the shadow replica (send-side compare point). Returns
/// the zero-based index of this message among the rank's sends, or `None`
/// when no context is installed.
///
/// The fabric calls this *before* applying any wire corruption: the
/// replica compare sees what the application handed to the network, and
/// corruption on the wire is only observable at the receiver.
pub fn note_msg_send(values: &[Tf64]) -> Option<u64> {
    ACTIVE.with(|h| {
        if !h.installed() {
            return None;
        }
        let idx = h.msgs_sent.get();
        h.msgs_sent.set(idx + 1);
        if h.replicate.get() && !h.detected.get() {
            let theta = h.taint_threshold.get();
            for &v in values {
                if v.is_tainted() && significant_divergence(v.value(), v.shadow(), theta) {
                    replica_detect(h);
                    break;
                }
            }
        }
        Some(idx)
    })
}

/// Record a wire (message-payload) fault fired on one of this rank's
/// outgoing messages. Called by the fabric after corrupting the payload.
pub fn note_wire_fired(msg_index: u64, bit: u8) {
    ACTIVE.with(|h| {
        if !h.installed() {
            return;
        }
        h.wire_fired.set(h.wire_fired.get() + 1);
        if obs::enabled() {
            obs::count(obs::Counter::MsgFaultsFired, 1);
            obs::emit(&obs::Event::WireFaultFired {
                rank: h.rank.get(),
                msg_index,
                bit,
            });
        }
    });
}

/// First replica-compare detection (idempotent).
#[cold]
#[inline(never)]
fn replica_detect(h: &HotCtx) {
    if h.detected.get() {
        return;
    }
    h.detected.set(true);
    if obs::enabled() {
        obs::count(obs::Counter::ReplicaDetections, 1);
        obs::emit(&obs::Event::ReplicaDetection { rank: h.rank.get() });
    }
}

/// A tainted value was built on this thread by [`Tf64::from_parts`]: an
/// uncontaminated context starts watching.
#[cold]
#[inline(never)]
pub(crate) fn note_born_taint() {
    // Safety: see `hot` — same-thread, immediate use.
    unsafe { &*hot() }.watch();
}

/// First-contamination marking (idempotent): set the flag, end watching
/// (a contaminated rank has nothing left to compare for) and snapshot the
/// feature counters at that moment. Touches only the hot cells.
#[cold]
#[inline(never)]
fn contaminate(h: &HotCtx) {
    if h.contaminated.get() {
        return;
    }
    h.contaminated.set(true);
    h.mode.set(Mode::Tracked);
    h.first_contam_op.set(h.total_ops());
    h.msgs_sent_at_contam.set(h.msgs_sent.get());
    h.msgs_recvd_at_contam.set(h.msgs_recvd.get());
    if obs::enabled() {
        obs::count(obs::Counter::TaintBorn, 1);
        obs::emit(&obs::Event::TaintBorn { rank: h.rank.get() });
    }
}

/// Hang-guard trip: record it, then panic with the recognisable payload.
#[cold]
#[inline(never)]
fn hang_trip(h: &HotCtx) -> ! {
    COLD.with(|c| c.borrow_mut().hang_guard_tripped = true);
    if obs::enabled() {
        obs::count(obs::Counter::HangGuardTrips, 1);
        obs::emit(&obs::Event::HangGuardTrip { rank: h.rank.get() });
    }
    panic!("{HANG_GUARD_MSG}");
}

/// DUE rank kill: the hardware detected the corruption and halted the
/// rank. The firing was already recorded and contamination marked; all
/// cold borrows are released before the panic so harvest sees a
/// consistent context.
#[cold]
#[inline(never)]
fn due_trip(h: &HotCtx) -> ! {
    // The kill is itself a detection event.
    h.detected.set(true);
    if obs::enabled() {
        obs::count(obs::Counter::DueKills, 1);
        obs::emit(&obs::Event::DueKill { rank: h.rank.get() });
    }
    panic!("{DUE_MSG}");
}

/// Divergent-result observation: mark contamination when the divergence is
/// significant at the installed threshold. Callers pre-check the cheap
/// conditions (the context is watching, so not yet contaminated, and the
/// bits differ).
#[cold]
#[inline(never)]
fn observe_divergent(h: &HotCtx, v: f64, sh: f64) {
    if significant_divergence(v, sh, h.taint_threshold.get()) {
        contaminate(h);
    }
}

/// Pointer to this thread's hot cells.
///
/// `ACTIVE` is const-initialized and `HotCtx` has no destructor, so the
/// access is a direct thread-local load — but `LocalKey::with` around the
/// whole hook body defeats inlining (the closure is too large), leaving an
/// outlined call plus closure-environment spills on every tracked op. A
/// pointer-returning `with` is small enough to always inline, and the hook
/// body then runs with no closure at all.
///
/// Safety: the pointer is only dereferenced immediately, on the same
/// thread, within the extent of the hook call that obtained it.
#[inline(always)]
fn hot() -> *const HotCtx {
    ACTIVE.with(|h| h as *const HotCtx)
}

/// The op whose budget cell is empty: do the bookkeeping the budgets stand
/// in for, exactly. Counts the op, trips the hang guard iff the exact total
/// exceeds the cap, and returns the op's injectable index iff it is the
/// one the front target of its region names — the caller then takes the
/// fire path, which re-arms once the queue has moved on. Otherwise the
/// cells are re-armed here and the op goes on as any other. Not generic:
/// one copy serves every operator's [`checked`].
#[cold]
#[inline(never)]
fn checked_op(h: &HotCtx, r: usize, kind: OpKind) -> Option<u64> {
    #[cfg(test)]
    COLD_VISITS.with(|n| n.set(n.get() + 1));
    // The cell is empty, so one more granted is one more executed.
    let granted = &h.granted[r][kind.index()];
    granted.set(granted.get() + 1);
    let counts = h.per_kind();
    let total: u64 = counts.iter().flatten().sum();
    if total > h.op_cap.get() {
        h.arm(counts);
        hang_trip(h);
    }
    let mask = h.mask.get();
    if mask.contains(kind) {
        let idx = masked_sum(&counts[r], mask) - 1;
        if idx == h.next_pending[r].get() {
            return Some(idx);
        }
    }
    h.arm(counts);
    None
}

#[cfg(test)]
thread_local! {
    /// [`checked_op`] visits on this thread: the performance property of
    /// the budgets is pinned by a count (the `cold_visits_*` tests), not
    /// by a clock.
    static COLD_VISITS: Cell<u64> = const { Cell::new(0) };
}

/// The binary-operation hook: spends one op of the budget cell (or, the
/// cell being empty, goes through the outlined `checked` and possibly injects),
/// computes both the corrupted-world and shadow-world results, and, on a
/// watching context, records contamination.
///
/// `f` must be a pure function of its operands (it is invoked twice, once
/// per world).
#[inline(always)]
pub fn hook_binop(kind: OpKind, a: Tf64, b: Tf64, f: impl Fn(f64, f64) -> f64) -> Tf64 {
    // Safety: see `hot` — same-thread, immediate use.
    let h = unsafe { &*hot() };
    let mode = h.mode.get();
    if mode == Mode::Untracked {
        return Tf64::computed(f(a.value(), b.value()), f(a.shadow(), b.shadow()));
    }
    let r = h.region.get().index();
    let cell = &h.budget[r][kind.index()];
    let left = cell.get();
    if left == 0 {
        return checked(h, r, kind, [a, b], &|[x, y]: [f64; 2]| f(x, y));
    }
    cell.set(left - 1);
    let v = f(a.value(), b.value());
    let sh = f(a.shadow(), b.shadow());
    if mode == Mode::Watching && v.to_bits() != sh.to_bits() {
        observe_divergent(h, v, sh);
    }
    Tf64::computed(v, sh)
}

/// The unary-operation hook (sqrt, abs, exp, …): [`hook_binop`] with one
/// operand, counted as [`OpKind::Other`] (or the given kind). Not a target
/// under the default mask, but extended masks (e.g. [`OpMask::ALL`]) may
/// fire here: an A or B flip corrupts the one operand.
#[inline(always)]
pub fn hook_unop(kind: OpKind, a: Tf64, f: impl Fn(f64) -> f64) -> Tf64 {
    // Safety: see `hot` — same-thread, immediate use.
    let h = unsafe { &*hot() };
    let mode = h.mode.get();
    if mode == Mode::Untracked {
        return Tf64::computed(f(a.value()), f(a.shadow()));
    }
    let r = h.region.get().index();
    let cell = &h.budget[r][kind.index()];
    let left = cell.get();
    if left == 0 {
        return checked(h, r, kind, [a], &|[x]: [f64; 1]| f(x));
    }
    cell.set(left - 1);
    let v = f(a.value());
    let sh = f(a.shadow());
    if mode == Mode::Watching && v.to_bits() != sh.to_bits() {
        observe_divergent(h, v, sh);
    }
    Tf64::computed(v, sh)
}

/// Charge a block of tracked ops to the current region at once: `ops`
/// holds how many ops of each kind the block runs (indexed by
/// [`OpKind::index`]). `true` means the ops are counted and the block
/// must run hook-free ([`tf64::run_block`](crate::tf64::run_block) runs
/// its plain twin); `false` means nothing was counted and the block must
/// run op by op through [`hook_binop`]/[`hook_unop`].
///
/// A block is charged when no context is installed, or when the context
/// is tracked and every budget cell of the region covers the block's ops
/// of its kind (one subtract per kind). Otherwise the outlined
/// `charge_checked` decides from the exact counts. A block is refused
/// while the context is watching (each op's result has to be compared),
/// and when it holds the region's front target or the op that trips the
/// hang guard: only such a block runs per op, and those ops fire or trip
/// exactly where a per-op run would.
///
/// The caller owes the block's shape: `ops` is exact, and the block runs
/// in one region, makes no fabric call and has no value-dependent branch
/// or panic, so that ops charged up front are the ops that run.
#[inline]
pub fn charge(ops: [u64; 5]) -> bool {
    // Safety: see `hot` — same-thread, immediate use.
    let h = unsafe { &*hot() };
    match h.mode.get() {
        Mode::Untracked => return true,
        Mode::Watching => return false,
        Mode::Tracked => {}
    }
    let r = h.region.get().index();
    let cells = &h.budget[r];
    if cells.iter().zip(ops).all(|(cell, n)| cell.get() >= n) {
        for (cell, n) in cells.iter().zip(ops) {
            cell.set(cell.get() - n);
        }
        return true;
    }
    charge_checked(h, r, ops)
}

/// A block some budget cell does not cover: charge it from the exact
/// counts and re-arm, unless it holds the op that trips the hang guard or
/// the region's front target (the block then runs per op and counts
/// itself).
#[cold]
#[inline(never)]
fn charge_checked(h: &HotCtx, r: usize, ops: [u64; 5]) -> bool {
    let mut counts = h.per_kind();
    let total: u64 = counts.iter().flatten().sum();
    // The ops of the block are numbers total + 1 ..= total + n; the first
    // to trip is number op_cap + 1.
    let n: u64 = ops.iter().sum();
    if total.saturating_add(n) > h.op_cap.get() {
        return false;
    }
    // Its injectable ops take indices done .. done + m of the region.
    let mask = h.mask.get();
    let done = masked_sum(&counts[r], mask);
    let m = masked_sum(&ops, mask);
    if h.next_pending[r]
        .get()
        .checked_sub(done)
        .is_some_and(|ahead| ahead < m)
    {
        return false;
    }
    for (count, n) in counts[r].iter_mut().zip(ops) {
        *count += n;
    }
    h.arm(counts);
    true
}

/// A hook's op whose budget cell is empty, over the op's `N` operands.
/// Outlined whole — the per-op path never resumes after a call, so nothing
/// it holds in registers has to survive one.
#[cold]
#[inline(never)]
fn checked<const N: usize>(
    h: &HotCtx,
    r: usize,
    kind: OpKind,
    x: [Tf64; N],
    f: &impl Fn([f64; N]) -> f64,
) -> Tf64 {
    if let Some(idx) = checked_op(h, r, kind) {
        return fire(h, r, idx, kind, x, f);
    }
    let v = f(x.map(Tf64::value));
    let sh = f(x.map(Tf64::shadow));
    if h.mode.get() == Mode::Watching && v.to_bits() != sh.to_bits() {
        observe_divergent(h, v, sh);
    }
    Tf64::computed(v, sh)
}

/// Fire path: pop every target due at dynamic op `idx` and re-arm the
/// budgets for the new front target; flip the corrupted world of operand
/// A (`x[0]`) or B (`x[N - 1]`, the same one on a unary op) before
/// computing `f`. Every flip of the op is recorded in queue order under
/// one masked-at-site flag: whether the result still equals the
/// shadow's. A fire always contaminates the rank.
#[cold]
#[inline(never)]
fn fire<const N: usize>(
    h: &HotCtx,
    r: usize,
    idx: u64,
    kind: OpKind,
    mut x: [Tf64; N],
    f: &impl Fn([f64; N]) -> f64,
) -> Tf64 {
    let (first, kill) = COLD.with(|c| {
        let mut cold = c.borrow_mut();
        let first = cold.fired.len();
        while matches!(cold.queues[r].front(), Some(t) if t.op_index == idx) {
            let t = cold.queues[r].pop_front().expect("front just matched");
            let i = match t.operand {
                Operand::A => 0,
                Operand::B => N - 1,
            };
            let before = x[i].value();
            let after = t.apply(before);
            x[i] = Tf64::computed(after, x[i].shadow());
            if obs::enabled() {
                obs::count(obs::Counter::InjectionsFired, 1);
                obs::emit(&obs::Event::InjectionFired {
                    rank: h.rank.get(),
                    region: region_trace_name(t.region),
                    op_index: t.op_index,
                    bit: t.bit,
                });
            }
            cold.fired.push(FiredRecord {
                target: t,
                kind,
                before,
                after,
                masked_at_site: false,
            });
        }
        let next = cold.queues[r].front().map_or(u64::MAX, |t| t.op_index);
        h.next_pending[r].set(next);
        (first, cold.kill_on_fire)
    });
    h.rearm();

    let v = f(x.map(Tf64::value));
    let sh = f(x.map(Tf64::shadow));
    let masked_at_site = v.to_bits() == sh.to_bits();
    COLD.with(|c| {
        for rec in &mut c.borrow_mut().fired[first..] {
            rec.masked_at_site = masked_at_site;
        }
    });
    contaminate(h);
    if kill {
        due_trip(h);
    }
    Tf64::computed(v, sh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{InjectionPlan, Operand};

    fn target(region: Region, op_index: u64, bit: u8, operand: Operand) -> Target {
        Target {
            region,
            op_index,
            bit,
            operand,
        }
    }

    /// Serialize context-using tests: contexts are thread-local, and the
    /// test harness may run tests on the same thread pool.
    fn with_clean_ctx<R>(ctx: RankCtx, f: impl FnOnce() -> R) -> (R, CtxReport) {
        let prev = install(ctx);
        assert!(prev.is_none(), "leaked context from another test");
        let r = f();
        let report = take().unwrap().into_report();
        (r, report)
    }

    #[test]
    fn counting_without_plan() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(3), || {
            let a = Tf64::new(1.5);
            let b = Tf64::new(2.5);
            let _ = a + b;
            let _ = a * b;
            let _ = a / b;
        });
        assert_eq!(report.rank, 3);
        assert_eq!(report.profile.injectable(Region::Common), 2);
        assert_eq!(report.profile.total(), 3);
        assert!(!report.contaminated);
        assert!(report.fired.is_empty());
    }

    #[test]
    fn single_injection_fires_at_exact_index() {
        // Bit 55 (an exponent bit) guarantees the flip is not rounded away.
        let plan = InjectionPlan::single(target(Region::Common, 2, 55, Operand::B));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let b = Tf64::new(2.0);
            let c = a + b; // idx 0
            let d = c * b; // idx 1
            let e = d + a; // idx 2  <- fires on operand B (= a)
            assert!(e.is_tainted());
            assert!(!d.is_tainted());
        });
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.fired[0].target.op_index, 2);
        assert!(report.contaminated);
    }

    #[test]
    fn operand_flip_records_the_value_before_and_after() {
        // Bit 52, the lowest exponent bit, halves 1.0.
        let plan = InjectionPlan::single(target(Region::Common, 0, 52, Operand::A));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let b = Tf64::new(2.0);
            let c = a + b;
            assert!(c.is_tainted());
            assert_eq!((c.value(), c.shadow()), (2.5, 3.0));
        });
        assert_eq!(report.fired.len(), 1);
        let rec = report.fired[0];
        assert_eq!((rec.before, rec.after), (1.0, 0.5));
        assert!(!rec.masked_at_site);
    }

    #[test]
    fn injection_in_masked_position_is_detected() {
        // Flip a low mantissa bit of an operand that is then multiplied by
        // zero: result identical in both worlds -> masked at site.
        let plan = InjectionPlan::single(target(Region::Common, 0, 0, Operand::A));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let zero = Tf64::new(0.0);
            let c = a * zero;
            assert!(!c.is_tainted());
            assert_eq!(c.value(), 0.0);
        });
        assert_eq!(report.fired.len(), 1);
        assert!(report.fired[0].masked_at_site);
        // The rank still counts as contaminated: the flipped operand existed.
        assert!(report.contaminated);
    }

    #[test]
    fn region_counters_are_separate() {
        let plan = InjectionPlan::single(target(Region::ParallelUnique, 0, 3, Operand::A));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let b = Tf64::new(2.0);
            let _ = a + b; // common idx 0: must NOT fire
            let g = enter_region(Region::ParallelUnique);
            let c = a + b; // parallel-unique idx 0: fires
            assert!(c.is_tainted());
            drop(g);
            let d = a + b; // common idx 1
            assert!(!d.is_tainted());
        });
        assert_eq!(report.profile.injectable(Region::Common), 2);
        assert_eq!(report.profile.injectable(Region::ParallelUnique), 1);
        assert_eq!(report.fired.len(), 1);
    }

    #[test]
    fn region_guard_restores_on_drop() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(0), || {
            let a = Tf64::new(1.0);
            {
                let _g = enter_region(Region::ParallelUnique);
                let _ = a + a;
                {
                    let _g2 = enter_region(Region::Common);
                    let _ = a + a;
                }
                let _ = a + a;
            }
            let _ = a + a;
        });
        assert_eq!(report.profile.injectable(Region::ParallelUnique), 2);
        assert_eq!(report.profile.injectable(Region::Common), 2);
    }

    #[test]
    fn multi_error_plan_fires_all() {
        let plan = InjectionPlan::multi(vec![
            target(Region::Common, 1, 5, Operand::A),
            target(Region::Common, 3, 6, Operand::B),
            target(Region::Common, 0, 7, Operand::A),
        ]);
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let mut acc = Tf64::new(0.0);
            for _ in 0..5 {
                acc += a;
            }
            acc
        });
        assert_eq!(report.planned, 3);
        assert_eq!(report.fired.len(), 3);
        let idx: Vec<u64> = report.fired.iter().map(|f| f.target.op_index).collect();
        assert_eq!(idx, vec![0, 1, 3]);
    }

    #[test]
    fn multiple_flips_on_one_op_all_fire() {
        // Multi-bit pattern: three distinct bits of the same operand of
        // the same dynamic op must all flip (their XOR composes).
        let plan = InjectionPlan::multi(vec![
            target(Region::Common, 1, 3, Operand::A),
            target(Region::Common, 1, 7, Operand::A),
            target(Region::Common, 1, 55, Operand::A),
        ]);
        let (value, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.5);
            let b = a + 0.0; // op 0
            let c = b + 0.0; // op 1: three flips on operand A (= b)
            c
        });
        assert_eq!(report.fired.len(), 3);
        let expect = f64::from_bits(1.5f64.to_bits() ^ (1 << 3) ^ (1 << 7) ^ (1 << 55));
        assert_eq!(value.value(), expect + 0.0);
        assert!(value.is_tainted());
    }

    #[test]
    fn extended_mask_targets_divisions() {
        use crate::mask::OpMask;
        // Under OpMask::DIV, only divisions advance the index space.
        let plan = InjectionPlan::single(target(Region::Common, 0, 55, Operand::B));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan).with_op_mask(OpMask::DIV), || {
            let a = Tf64::new(6.0);
            let b = Tf64::new(2.0);
            let c = a + b; // add: not a target under DIV mask
            assert!(!c.is_tainted());
            let d = a / b; // div idx 0: fires on operand B
            assert!(d.is_tainted());
        });
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.fired[0].kind, OpKind::Div);
        // The injectable index space counted only the division.
        assert_eq!(report.profile.injectable(Region::Common), 1);
    }

    #[test]
    fn extended_mask_fires_on_unary_ops() {
        use crate::mask::OpMask;
        let plan = InjectionPlan::single(target(Region::Common, 0, 52, Operand::A));
        let (_, report) = with_clean_ctx(
            RankCtx::new(0, plan).with_op_mask(OpMask::of(&[OpKind::Other])),
            || {
                let a = Tf64::new(4.0);
                let r = a.sqrt(); // Other idx 0: its operand becomes 2.0
                assert!(r.is_tainted());
                assert_eq!(r.shadow(), 2.0);
                assert_eq!(r.value(), 2.0f64.sqrt());
            },
        );
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.fired[0].kind, OpKind::Other);
        assert!(report.contaminated);
    }

    #[test]
    fn unary_input_flip_can_be_masked_at_site() {
        // A sign flip of abs's operand — named A or B, the one operand —
        // returns the shadow's bits: masked at site, as on a binary op.
        for operand in [Operand::A, Operand::B] {
            let plan = InjectionPlan::single(target(Region::Common, 0, 63, operand));
            let (r, report) =
                with_clean_ctx(RankCtx::new(0, plan).with_op_mask(OpMask::ALL), || {
                    Tf64::new(-2.0).abs()
                });
            assert!(!r.is_tainted());
            assert_eq!(report.fired.len(), 1);
            let rec = report.fired[0];
            assert_eq!((rec.before, rec.after), (-2.0, 2.0));
            assert!(rec.masked_at_site, "{operand:?}");
        }
    }

    #[test]
    fn unfired_targets_are_reported() {
        let plan = InjectionPlan::single(target(Region::Common, 100, 5, Operand::A));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan), || {
            let a = Tf64::new(1.0);
            let _ = a + a; // only 1 op; target at 100 never fires
        });
        assert_eq!(report.planned, 1);
        assert!(report.fired.is_empty());
        assert!(!report.contaminated);
    }

    #[test]
    fn hang_guard_panics_past_budget() {
        let prev = install(RankCtx::profiling(0).with_op_cap(10));
        assert!(prev.is_none());
        let result = std::panic::catch_unwind(|| {
            let a = Tf64::new(1.0);
            let mut acc = Tf64::new(0.0);
            for _ in 0..100 {
                acc += a;
            }
            acc
        });
        assert!(result.is_err());
        let msg = result
            .unwrap_err()
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("hang guard"));
        let report = take().unwrap().into_report();
        assert!(report.hang_guard_tripped);
    }

    #[test]
    fn due_kill_panics_at_firing_op_with_recognisable_payload() {
        let plan = InjectionPlan::single(target(Region::Common, 1, 55, Operand::A));
        let prev = install(RankCtx::new(0, plan).with_kill_on_fire(true));
        assert!(prev.is_none());
        let result = std::panic::catch_unwind(|| {
            let a = Tf64::new(1.0);
            let b = a + a; // idx 0: clean
            let c = b + a; // idx 1: fires -> rank killed
            c
        });
        assert!(result.is_err());
        let msg = result
            .unwrap_err()
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, DUE_MSG);
        let report = take().unwrap().into_report();
        // The firing was recorded and contamination marked before the kill,
        // and the kill counts as a detection.
        assert_eq!(report.fired.len(), 1);
        assert!(report.contaminated);
        assert!(report.detected);
    }

    #[test]
    fn due_kill_is_inert_when_nothing_fires() {
        let plan = InjectionPlan::single(target(Region::Common, 100, 5, Operand::A));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan).with_kill_on_fire(true), || {
            let a = Tf64::new(1.0);
            let _ = a + a; // target at 100 never reached
        });
        assert!(report.fired.is_empty());
        assert!(!report.detected);
    }

    #[test]
    fn note_msg_send_counts_messages() {
        let (idx, report) = with_clean_ctx(RankCtx::profiling(0), || {
            let vals = [Tf64::new(1.0), Tf64::new(2.0)];
            assert_eq!(note_msg_send(&vals), Some(0));
            assert_eq!(note_msg_send(&vals), Some(1));
            note_msg_send(&vals)
        });
        assert_eq!(idx, Some(2));
        assert_eq!(report.profile.msgs_sent, 3);
        assert!(!report.detected);
        // Without a context the fabric gets no index back.
        assert_eq!(note_msg_send(&[Tf64::new(1.0)]), None);
    }

    #[test]
    fn replication_detects_divergent_payloads_at_both_compare_points() {
        // Send side: a tainted value in an outgoing payload is caught.
        let (_, report) = with_clean_ctx(RankCtx::profiling(0).with_replication(true), || {
            note_msg_send(&[Tf64::new(1.0), Tf64::from_parts(2.5, 2.0)]);
        });
        assert!(report.detected);

        // Receive side: note_values catches it too, alongside the usual
        // contamination marking.
        let (_, report) = with_clean_ctx(RankCtx::profiling(1).with_replication(true), || {
            note_values(&[Tf64::from_parts(3.5, 3.0)]);
        });
        assert!(report.detected);
        assert!(report.contaminated);

        // Without replication the same payloads contaminate but never detect.
        let (_, report) = with_clean_ctx(RankCtx::profiling(2), || {
            note_msg_send(&[Tf64::from_parts(2.5, 2.0)]);
            note_values(&[Tf64::from_parts(3.5, 3.0)]);
        });
        assert!(!report.detected);
        assert!(report.contaminated);
    }

    #[test]
    fn wire_fired_is_counted_and_survives_roundtrip() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(0), || {
            note_wire_fired(4, 17);
            let mid = take().unwrap();
            install(mid); // take/install must preserve the counter
            note_wire_fired(9, 3);
        });
        assert_eq!(report.wire_fired, 2);
    }

    #[test]
    fn feature_counters_snapshot_first_contamination() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(0), || {
            let a = Tf64::new(1.0);
            let _ = a + a; // op 0
            let _ = a + a; // op 1
            note_msg_send(&[a]); // send 0
            note_values(&[a]); // recv 0: clean, no crossing
            note_values(&[Tf64::from_parts(2.5, 2.0)]); // recv 1: crossing -> contam
            let _ = a + a; // op 2, after contamination
            note_values(&[Tf64::from_parts(3.5, 3.0)]); // recv 2: still counted
        });
        assert_eq!(report.msgs_recvd, 3);
        assert_eq!(report.tainted_msgs_recvd, 2);
        assert_eq!(report.first_contam_op, Some(2));
        assert_eq!(report.msgs_sent_at_contam, 1);
        // The contaminating message is itself counted as received.
        assert_eq!(report.msgs_recvd_at_contam, 2);
        assert!(report.contaminated);

        // Never-contaminated ranks report no snapshot.
        let (_, report) = with_clean_ctx(RankCtx::profiling(1), || {
            let a = Tf64::new(1.0);
            let _ = a + a;
            note_values(&[a]);
        });
        assert_eq!(report.first_contam_op, None);
        assert_eq!(report.msgs_recvd, 1);
        assert_eq!(report.tainted_msgs_recvd, 0);
    }

    #[test]
    fn feature_counters_survive_roundtrip() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(0), || {
            note_values(&[Tf64::from_parts(2.5, 2.0)]);
            let mid = take().unwrap();
            install(mid); // take/install must preserve the counters
            note_values(&[Tf64::new(1.0)]);
        });
        assert_eq!(report.msgs_recvd, 2);
        assert_eq!(report.tainted_msgs_recvd, 1);
        assert_eq!(report.first_contam_op, Some(0));
    }

    #[test]
    fn tainted_operand_contaminates_rank() {
        let (_, report) = with_clean_ctx(RankCtx::profiling(0), || {
            // Value born tainted (e.g. received from a contaminated rank).
            let t = Tf64::from_parts(1.5, 1.0);
            let clean = Tf64::new(2.0);
            let out = t + clean;
            assert!(out.is_tainted());
        });
        assert!(report.contaminated);
    }

    #[test]
    fn hooks_work_without_context() {
        assert!(!is_installed());
        let a = Tf64::new(2.0);
        let b = Tf64::new(3.0);
        assert_eq!((a * b).value(), 6.0);
        assert!(!(a * b).is_tainted());
    }

    /// A context in which no field still has the value a fresh one
    /// starts with (`hang_guard_tripped` aside: tripping it panics), so a
    /// field that does not make a round trip shows.
    fn busy_ctx(rank: usize) -> RankCtx {
        let plan = InjectionPlan::multi(vec![
            target(Region::Common, 1, 55, Operand::A),
            target(Region::Common, 40, 3, Operand::B),
            target(Region::ParallelUnique, 30, 4, Operand::B),
        ]);
        let ctx = RankCtx::new(rank, plan)
            .with_taint_threshold(0.125)
            .with_op_mask(OpMask::ALL)
            .with_op_cap(1 << 20)
            .with_replication(true);
        assert!(install(ctx).is_none(), "leaked context");
        let a = Tf64::new(1.5);
        note_msg_send(&[a]);
        note_values(&[a]);
        let b = a + a; // common 0
        let c = b * a; // common 1: fires, contaminates
        let _ = c / a; // a division, counted under `OpMask::ALL`
        let _ = c.sqrt(); // and a unary op
        note_msg_send(&[c]); // tainted payload under replication: detected
        note_values(&[c]); // taint crossing
        note_wire_fired(1, 9);
        set_region(Region::ParallelUnique);
        let _ = a - b; // parallel-unique 0
                       // Nothing fires again before the compare.
        take().unwrap().with_kill_on_fire(true)
    }

    #[test]
    fn take_install_roundtrips_every_field_across_another_contexts_run() {
        let reference = busy_ctx(3);
        let fresh = RankCtx::profiling(0);
        // `mode` is tracked in both: neither holds sub-threshold taint.
        macro_rules! all_differ {
            ($($half:ident.$field:ident),*) => {$(
                assert!(
                    reference.$half.$field != fresh.$half.$field,
                    stringify!($half.$field)
                );
            )*};
        }
        all_differ!(
            hot.rank,
            hot.region,
            hot.mask,
            hot.contaminated,
            hot.taint_threshold,
            hot.op_cap,
            hot.next_pending,
            hot.budget,
            hot.granted,
            hot.replicate,
            hot.detected,
            hot.msgs_sent,
            hot.wire_fired,
            hot.msgs_recvd,
            hot.tainted_msgs_recvd,
            hot.first_contam_op,
            hot.msgs_sent_at_contam,
            hot.msgs_recvd_at_contam,
            cold.queues,
            cold.fired,
            cold.planned,
            cold.kill_on_fire
        );

        // Take it off the thread, let a different context live there —
        // installed, worked, harvested, as another rank's time slice does
        // — and put it back: every field is as it was, and the guest saw
        // only its own ops.
        assert!(install(busy_ctx(3)).is_none());
        let ctx = take().unwrap();
        assert!(!is_installed());
        assert!(take().is_none(), "nothing left to take");
        assert_eq!((ctx.rank(), ctx.taint_threshold()), (3, 0.125));
        let x = Tf64::new(2.0);
        let _ = x * x; // context-free: counted nowhere
        let (_, guest) = with_clean_ctx(RankCtx::profiling(9).with_op_cap(77), || {
            let _ = x * x + x;
            note_values(&[x]);
        });
        assert_eq!(guest.rank, 9);
        assert_eq!(guest.profile.total(), 2);
        assert_eq!(guest.msgs_recvd, 1);
        assert!(!guest.contaminated && guest.fired.is_empty());
        assert!(install(ctx).is_none());
        assert_eq!(take().unwrap(), reference);

        // Taken twice in a row, with nothing in between, changes nothing
        // either; and the context goes on where it stopped, up to the
        // next target's op.
        install(busy_ctx(3).with_kill_on_fire(false));
        let ctx = take().unwrap();
        install(ctx);
        let a = Tf64::new(1.0);
        for _ in 1..30 {
            assert!(!(a + a).is_tainted()); // parallel-unique 1..=29
        }
        assert!((a + a).is_tainted()); // parallel-unique 30: fires
        let report = take().unwrap().into_report();
        assert_eq!(report.fired.len(), 2);
        assert_eq!(report.profile.injectable(Region::ParallelUnique), 31);
        assert_eq!(report.profile.total(), reference.profile().total() + 30);
    }

    /// A million tracked ops of every kind in both regions, add-heavy as
    /// the apps are.
    fn mixed_program() -> Tf64 {
        let (x, y) = (Tf64::new(1.000_001), Tf64::new(0.75));
        let mut acc = Tf64::new(0.5);
        for i in 0..125_000u32 {
            acc = acc * y + x; // mul, add
            acc = (acc - x) / y + y; // sub, div, add
            acc = acc.abs().min(x); // two of the "other" kind
            if i % 8 == 0 {
                set_region(Region::ParallelUnique);
                acc = acc * x + y;
                set_region(Region::Common);
            } else {
                acc += y;
            }
        }
        acc
    }

    /// Run [`mixed_program`] under `plan` with the harness's hang cap
    /// (8·N + 100 000 for a golden run of N ops) and return the number of
    /// [`checked_op`] visits with the report.
    fn cold_visits_of(plan: InjectionPlan, golden: &OpProfile) -> (u64, CtxReport) {
        let cap = 8 * golden.total() + 100_000;
        COLD_VISITS.with(|n| n.set(0));
        let (_, report) = with_clean_ctx(RankCtx::new(0, plan).with_op_cap(cap), mixed_program);
        assert_eq!(report.profile, *golden, "a plan never changes the counts");
        assert!(!report.hang_guard_tripped);
        (COLD_VISITS.with(|n| n.get()), report)
    }

    #[test]
    fn cold_visits_per_target_stay_few() {
        let (_, golden) = with_clean_ctx(RankCtx::profiling(0), mixed_program);
        let golden = golden.profile;
        assert!(golden.total() >= 1_000_000);
        let last = golden.injectable(Region::Common) - 1;

        // The longest approach there is: one target on the last
        // injectable op.
        let plan = InjectionPlan::single(target(Region::Common, last, 3, Operand::A));
        let (visits, report) = cold_visits_of(plan, &golden);
        assert_eq!(report.fired.len(), 1);
        assert!(visits <= 64, "{visits} cold visits for one target");

        // Eight targets spread over the run and both regions.
        let unique = golden.injectable(Region::ParallelUnique);
        let plan = InjectionPlan::multi(
            (1..=6)
                .map(|j| target(Region::Common, j * last / 6, 3, Operand::B))
                .chain([
                    target(Region::ParallelUnique, unique / 2, 3, Operand::A),
                    target(Region::ParallelUnique, unique - 1, 3, Operand::B),
                ])
                .collect(),
        );
        let (visits, report) = cold_visits_of(plan, &golden);
        assert_eq!(report.fired.len(), 8);
        assert!(visits <= 8 * 32, "{visits} cold visits for eight targets");

        // No target at all: the cap's share alone, a handful of visits.
        let (visits, _) = cold_visits_of(InjectionPlan::none(), &golden);
        assert!(visits <= 8, "{visits} cold visits with no target");
    }

    #[test]
    fn target_behind_the_counters_never_fires_and_pins_no_cell() {
        // A context whose counters have passed its front target by the
        // time its cells are armed: the target cannot fire, nothing queued
        // behind it can, and its cells must not sit at zero for it.
        let (_, golden) = with_clean_ctx(RankCtx::profiling(0), mixed_program);
        let plan = InjectionPlan::multi(vec![
            target(Region::Common, 10, 3, Operand::A),
            target(Region::Common, 500_000, 3, Operand::A),
        ]);
        let ctx = RankCtx::new(0, plan);
        let adds = &ctx.hot.granted[Region::Common.index()][OpKind::Add.index()];
        adds.set(adds.get() + 11); // eleven adds already executed
        ctx.hot.rearm();
        COLD_VISITS.with(|n| n.set(0));
        let (_, report) = with_clean_ctx(ctx, mixed_program);
        assert!(report.fired.is_empty() && !report.contaminated);
        assert_eq!(report.profile.total(), golden.profile.total() + 11);
        assert_eq!(COLD_VISITS.with(|n| n.get()), 0);
    }

    #[test]
    fn hang_guard_trips_at_exactly_the_op_past_the_cap() {
        // Wherever the cap falls among the budgets' grants, the op that
        // trips is number cap + 1, counted; and every op after it trips
        // again.
        for cap in [0u64, 1, 9, 10, 11, 99, 100, 101, 1234] {
            assert!(install(RankCtx::profiling(0).with_op_cap(cap)).is_none());
            let a = Tf64::new(1.0);
            let ran = std::panic::catch_unwind(|| {
                let mut acc = Tf64::new(0.0);
                for i in 0..5000u32 {
                    acc = if i % 3 == 0 { acc * a } else { acc + a };
                }
            });
            assert!(ran.is_err());
            assert!(std::panic::catch_unwind(|| a - a).is_err());
            let report = take().unwrap().into_report();
            assert!(report.hang_guard_tripped);
            assert_eq!(report.profile.total(), cap + 2);
        }
    }

    #[test]
    fn install_returns_the_context_it_displaces() {
        assert!(install(RankCtx::profiling(0)).is_none());
        let displaced = install(RankCtx::profiling(1)).expect("rank 0 was installed");
        assert_eq!(displaced, RankCtx::profiling(0));
        assert_eq!(take().unwrap().rank(), 1);
    }
}
