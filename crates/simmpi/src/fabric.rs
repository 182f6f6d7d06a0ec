//! The in-memory message fabric and its run-to-block scheduler.
//!
//! One mailbox per rank plus one state per rank — `Ready`,
//! `Blocked{src, tag}` or `Done`. Exactly one rank of a world runs at a
//! time (it "holds the baton") and only that rank touches this state, so
//! the baton is the only lock there is (`crate::baton`): a message costs
//! a mailbox push and a pop, never a lock. The fabric decides who is
//! next, a carrier (`crate::carrier`) moves the CPU there:
//!
//! * a **send** never blocks: it queues the message and, if the
//!   destination is blocked on exactly that `(src, tag)`, makes it
//!   `Ready` — nobody is woken, the sender keeps running;
//! * a **receive** with no matching message marks the rank `Blocked` and
//!   hands the baton to the next `Ready` rank in cyclic order after it
//!   (non-matching messages stay buffered, like MPI's unexpected-message
//!   queue);
//! * a rank that **exits** hands on the same way;
//! * **no `Ready` rank while some are `Blocked`** is a deadlock, detected
//!   on the spot: a blocked rank's receive fails with
//!   [`Abort::Deadlock`] (classified as a hang);
//! * when a rank dies the fabric is **poisoned**: one flag is set, the
//!   next handoff makes every blocked rank `Ready`, and every pending and
//!   future receive fails with [`Abort::FabricDead`], so one rank's
//!   crash tears the whole job down in schedule order — the behaviour of
//!   `MPI_Abort`.
//!
//! The schedule is therefore a function of the rank bodies alone: no
//! wall clock, no thread timing, the same on every carrier.

use crate::baton::Baton;
use crate::carrier::Carrier;
use crate::error::Abort;
use resilim_inject::{ctx, Tf64};
use resilim_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// Count a delivered (matched) message. Taint scanning only happens with
/// the recorder on, so the disabled path never touches the payload.
fn note_recv(payload: &[Tf64]) {
    if obs::enabled() {
        obs::count(obs::Counter::MsgsRecvd, 1);
        let tainted = payload.iter().filter(|x| x.is_tainted()).count();
        obs::count(obs::Counter::TaintedElemsRecvd, tainted as u64);
    }
}

/// A planned wire fault (`--fault-model msg`): flip `bit` of one element
/// of the `msg_index`-th numeric message sent by rank `src`.
///
/// The corruption happens *on the wire*: the sender's replica compare
/// point ([`ctx::note_msg_send`]) sees the payload before
/// the flip, so only the receiver can observe it. The element is selected
/// as `elem_sel % len`, so one uniform draw covers payloads of any length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// Sending rank whose message is corrupted.
    pub src: usize,
    /// Zero-based index among that rank's numeric sends.
    pub msg_index: u64,
    /// Element selector, reduced modulo the payload length.
    pub elem_sel: u64,
    /// Bit to flip in the element's IEEE-754 representation (0..64).
    pub bit: u8,
}

/// A message in flight.
struct Envelope {
    src: usize,
    tag: u64,
    payload: Vec<Tf64>,
}

/// What the scheduler knows about one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Runnable: holds the baton or waits its turn.
    Ready,
    /// In a receive that nothing buffered matches.
    Blocked { src: usize, tag: u64 },
    /// Returned or panicked; never runs again.
    Done,
}

/// Mailboxes and the schedule: what the baton holder owns.
struct Sched {
    boxes: Vec<VecDeque<Envelope>>,
    ranks: Vec<RankState>,
}

/// The baton's value once every rank is done.
const NOBODY: usize = usize::MAX;

impl Sched {
    /// `from` blocks or finishes (enters `state`): pick the rank that
    /// runs next.
    ///
    /// *Poison is lazy:* on a `dead` fabric every blocked rank is made
    /// `Ready` first. [`Fabric::poison`] itself only sets the flag (it
    /// may come from the watchdog thread, which holds no baton); that is
    /// the same schedule as readying them at once, because a rank cannot
    /// block on a dead fabric and nobody but the baton holder runs
    /// between a poison and the next handoff.
    ///
    /// *Next-rank rule:* the first `Ready` rank in cyclic order after
    /// `from`. A constant, not a knob: under it a linear collective over
    /// `p` ranks costs about `p` handoffs (each contributor passes the
    /// baton to its neighbour, the root runs once everyone has sent)
    /// where lowest-rank-first would bounce through the root every time.
    ///
    /// *Deadlock rule:* with nobody `Ready`, no blocked receive can ever
    /// be matched. The first blocked rank in cyclic order *from* `from` —
    /// `from` itself when it is the one blocking — is made `Ready` with
    /// nothing to receive, which its `recv` reports as a timeout.
    ///
    /// Returns the new baton holder (`None`: every rank is done).
    fn hand_on(&mut self, from: usize, state: RankState, dead: bool) -> Option<usize> {
        self.ranks[from] = state;
        if dead {
            for state in &mut self.ranks {
                if matches!(state, RankState::Blocked { .. }) {
                    *state = RankState::Ready;
                }
            }
        }
        let n = self.ranks.len();
        let cyclic_from = |start: usize| (0..n).map(move |k| (start + k) % n);
        let mut next = cyclic_from(from + 1).find(|&r| self.ranks[r] == RankState::Ready);
        if next.is_none() {
            next = cyclic_from(from).find(|&r| matches!(self.ranks[r], RankState::Blocked { .. }));
            if let Some(victim) = next {
                self.ranks[victim] = RankState::Ready;
                obs::count(obs::Counter::DeadlocksDetected, 1);
            }
        }
        if next.is_some_and(|r| r != from) {
            obs::count(obs::Counter::RankSwitches, 1);
        }
        next
    }
}

/// The shared fabric connecting all ranks of one [`World`](crate::World)
/// run.
pub(crate) struct Fabric {
    size: usize,
    sched: Baton<Sched>,
    dead: AtomicBool,
    msg_fault: Option<MsgFault>,
    carrier: Carrier,
}

impl Fabric {
    /// A fabric for `size` ranks, all `Ready`, rank 0 holding the baton,
    /// with an optional armed wire fault (see [`MsgFault`]).
    pub(crate) fn new(size: usize, msg_fault: Option<MsgFault>, carrier: Carrier) -> Fabric {
        Fabric {
            size,
            sched: Baton::new(
                0,
                Sched {
                    boxes: (0..size).map(|_| VecDeque::new()).collect(),
                    ranks: vec![RankState::Ready; size],
                },
            ),
            dead: AtomicBool::new(false),
            msg_fault,
            carrier,
        }
    }

    /// Number of ranks.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// How this fabric's handoffs move the CPU.
    pub(crate) fn carrier(&self) -> &Carrier {
        &self.carrier
    }

    /// The rank that holds the baton (`None` once every rank is done).
    /// An `Acquire` load: a rank that finds itself named here has seen
    /// everything earlier holders did to the fabric.
    pub(crate) fn running(&self) -> Option<usize> {
        let holder = self.sched.holder();
        (holder != NOBODY).then_some(holder)
    }

    /// Whether the fabric has been poisoned.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Poison the fabric: every operation fails from now on, and the
    /// next handoff readies every blocked rank (see [`Sched::hand_on`]).
    /// Nobody is switched to — teardown follows the schedule. May be
    /// called from outside the world (the trial watchdog), so it touches
    /// nothing the baton guards.
    pub(crate) fn poison(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// `me`, the baton holder, enters `state` (`Blocked` or `Done`) and
    /// gives the baton up; naming its successor is the last thing it does
    /// to the scheduler state.
    fn hand_on(&self, me: usize, state: RankState) -> Option<usize> {
        let dead = self.is_dead();
        let next = self
            .sched
            .pass(me, |sched| sched.hand_on(me, state, dead).unwrap_or(NOBODY));
        (next != NOBODY).then_some(next)
    }

    /// `me` has finished (returned or panicked): hand the baton on.
    pub(crate) fn exit(&self, me: usize) {
        if let Some(next) = self.hand_on(me, RankState::Done) {
            self.carrier.pass(next);
        }
    }

    /// Route an outgoing payload through the sender-side hooks: count the
    /// send into the rank's profile (and replica-compare it), then apply
    /// the armed wire fault if this is its message. Order matters — the
    /// replica compare must see the pre-corruption payload.
    fn outbound(&self, src: usize, mut values: Vec<Tf64>) -> Vec<Tf64> {
        let idx = ctx::note_msg_send(&values);
        if let (Some(idx), Some(fault)) = (idx, self.msg_fault) {
            if fault.src == src && fault.msg_index == idx && !values.is_empty() {
                let e = (fault.elem_sel % values.len() as u64) as usize;
                values[e] = values[e].flipped_in_transit(fault.bit & 63);
                ctx::note_wire_fired(idx, fault.bit & 63);
            }
        }
        values
    }

    /// Deliver a message to `dst`'s mailbox through the sender-side hooks
    /// ([`Fabric::outbound`]). Never blocks, never switches: a receiver
    /// blocked on exactly this message becomes `Ready`.
    pub(crate) fn send(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Vec<Tf64>,
    ) -> Result<(), Abort> {
        self.check_open(dst)?;
        let payload = self.outbound(src, payload);
        self.post(src, dst, tag, payload);
        Ok(())
    }

    /// Deliver an empty synchronisation token (the barrier's) to `dst`.
    /// Scheduled and counted like any message, but it bypasses the
    /// sender-side hooks: it is no numeric send, so it never enters the
    /// rank's profile or the wire-fault index.
    pub(crate) fn send_token(&self, src: usize, dst: usize, tag: u64) -> Result<(), Abort> {
        self.check_open(dst)?;
        self.post(src, dst, tag, Vec::new());
        Ok(())
    }

    /// Whether a message to `dst` can be sent at all: not on a dead
    /// fabric. A destination outside the world is the sender's own bug,
    /// a crash.
    fn check_open(&self, dst: usize) -> Result<(), Abort> {
        if self.is_dead() {
            return Err(Abort::FabricDead);
        }
        assert!(
            dst < self.size,
            "resilim-simmpi: invalid rank {dst} (world size {})",
            self.size
        );
        Ok(())
    }

    /// Queue a message in `dst`'s mailbox, readying `dst` if it is
    /// blocked on exactly it.
    fn post(&self, src: usize, dst: usize, tag: u64, payload: Vec<Tf64>) {
        if obs::enabled() {
            obs::count(obs::Counter::MsgsSent, 1);
            // 8 per tracked f64: the width a real MPI transfer would move.
            obs::count(obs::Counter::BytesSent, payload.len() as u64 * 8);
        }
        self.sched.hold(src, |sched| {
            sched.boxes[dst].push_back(Envelope { src, tag, payload });
            if sched.ranks[dst] == (RankState::Blocked { src, tag }) {
                sched.ranks[dst] = RankState::Ready;
            }
        });
    }

    /// Receive the first message matching `(src, tag)` in `me`'s mailbox,
    /// giving the baton away until one is there. Non-matching messages
    /// stay buffered. `me` is the caller's own rank, in the world because
    /// it holds the baton (`Baton::hold` asserts it).
    pub(crate) fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Vec<Tf64>, Abort> {
        let mut waited = false;
        loop {
            let matched = self.sched.hold(me, |sched| {
                let mailbox = &mut sched.boxes[me];
                let pos = mailbox.iter().position(|e| e.src == src && e.tag == tag)?;
                Some(mailbox.remove(pos).expect("position just found").payload)
            });
            if let Some(payload) = matched {
                note_recv(&payload);
                return Ok(payload);
            }
            if self.is_dead() {
                return Err(Abort::FabricDead);
            }
            if waited {
                // A blocked rank is made `Ready` by a matching send, by
                // poison, or by the deadlock rule; it was none of the
                // first two.
                return Err(Abort::Deadlock { rank: me, src, tag });
            }
            waited = true;
            let next = self
                .hand_on(me, RankState::Blocked { src, tag })
                .expect("a blocked rank is not done");
            if next != me {
                self.carrier.switch(self, me, next);
            }
        }
    }

    /// Number of buffered (undelivered) messages across all mailboxes: a
    /// clean SPMD program ends with an empty fabric.
    #[cfg(test)]
    fn pending_messages(&self) -> usize {
        self.peek(|sched| sched.boxes.iter().map(VecDeque::len).sum())
    }

    /// Look at the scheduler state as whoever holds the baton (tests
    /// drive a fabric by hand from one thread).
    #[cfg(test)]
    fn peek<R>(&self, f: impl FnOnce(&mut Sched) -> R) -> R {
        self.sched.hold(self.sched.holder(), f)
    }

    /// Move the baton by hand, outside the schedule.
    #[cfg(test)]
    fn give_baton(&self, to: usize) {
        self.sched.pass(self.sched.holder(), |_| to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric driven by hand from the test thread, which plays every
    /// rank: it moves the baton itself ([`Fabric::give_baton`]) and
    /// nothing here may switch to another rank.
    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, None, Carrier::threads())
    }

    /// A fabric whose ranks are in `states`, `holder` holding the baton.
    fn fabric_in(states: &[RankState], holder: usize) -> Fabric {
        let f = fabric(states.len());
        f.peek(|sched| sched.ranks = states.to_vec());
        f.give_baton(holder);
        f
    }

    /// A one-element message.
    fn msg(x: f64) -> Vec<Tf64> {
        vec![Tf64::new(x)]
    }

    fn states(f: &Fabric) -> Vec<RankState> {
        f.peek(|sched| sched.ranks.clone())
    }

    const BLOCKED: RankState = RankState::Blocked { src: 0, tag: 0 };
    use RankState::{Done, Ready};

    #[test]
    fn send_then_recv() {
        let f = fabric(2);
        f.send(0, 1, 7, msg(1.5)).unwrap();
        f.give_baton(1);
        let p = f.recv(1, 0, 7).unwrap();
        assert_eq!(p[0].value(), 1.5);
        assert_eq!(f.pending_messages(), 0);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let f = fabric(2);
        f.send(0, 1, 1, msg(1.0)).unwrap();
        f.send(0, 1, 2, msg(2.0)).unwrap();
        f.give_baton(1);
        // Receive tag 2 first; tag 1 stays buffered.
        assert_eq!(f.recv(1, 0, 2).unwrap(), msg(2.0));
        assert_eq!(f.pending_messages(), 1);
        assert_eq!(f.recv(1, 0, 1).unwrap(), msg(1.0));
    }

    #[test]
    fn src_matching() {
        let f = fabric(3);
        f.give_baton(2);
        f.send(2, 0, 9, msg(2.0)).unwrap();
        f.give_baton(1);
        f.send(1, 0, 9, msg(1.0)).unwrap();
        f.give_baton(0);
        assert_eq!(f.recv(0, 1, 9).unwrap(), msg(1.0));
        assert_eq!(f.recv(0, 2, 9).unwrap(), msg(2.0));
    }

    #[test]
    #[should_panic(expected = "rank 1 does not hold the baton")]
    fn only_the_baton_holder_may_touch_the_fabric() {
        let _ = fabric(2).recv(1, 0, 0);
    }

    #[test]
    fn next_rank_is_the_first_ready_one_in_cyclic_order() {
        let f = fabric_in(&[Ready, BLOCKED, Ready, Ready], 3);
        assert_eq!(f.hand_on(3, BLOCKED), Some(0), "wraps around");
        assert_eq!(f.running(), Some(0));
        let f = fabric_in(&[Ready, Ready, Done, Ready], 1);
        assert_eq!(
            f.hand_on(1, BLOCKED),
            Some(3),
            "skips done ranks, not back to 0"
        );
        assert_eq!(f.running(), Some(3));
        assert_eq!(states(&f)[1], BLOCKED, "no verdict while somebody can run");
    }

    #[test]
    fn nobody_ready_is_a_deadlock_and_the_blocking_rank_is_the_victim() {
        let f = fabric_in(&[BLOCKED, Done, Ready], 2);
        assert_eq!(
            f.hand_on(2, BLOCKED),
            Some(2),
            "the detecting rank fails itself"
        );
        assert_eq!(states(&f), [BLOCKED, Done, Ready]);
        // An exiting rank cannot fail: the next blocked one after it does.
        let f = fabric_in(&[BLOCKED, Ready, BLOCKED], 1);
        assert_eq!(f.hand_on(1, Done), Some(2));
        assert_eq!(states(&f), [BLOCKED, Done, Ready]);
        assert_eq!(f.running(), Some(2));
        let f = fabric_in(&[Done, Ready], 1);
        assert_eq!(
            f.hand_on(1, Done),
            None,
            "everybody done: the world is over"
        );
        assert_eq!(f.running(), None);
    }

    #[test]
    fn a_receive_nothing_can_match_fails_at_once() {
        // Rank 1 is done and rank 0 blocks: deadlock, no timer involved.
        let f = fabric_in(&[Ready, Done], 0);
        let err = f.recv(0, 1, 0).unwrap_err();
        assert_eq!(
            err,
            Abort::Deadlock {
                rank: 0,
                src: 1,
                tag: 0
            }
        );
        // The verdict did not poison anything: a later send still lands.
        f.send(0, 0, 3, msg(9.0)).unwrap();
        assert_eq!(f.recv(0, 0, 3).unwrap(), msg(9.0));
    }

    #[test]
    fn a_send_readies_exactly_the_receiver_it_matches() {
        let waiting = RankState::Blocked { src: 0, tag: 5 };
        let f = fabric_in(&[Ready, waiting, waiting], 0);
        f.send(0, 1, 4, Vec::new()).unwrap(); // wrong tag
        f.give_baton(2);
        f.send(2, 1, 5, Vec::new()).unwrap(); // wrong source
        assert_eq!(states(&f)[1], waiting);
        f.give_baton(0);
        f.send(0, 1, 5, Vec::new()).unwrap();
        assert_eq!(states(&f), [Ready, Ready, waiting]);
        assert_eq!(f.running(), Some(0), "a send never moves the baton");
    }

    #[test]
    fn poison_readies_blocked_ranks_and_fails_pending_and_future_operations() {
        let f = fabric_in(&[Ready, Ready, BLOCKED], 0);
        f.send(0, 1, 1, msg(1.0)).unwrap();
        // From a thread that holds no baton, as the watchdog does.
        std::thread::scope(|scope| {
            scope.spawn(|| f.poison());
        });
        assert!(f.is_dead());
        assert_eq!(f.running(), Some(0), "poison never moves the baton");
        assert_eq!(states(&f)[2], BLOCKED, "nor anything else it guards");
        // Nothing can be sent and nobody can block any more...
        assert_eq!(f.send(0, 1, 5, Vec::new()).unwrap_err(), Abort::FabricDead);
        assert_eq!(f.recv(0, 1, 2).unwrap_err(), Abort::FabricDead);
        assert_eq!(f.running(), Some(0));
        // ...and the next handoff readies whoever was blocked.
        assert_eq!(f.hand_on(0, Done), Some(1));
        assert_eq!(states(&f), [Done, Ready, Ready]);
        // What was already delivered can still be taken; nothing else.
        assert_eq!(f.recv(1, 0, 1).unwrap(), msg(1.0));
        assert_eq!(f.recv(1, 0, 2).unwrap_err(), Abort::FabricDead);
    }

    #[test]
    fn armed_wire_fault_corrupts_the_indexed_message_only() {
        use resilim_inject::RankCtx;
        let fault = MsgFault {
            src: 0,
            msg_index: 1,
            elem_sel: 5,
            bit: 52,
        };
        let f = Fabric::new(2, Some(fault), Carrier::threads());
        let prev = ctx::install(RankCtx::profiling(0));
        assert!(prev.is_none(), "leaked context from another test");
        let pair = || vec![Tf64::new(1.0), Tf64::new(2.0)];
        f.send(0, 1, 0, pair()).unwrap(); // send 0: clean
        f.send(0, 1, 1, pair()).unwrap(); // send 1: corrupted on the wire
        f.send_token(0, 1, 2).unwrap(); // a token: uncounted
        let report = ctx::take().unwrap().into_report();
        assert_eq!(report.profile.msgs_sent, 2);
        assert_eq!(report.wire_fired, 1);
        // The sender never saw the corruption (it happened on the wire).
        assert!(!report.detected);

        f.give_baton(1);
        let clean = f.recv(1, 0, 0).unwrap();
        assert!(clean.iter().all(|v| !v.is_tainted()));
        let bad = f.recv(1, 0, 1).unwrap();
        // elem_sel 5 % len 2 = element 1; shadow keeps the true value.
        assert!(!bad[0].is_tainted());
        assert!(bad[1].is_tainted());
        assert_eq!(bad[1].shadow(), 2.0);
        assert_eq!(bad[1].value(), f64::from_bits(2.0f64.to_bits() ^ (1 << 52)));
    }

    #[test]
    fn wire_fault_without_context_stays_unarmed() {
        // Golden (profiling-free) sends outside a rank context must not
        // consume the fault: there is no message index to match.
        let fault = MsgFault {
            src: 0,
            msg_index: 0,
            elem_sel: 0,
            bit: 52,
        };
        let f = Fabric::new(2, Some(fault), Carrier::threads());
        f.send(0, 1, 0, msg(1.0)).unwrap();
        f.give_baton(1);
        let p = f.recv(1, 0, 0).unwrap();
        assert!(!p[0].is_tainted());
    }
}
