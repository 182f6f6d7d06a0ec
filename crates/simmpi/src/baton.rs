//! State owned by whichever rank holds the baton: the baton is the lock.
//! The crate's second `unsafe` module, after `coroutine.rs`. Contract with
//! `fabric.rs`, its only user (argued in full in DESIGN.md §6.1):
//! * one execution context acts for a rank id at a time and never re-enters
//!   `hold` from the closure it passes, so behind the holder check no two
//!   `&mut` to the state coexist;
//! * the baton moves by the holder's `Release` store, after its last access,
//!   and is taken up by an `Acquire` load: a holder has seen every write.
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub(crate) struct Baton<T> {
    holder: AtomicUsize,
    state: UnsafeCell<T>,
}
// SAFETY: see the contract; the state crosses threads with the baton.
unsafe impl<T: Send> Sync for Baton<T> {}

impl<T> Baton<T> {
    pub(crate) fn new(holder: usize, state: T) -> Baton<T> {
        let (holder, state) = (AtomicUsize::new(holder), UnsafeCell::new(state));
        Baton { holder, state }
    }
    /// Who holds the baton.
    pub(crate) fn holder(&self) -> usize {
        self.holder.load(Ordering::Acquire)
    }
    /// Rank `me`, which must hold the baton, works on the state.
    pub(crate) fn hold<R>(&self, me: usize, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(self.holder() == me, "rank {me} does not hold the baton");
        // SAFETY: `me` holds the baton, so nobody else is in here.
        f(unsafe { &mut *self.state.get() })
    }
    /// [`Baton::hold`], then pass the baton to the rank `f` picked.
    pub(crate) fn pass(&self, me: usize, f: impl FnOnce(&mut T) -> usize) -> usize {
        let next = self.hold(me, f);
        self.holder.store(next, Ordering::Release);
        next
    }
}
