//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync` primitives behind parking_lot's ergonomics: `lock()`
//! returns the guard directly (poisoning is ignored — a panicking rank
//! must not poison the fabric for its peers), and `Condvar::wait_until`
//! takes the guard by `&mut` against a deadline `Instant`.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Instant;

/// A mutex whose `lock` never returns `Err` (poison-transparent).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]. Holds an `Option` internally so
/// [`Condvar::wait_until`] can take and restore the underlying std guard
/// through `&mut`.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking. Poison from a panicked holder is
    /// ignored (the data is returned as-is, like parking_lot).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("guard taken during wait")
    }
}

/// Whether a timed condvar wait hit its deadline.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken during wait");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Block until notified or `deadline` passes. Spurious wakeups are
    /// possible, exactly as with parking_lot — callers loop.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard taken during wait");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1; // would panic on a poisoned std mutex
        assert_eq!(*m.lock(), 1);
        assert_eq!(m.lock().deref(), &1);
    }

    #[test]
    fn wait_until_times_out_and_restores_guard() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
        assert!(!*g); // guard usable again after the wait
    }

    #[test]
    fn notify_wakes_waiter() {
        let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = shared.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                let r = cv.wait_until(&mut g, Instant::now() + Duration::from_secs(5));
                assert!(!r.timed_out());
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*shared;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
