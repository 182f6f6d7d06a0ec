//! Stackful coroutines: the fast carrier of the fabric's schedule.
//!
//! Every rank of a pooled world is one [`Coroutine`] on the thread that
//! called `World::run_pooled`; a rank that blocks in a receive calls
//! [`suspend`] and the world's driver loop [`Coroutine::resume`]s
//! whichever rank the fabric scheduled next. A switch is a swap of the
//! callee-saved registers and the stack pointer — no kernel, no futex, no
//! other thread.
//!
//! This is the crate's one `unsafe` module; everything it exports is
//! safe to call. What makes that sound:
//!
//! * a coroutine only ever runs on the thread that created it
//!   ([`Coroutine`] is neither `Send` nor `Sync`), so thread-locals and
//!   the panic machinery behave as for any call on that thread;
//! * no unwind crosses a switch: the entry function is `extern "C"`, so a
//!   panic escaping the body aborts the process instead of unwinding into
//!   a foreign frame (rank bodies run under `run_rank`'s `catch_unwind`,
//!   on their own stack);
//! * the body may borrow for `'a` and the coroutine holds `'a`, so a
//!   suspended frame can never outlive what it borrows; dropping an
//!   unfinished coroutine leaks its frames (and its stack) like
//!   `mem::forget`, it never runs or frees them;
//! * a stack is [`STACK_BYTES`] of memory whose low [`GUARD_BYTES`] are
//!   `PROT_NONE`: running off the end faults (the process dies of
//!   `SIGSEGV`, as a thread-stack overflow aborts it) instead of
//!   scribbling on the heap.
//!
//! Only x86_64 Linux has a switch implementation; every other target
//! (and Miri) carries the same schedule on OS threads instead.

use std::alloc::{self, Layout};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr::{self, NonNull};

/// Size of one coroutine stack, guard included. Virtual memory: only the
/// pages a rank touches become resident (high-water mark of the six apps
/// in release builds: under 9 KiB per rank, panics included).
pub(crate) const STACK_BYTES: usize = 256 * 1024;
/// The inaccessible region at the low end of every stack.
const GUARD_BYTES: usize = 4 * PAGE_BYTES;
/// x86_64 Linux page size; `mprotect` needs page-aligned ranges.
const PAGE_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;

extern "C" {
    /// libc's `mprotect(2)` (std already links libc).
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;

    /// Save the callee-saved registers on the current stack, store the
    /// resulting stack pointer to `*save`, switch to `load`, and pop the
    /// registers saved there. Returns when something switches back to
    /// the pointer stored in `*save`.
    fn resilim_simmpi_switch(save: *mut *mut u8, load: *mut u8);

    /// First return address of a fresh coroutine: calls the entry
    /// function in `r12` with the argument in `rbx`.
    fn resilim_simmpi_trampoline();
}

// System V x86_64: rbx, rbp, r12–r15 are callee-saved; everything else
// is dead across a call, which is what a switch looks like to its caller.
// (The MXCSR and x87 control words are callee-saved too; nothing in this
// workspace changes them, so they are not swapped.) The trampoline is the
// outermost frame of a coroutine: its CFI marks the return address
// undefined so unwinders and backtraces stop there.
core::arch::global_asm!(
    ".text",
    ".global resilim_simmpi_switch",
    ".hidden resilim_simmpi_switch",
    ".type resilim_simmpi_switch,@function",
    "resilim_simmpi_switch:",
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size resilim_simmpi_switch, . - resilim_simmpi_switch",
    ".global resilim_simmpi_trampoline",
    ".hidden resilim_simmpi_trampoline",
    ".type resilim_simmpi_trampoline,@function",
    "resilim_simmpi_trampoline:",
    "    .cfi_startproc",
    "    .cfi_undefined rip",
    "    mov rdi, rbx",
    "    call r12",
    "    ud2",
    "    .cfi_endproc",
    ".size resilim_simmpi_trampoline, . - resilim_simmpi_trampoline",
);

/// One guard-paged coroutine stack. Reusable: a finished coroutine hands
/// its stack back ([`Coroutine::into_stack`]) for the next one.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` is exclusively owned memory with no thread affinity;
// nothing points into it while no coroutine is built on it.
unsafe impl Send for Stack {}

impl Stack {
    fn layout() -> Layout {
        Layout::from_size_align(STACK_BYTES, PAGE_BYTES).expect("constant, valid layout")
    }

    /// Allocate a stack and protect its guard region.
    pub(crate) fn new() -> Stack {
        // SAFETY: the layout has non-zero size.
        let base = unsafe { alloc::alloc(Stack::layout()) };
        let Some(base) = NonNull::new(base) else {
            alloc::handle_alloc_error(Stack::layout());
        };
        // SAFETY: `base` is page-aligned and the allocation spans
        // `GUARD_BYTES`, so the range is whole pages this stack owns.
        let rc = unsafe { mprotect(base.as_ptr(), GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect(PROT_NONE) on a coroutine stack guard");
        Stack { base }
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the allocation.
        unsafe { self.base.as_ptr().add(STACK_BYTES) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: same range as in `new`; the allocator must get the
        // pages back writable. Then free with the layout they came from.
        unsafe {
            let rc = mprotect(self.base.as_ptr(), GUARD_BYTES, PROT_READ_WRITE);
            // Never hand the allocator pages it cannot write: leak instead.
            if rc == 0 {
                alloc::dealloc(self.base.as_ptr(), Stack::layout());
            }
        }
    }
}

/// The two saved stack pointers of one `resume`: where the resumer
/// waits, and where the coroutine will wait when it switches back.
struct Link {
    resumer_sp: *mut u8,
    coroutine_sp: *mut u8,
    finished: bool,
}

thread_local! {
    /// The link of the innermost coroutine running on this thread
    /// (null outside any coroutine).
    static CURRENT: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
}

/// A body running on its own stack, resumed and suspended cooperatively.
pub(crate) struct Coroutine<'a> {
    /// `None` once released (handed back, or leaked with live frames).
    stack: Option<Stack>,
    /// Saved stack pointer while not running.
    sp: *mut u8,
    /// The body's slot on the stack.
    body: *mut u8,
    /// How to drop the body in its slot, until the first resume hands it
    /// over to the entry function.
    drop_unstarted: Option<unsafe fn(*mut u8)>,
    finished: bool,
    /// Holds the body's borrows; the raw pointers above make the type
    /// `!Send` and `!Sync`.
    _body: PhantomData<&'a ()>,
}

/// Drop the `F` that [`Coroutine::new`] wrote into `slot`.
///
/// # Safety
/// `slot` holds a valid, not yet moved-out `F`.
unsafe fn drop_slot<F>(slot: *mut u8) {
    // SAFETY: the caller's contract.
    unsafe { ptr::drop_in_place(slot.cast::<F>()) }
}

impl<'a> Coroutine<'a> {
    /// A coroutine that will run `body` on `stack` when first resumed.
    pub(crate) fn new<F: FnOnce() + 'a>(stack: Stack, body: F) -> Coroutine<'a> {
        assert!(
            align_of::<F>() <= 16 && size_of::<F>() <= PAGE_BYTES,
            "coroutine body must fit its stack slot"
        );
        let entry: unsafe extern "C" fn(*mut F) -> ! = entry::<F>;
        let trampoline: unsafe extern "C" fn() = resilim_simmpi_trampoline;
        // SAFETY: every write lands in the top `PAGE_BYTES + 56` bytes of
        // the stack, far above the guard. `top` is 16-aligned, so the
        // body slot is aligned for `F`.
        let (slot, sp) = unsafe {
            let slot = stack.top().sub(size_of::<F>().next_multiple_of(16));
            slot.cast::<F>().write(body);
            // The frame `resilim_simmpi_switch` pops on first entry. The
            // trampoline then starts with rsp = `slot`: 16-aligned, as a
            // call site must be, and below the body it must not clobber.
            let frame = slot.cast::<usize>().sub(7);
            frame.add(0).write(0); // r15
            frame.add(1).write(0); // r14
            frame.add(2).write(0); // r13
            frame.add(3).write(entry as usize); // r12
            frame.add(4).write(slot as usize); // rbx
            frame.add(5).write(0); // rbp: ends any frame-pointer chain
            frame.add(6).write(trampoline as usize); // return address
            (slot, frame.cast::<u8>())
        };
        Coroutine {
            stack: Some(stack),
            sp,
            body: slot,
            drop_unstarted: Some(drop_slot::<F>),
            finished: false,
            _body: PhantomData,
        }
    }

    /// Run the body until it suspends or returns. Returns whether it has
    /// finished. Panics if it already had.
    pub(crate) fn resume(&mut self) -> bool {
        assert!(!self.finished, "resumed a finished coroutine");
        // From here on the body is the entry function's to drop.
        self.drop_unstarted = None;
        let mut link = Link {
            resumer_sp: ptr::null_mut(),
            coroutine_sp: self.sp,
            finished: false,
        };
        let link: *mut Link = &mut link;
        let outer = CURRENT.replace(link);
        // SAFETY: `self.sp` is either the entry frame built by `new` or
        // the pointer the coroutine saved when it last suspended; both
        // are valid `resilim_simmpi_switch` frames on `self.stack`, which
        // outlives the call. `*link` outlives the switch too: the
        // coroutine uses it only until it switches back here.
        unsafe {
            resilim_simmpi_switch(&raw mut (*link).resumer_sp, (*link).coroutine_sp);
            self.sp = (*link).coroutine_sp;
            self.finished = (*link).finished;
        }
        CURRENT.set(outer);
        self.finished
    }

    /// The stack of a coroutine that ran to completion or never started,
    /// for reuse; `None` for an unfinished one (see [`Drop`]).
    pub(crate) fn into_stack(mut self) -> Option<Stack> {
        self.release()
    }

    fn release(&mut self) -> Option<Stack> {
        if let Some(drop_body) = self.drop_unstarted.take() {
            // SAFETY: never resumed, so the body is still in its slot.
            unsafe { drop_body(self.body) };
        } else if !self.finished {
            // Suspended frames still live on the stack. They may have
            // lent their addresses out (a `thread::scope`, say), so the
            // memory must stay valid forever: leak it, as `mem::forget`
            // would leak the frames of an ordinary call.
            std::mem::forget(self.stack.take());
        }
        self.stack.take()
    }
}

impl Drop for Coroutine<'_> {
    fn drop(&mut self) {
        drop(self.release());
    }
}

/// Switch from the running coroutine back to whoever resumed it; returns
/// when it is resumed again. Panics outside a coroutine.
pub(crate) fn suspend() {
    let link = CURRENT.get();
    assert!(!link.is_null(), "suspend() outside a coroutine");
    // SAFETY: a non-null `CURRENT` is the link of the `resume` call this
    // code runs under, alive until we switch back to it, and its
    // `resumer_sp` was saved by that very call.
    unsafe { resilim_simmpi_switch(&raw mut (*link).coroutine_sp, (*link).resumer_sp) };
}

/// First frame of every coroutine.
///
/// # Safety
/// Called once, by the trampoline, with the slot `Coroutine::new` wrote
/// the body into.
unsafe extern "C" fn entry<F: FnOnce()>(slot: *mut F) -> ! {
    {
        // This frame never returns, so it must own nothing at its final
        // switch: the body is moved out, run and dropped in this scope.
        // SAFETY: see the function contract; `resume` has disowned the slot.
        let body = unsafe { ptr::read(slot) };
        body();
    }
    let link = CURRENT.get();
    // SAFETY: as in `suspend`; the resumer never switches back to a
    // finished coroutine (`resume` asserts), so this call never returns.
    unsafe {
        (*link).finished = true;
        resilim_simmpi_switch(&raw mut (*link).coroutine_sp, (*link).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn runs_suspends_and_finishes_in_resume_order() {
        let log = RefCell::new(Vec::new());
        let body = |name: [&'static str; 2]| {
            let log = &log;
            move || {
                log.borrow_mut().push(name[0]);
                suspend();
                log.borrow_mut().push(name[1]);
            }
        };
        let mut a = Coroutine::new(Stack::new(), body(["a1", "a2"]));
        let mut b = Coroutine::new(Stack::new(), body(["b1", "b2"]));
        assert!(!a.resume());
        assert!(!b.resume());
        assert!(a.resume());
        assert!(b.resume());
        assert_eq!(*log.borrow(), ["a1", "b1", "a2", "b2"]);
        assert!(a.into_stack().is_some());
    }

    #[test]
    fn stacks_are_reusable_and_locals_survive_a_switch() {
        let mut stack = Stack::new();
        for round in 0..3u64 {
            let mut out = 0;
            let mut co = Coroutine::new(stack, || {
                let mine = [round; 64];
                suspend();
                out = mine.iter().sum();
            });
            assert!(!co.resume());
            assert!(co.resume());
            stack = co.into_stack().expect("finished");
            assert_eq!(out, 64 * round);
        }
    }

    #[test]
    fn a_panic_is_caught_on_the_coroutine_stack() {
        crate::world::install_quiet_hook();
        let mut caught = None;
        let mut co = Coroutine::new(Stack::new(), || {
            let quiet = crate::world::QUIET_PANICS.replace(true);
            caught = std::panic::catch_unwind(|| panic!("on a foreign stack")).err();
            crate::world::QUIET_PANICS.set(quiet);
        });
        assert!(co.resume());
        drop(co);
        let msg = caught.expect("panic payload");
        assert_eq!(*msg.downcast_ref::<&str>().unwrap(), "on a foreign stack");
    }

    #[test]
    fn a_backtrace_ends_at_the_trampoline() {
        // Walks every frame up to the outermost one; an unterminated
        // coroutine stack would send the unwinder into garbage.
        let mut frames = String::new();
        let mut co = Coroutine::new(Stack::new(), || {
            frames = std::backtrace::Backtrace::force_capture().to_string();
        });
        assert!(co.resume());
        drop(co);
        assert!(frames.contains("resilim_simmpi_trampoline"), "{frames}");
    }

    #[test]
    fn coroutines_nest() {
        let order = RefCell::new(Vec::new());
        let mut outer = Coroutine::new(Stack::new(), || {
            let mut inner = Coroutine::new(Stack::new(), || {
                order.borrow_mut().push("inner-1");
                suspend(); // to `outer`, not to the test
                order.borrow_mut().push("inner-2");
            });
            assert!(!inner.resume());
            order.borrow_mut().push("outer");
            suspend(); // to the test
            assert!(inner.resume());
        });
        assert!(!outer.resume());
        assert_eq!(*order.borrow(), ["inner-1", "outer"]);
        assert!(outer.resume());
        assert_eq!(*order.borrow(), ["inner-1", "outer", "inner-2"]);
    }

    #[test]
    fn an_unstarted_body_is_dropped_and_an_unfinished_one_leaked() {
        let token = Rc::new(());
        let held = token.clone();
        let co = Coroutine::new(Stack::new(), move || drop(held));
        assert!(co.into_stack().is_some());
        assert_eq!(Rc::strong_count(&token), 1, "unstarted body dropped");

        let held = token.clone();
        let mut co = Coroutine::new(Stack::new(), move || {
            let _held = held;
            suspend();
        });
        assert!(!co.resume());
        assert!(co.into_stack().is_none(), "frames still live on the stack");
        assert_eq!(Rc::strong_count(&token), 2, "suspended frame leaked");
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}
