//! `KernelCell` — the kernel is owned, not locked: one host thread runs the
//! simulation at a time.
//!
//! A run has exactly one party touching the kernel at any instant: the
//! scheduler between actors, or the one actor it resumed. Taking a mutex
//! there buys nothing and costs a locked instruction pair per simcall, so
//! [`KernelCell::lock`] is a plain load and store of the `held` flag. Finding
//! it already set means the caller is *inside* another guard — a nested
//! kernel access — and panics instead of aliasing (the std mutex this
//! replaced hung there).

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::kernel::Kernel;

pub(crate) struct KernelCell {
    kernel: UnsafeCell<Kernel>,
    /// A guard is alive. Relaxed plain loads and stores: the control
    /// transfers below order them.
    held: AtomicBool,
}

// SAFETY: `held` is `Sync` by itself; the claim is about `kernel`. A
// `&mut Kernel` is only ever produced through a `KernelGuard`, and at most one
// guard is alive at a time. (`Kernel: Send` is what moving it between threads
// needs, and what the auto `Send` impl of this type already requires.)
//
// The parties that can reach `lock()` are the thread driving `Simulation`
// (`Simulation` is `!Sync` and runs under `&mut self`) and the actors it
// resumes (`Ctx` is `!Sync` and never leaves its actor). Exactly one of them
// executes at a time and each handover is a happens-before edge. Where the
// target has the assembly context switch (`coro::SWITCH_SUPPORTED`),
// scheduler and actors are the same OS thread. Elsewhere, and under Miri,
// each actor has an OS thread of its own: the scheduler parks in
// `Handoff::wait` while the actor runs, and the token is passed with
// Release / Acquire. A guard never
// crosses a handover (it is `!Send`, and every simcall drops its guard before
// it parks). What remains is same-party re-entry (a simcall from inside
// `with_kernel`), which `held` turns into a panic.
unsafe impl Sync for KernelCell {}

impl KernelCell {
    pub fn new(kernel: Kernel) -> Self {
        KernelCell {
            kernel: UnsafeCell::new(kernel),
            held: AtomicBool::new(false),
        }
    }

    /// Exclusive access to the kernel until the guard drops.
    #[inline]
    pub fn lock(&self) -> KernelGuard<'_> {
        if self.held.load(Ordering::Relaxed) {
            nested_access();
        }
        self.held.store(true, Ordering::Relaxed);
        KernelGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }
}

#[cold]
#[inline(never)]
fn nested_access() -> ! {
    panic!(
        "nested kernel access: a simcall or `kernel()` was reached while this \
         party already holds the kernel (e.g. from inside a `with_kernel` closure)"
    );
}

/// Exclusive access to the [`Kernel`], released on drop (also on unwind).
pub struct KernelGuard<'a> {
    cell: &'a KernelCell,
    /// Keeps the guard on the thread that took it (see `unsafe impl Sync`).
    _not_send: PhantomData<*const ()>,
}

impl Deref for KernelGuard<'_> {
    type Target = Kernel;
    #[inline]
    fn deref(&self) -> &Kernel {
        // SAFETY: this is the only live guard (see `unsafe impl Sync`).
        unsafe { &*self.cell.kernel.get() }
    }
}

impl DerefMut for KernelGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Kernel {
        // SAFETY: this is the only live guard (see `unsafe impl Sync`).
        unsafe { &mut *self.cell.kernel.get() }
    }
}

impl Drop for KernelGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.cell.held.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_guards_follow_one_another() {
        let cell = KernelCell::new(Kernel::new());
        let r = cell.lock().new_resource("r");
        assert_eq!(cell.lock().resource_name(r), "r");
    }

    #[test]
    #[should_panic(expected = "nested kernel access")]
    fn nested_owned_access_panics() {
        let cell = KernelCell::new(Kernel::new());
        let _outer = cell.lock();
        let _inner = cell.lock();
    }

    #[test]
    fn guard_dropped_by_unwind_releases_the_cell() {
        let cell = KernelCell::new(Kernel::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = cell.lock();
            panic!("under the guard");
        }));
        assert!(r.is_err());
        let _again = cell.lock();
    }
}
