//! `KernelCell` — the kernel is owned while one host thread runs the
//! simulation, and locked only while `parallel_run`'s workers are alive.
//!
//! A sequential run (the default, and every `SchedulePolicy` run) has exactly
//! one party touching the kernel at any instant: the scheduler between
//! actors, or the one actor it resumed. Taking a mutex there buys nothing and
//! costs a locked instruction pair per simcall. `KernelCell` therefore hands
//! out its [`KernelGuard`] two ways behind one `lock()`:
//!
//! * **owned** (no worker threads alive): a plain load and store of the
//!   `held` flag. Finding it already set means the caller is *inside* another
//!   guard — a nested kernel access — and panics instead of aliasing (the std
//!   mutex this replaces hung there).
//! * **shared** (between `parallel_run` spawning its workers and joining
//!   them): the gate mutex is taken first, exactly as the kernel mutex it
//!   replaces was.
//!
//! Which one applies is not configurable; it is the fact "are worker threads
//! alive", recorded by `parallel_run` itself.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::engine::relock;
use crate::kernel::Kernel;

pub(crate) struct KernelCell {
    kernel: UnsafeCell<Kernel>,
    /// Serialises guards while `shared` is set; untouched otherwise.
    gate: Mutex<()>,
    /// Worker threads of a `parallel_run` are alive. Relaxed: written only
    /// by the thread that spawns and joins those workers, and thread spawn /
    /// join (and, for actor threads, the handoff token) order it for readers.
    shared: AtomicBool,
    /// A guard is alive. Relaxed plain loads and stores: in owned mode the
    /// control transfers below order them, in shared mode the gate does.
    held: AtomicBool,
}

// SAFETY: `gate`, `shared` and `held` are `Sync` by themselves; the claim is
// about `kernel`. A `&mut Kernel` is only ever produced through a
// `KernelGuard`, and at most one guard is alive at a time. (`Kernel: Send` is
// what moving it between threads needs, and what the auto `Send` impl of this
// type already requires.)
//
// Shared mode: every guard holds `gate`, which is the exclusion and the
// happens-before edge the kernel mutex used to provide.
//
// Owned mode: the parties that can reach `lock()` are the thread driving
// `Simulation` (`Simulation` is `!Sync` and runs under `&mut self`) and the
// actors it resumes (`Ctx` is `!Sync` and never leaves its actor). Exactly
// one of them executes at a time and each handover is a happens-before edge:
// on the coroutine backend scheduler and actors are the same OS thread; on
// `ActorBackend::OsThread` the scheduler parks in `Handoff::wait` while the
// actor runs, and the token is passed with Release / Acquire. What remains is
// same-party re-entry (a simcall from inside `with_kernel`), which `held`
// turns into a panic.
//
// The mode flips only in `parallel_run`: set before the first worker is
// spawned and cleared after the last one is joined, both of which order the
// flag for every thread that can observe it, with no guard alive at either
// point (asserted).
unsafe impl Sync for KernelCell {}

impl KernelCell {
    pub fn new(kernel: Kernel) -> Self {
        KernelCell {
            kernel: UnsafeCell::new(kernel),
            gate: Mutex::new(()),
            shared: AtomicBool::new(false),
            held: AtomicBool::new(false),
        }
    }

    /// Exclusive access to the kernel until the guard drops. Like every
    /// engine lock it ignores poisoning (see `engine::relock`).
    #[inline]
    pub fn lock(&self) -> KernelGuard<'_> {
        let gate = if self.shared.load(Ordering::Relaxed) {
            Some(self.lock_gate())
        } else {
            None
        };
        if self.held.load(Ordering::Relaxed) {
            nested_access();
        }
        self.held.store(true, Ordering::Relaxed);
        KernelGuard { cell: self, gate }
    }

    /// Out of line and cold, so the owned path is the straight-line one.
    #[cold]
    fn lock_gate(&self) -> MutexGuard<'_, ()> {
        relock(&self.gate)
    }

    /// Record whether `parallel_run`'s worker threads are alive. A panic
    /// between the two calls leaves the cell shared, which is merely slower.
    pub fn set_shared(&self, on: bool) {
        assert!(
            !self.held.load(Ordering::Relaxed),
            "kernel mode flipped while a guard is alive"
        );
        self.shared.store(on, Ordering::Relaxed);
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
    /// Held while worker threads are alive; also keeps the guard `!Send`.
    gate: Option<MutexGuard<'a, ()>>,
}

impl KernelGuard<'_> {
    /// Release the kernel, wait on `cv` (at most `dur`), and take the kernel
    /// back: a parallel worker's park. Only meaningful in shared mode — with
    /// no worker threads alive nobody could notify.
    pub(crate) fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> Self {
        let gate = self
            .gate
            .take()
            .expect("kernel wait outside a parallel run");
        self.cell.held.store(false, Ordering::Relaxed);
        let (gate, _) = cv
            .wait_timeout(gate, dur)
            .unwrap_or_else(PoisonError::into_inner);
        self.cell.held.store(true, Ordering::Relaxed);
        self.gate = Some(gate);
        self
    }
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
        // Before the gate (a field, dropped after this body) is released.
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

    #[test]
    #[should_panic(expected = "mode flipped while a guard is alive")]
    fn mode_cannot_flip_under_a_guard() {
        let cell = KernelCell::new(Kernel::new());
        let _g = cell.lock();
        cell.set_shared(true);
    }

    #[test]
    fn shared_mode_excludes_threads_and_reverts() {
        let cell = KernelCell::new(Kernel::new());
        cell.set_shared(true);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        cell.lock().new_cond();
                    }
                });
            }
        });
        cell.set_shared(false);
        // 400 conds were created one at a time: the next id says so.
        assert_eq!(cell.lock().new_cond(), crate::kernel::CondId(400));
    }

    #[test]
    fn wait_timeout_releases_the_kernel_while_parked() {
        let cell = KernelCell::new(Kernel::new());
        let cv = Condvar::new();
        cell.set_shared(true);
        std::thread::scope(|s| {
            let mut g = cell.lock();
            s.spawn(|| {
                // Blocks on the gate until the waiter below parks.
                cell.lock().set_lookahead(7);
                cv.notify_all();
            });
            // The peer can only get in while this guard is parked.
            while g.lookahead() != 7 {
                g = g.wait_timeout(&cv, Duration::from_millis(50));
            }
        });
        cell.set_shared(false);
    }
}
