//! `SimCell` — shared mutable state for serialized actors.
//!
//! The engine guarantees that at most one actor executes at any instant, so
//! data shared between actors never sees concurrent access. `SimCell` makes
//! that guarantee usable from safe code: it is `Sync` and hands out scoped
//! references, with a runtime borrow flag (à la `RefCell`, but atomic so the
//! type stays `Sync`) catching accidental re-entrancy.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// An interior-mutability cell safe under the engine's one-actor-at-a-time
/// execution. Borrow violations (nested conflicting access from the same
/// actor) panic rather than alias.
pub struct SimCell<T: ?Sized> {
    /// >0: that many shared borrows; -1: one exclusive borrow; 0: free.
    borrows: AtomicIsize,
    inner: UnsafeCell<T>,
}

// SAFETY: the simulation engine serializes all actor execution, so accesses
// are never truly concurrent; the borrow counter enforces aliasing rules for
// re-entrant access within the running actor.
unsafe impl<T: ?Sized + Send> Sync for SimCell<T> {}
unsafe impl<T: ?Sized + Send> Send for SimCell<T> {}

impl<T> SimCell<T> {
    pub fn new(value: T) -> Self {
        SimCell {
            borrows: AtomicIsize::new(0),
            inner: UnsafeCell::new(value),
        }
    }

    /// Consume the cell, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> SimCell<T> {
    /// Shared access.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let prev = self.borrows.fetch_add(1, Ordering::Relaxed);
        assert!(prev >= 0, "SimCell: shared borrow while exclusively borrowed");
        // SAFETY: engine serialization + borrow counter (checked above).
        let r = f(unsafe { &*self.inner.get() });
        self.borrows.fetch_sub(1, Ordering::Relaxed);
        r
    }

    /// Exclusive access.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let prev = self
            .borrows
            .compare_exchange(0, -1, Ordering::Relaxed, Ordering::Relaxed);
        assert!(
            prev.is_ok(),
            "SimCell: exclusive borrow while already borrowed"
        );
        // SAFETY: engine serialization + borrow counter (checked above).
        let r = f(unsafe { &mut *self.inner.get() });
        self.borrows.store(0, Ordering::Relaxed);
        r
    }
}

impl<T: Copy> SimCell<T> {
    /// Copy the current value out.
    pub fn get(&self) -> T {
        self.with(|v| *v)
    }

    /// Replace the value.
    pub fn set(&self, value: T) {
        self.with_mut(|v| *v = value);
    }
}

impl<T: Default> Default for SimCell<T> {
    fn default() -> Self {
        SimCell::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SimCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with(|v| f.debug_tuple("SimCell").field(v).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_get_set() {
        let c = SimCell::new(41);
        assert_eq!(c.get(), 41);
        c.set(42);
        assert_eq!(c.get(), 42);
        assert_eq!(c.into_inner(), 42);
    }

    #[test]
    fn nested_shared_borrows_allowed() {
        let c = SimCell::new(vec![1, 2, 3]);
        c.with(|a| {
            c.with(|b| {
                assert_eq!(a.len(), b.len());
            });
        });
    }

    #[test]
    #[should_panic(expected = "exclusive borrow while already borrowed")]
    fn nested_mut_borrow_panics() {
        let c = SimCell::new(0);
        c.with(|_| {
            c.with_mut(|v| *v = 1);
        });
    }

    #[test]
    #[should_panic(expected = "shared borrow while exclusively borrowed")]
    fn shared_during_mut_panics() {
        let c = SimCell::new(0);
        c.with_mut(|_| {
            c.with(|_| {});
        });
    }

    #[test]
    fn usable_across_actors() {
        use crate::{time, Simulation};
        let cell = Arc::new(SimCell::new(0u64));
        let mut sim = Simulation::new();
        for id in 0..4u64 {
            let cell = Arc::clone(&cell);
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::us(id));
                cell.with_mut(|v| *v += id + 1);
            });
        }
        sim.run();
        assert_eq!(cell.get(), 1 + 2 + 3 + 4);
    }
}
