//! [`StackArena`]: where a [`Simulation`](crate::Simulation)'s coroutine
//! stacks come from. Each simulation maps its own slabs, hands their slots
//! out as stacks, takes retired stacks back for reuse, and unmaps every slab
//! when it drops.
//!
//! Stacks stay off the global allocator. An 8 MiB stack is above glibc's
//! initial mmap threshold, so malloc maps it alone; freeing it raises the
//! dynamic threshold to about 8 MiB and the trim threshold to about 16 MiB.
//! From then on every allocation under 8 MiB lands in a heap that is rarely
//! trimmed, and a process that runs simulations back to back keeps the
//! high-water mark of all of them. Slabs never reach malloc.
//!
//! * **Slabs.** A slab is one anonymous `MAP_NORESERVE` mapping of
//!   same-size slots: it reserves address space, and the kernel commits a
//!   page on its first touch. A size class's first slab has
//!   [`FIRST_SLAB_SLOTS`] slots; each later one as many as the class holds
//!   already, up to [`MAX_SLAB_BYTES`]. A million live 16 KiB stacks take
//!   33 slabs, against a `vm.max_map_count` of 65 530.
//! * **Layout.** A slot is the smallest odd number of pages that holds the
//!   request, and slots lie end to end from half a page into the slab. With
//!   an odd stride, any 2^k consecutive slot tops fall on pages distinct
//!   modulo 2^k, so a thousand actors taking turns do not crowd one TLB set
//!   as power-of-two strides can. The half-page offset puts one slot's top and
//!   the next slot's canary on the same page, so a shallow live stack
//!   commits about one page, not two.
//! * **Free lists.** Each size class hands out its most recently retired
//!   slot first, whose pages are likely still cached.
//!
//! Slots are not guard-paged: one `mprotect`ed page per stack would cost a
//! mapping per stack. Overflow is caught by the canary (`coro.rs`).
//!
//! This module holds `hupc-sim`'s mapping calls. It is used only where
//! [`SWITCH_SUPPORTED`](crate::coro::SWITCH_SUPPORTED) holds; OS-thread
//! actors get their stacks from the thread library.

use std::ptr::NonNull;

use crate::coro::{Stack, MIN_STACK};

/// The layout unit. Larger kernel pages (aarch64 may use 16 or 64 KiB) only
/// round the slab length up; slot offsets need no page alignment.
const PAGE: usize = 4096;
/// Slots in a size class's first slab.
const FIRST_SLAB_SLOTS: usize = 4;
/// Largest slab, bytes, unless one slot is larger still.
const MAX_SLAB_BYTES: usize = 1 << 30;

/// Usable bytes of the slot that serves a request for `size` bytes: at
/// least [`MIN_STACK`], rounded up to an odd number of pages.
fn slot_size(size: usize) -> usize {
    (size.max(MIN_STACK).div_ceil(PAGE) | 1)
        .checked_mul(PAGE)
        .filter(|&b| b <= isize::MAX as usize)
        .expect("actor stack size exceeds the address space")
}

/// One mapping: `bytes` long, slots from `PAGE / 2` onwards.
struct Slab {
    ptr: NonNull<u8>,
    bytes: usize,
}

/// The slabs and free slots of one slot size.
struct SizeClass {
    size: usize,
    slabs: Vec<Slab>,
    /// Slots of the newest slab handed out at least once.
    carved: usize,
    /// Bases of retired slots, the most recent last.
    free: Vec<NonNull<u8>>,
}

impl SizeClass {
    fn slots_in(&self, slab: &Slab) -> usize {
        (slab.bytes - PAGE) / self.size
    }

    /// A never-used slot, mapping a new slab when the newest one is full.
    fn carve(&mut self) -> NonNull<u8> {
        if self
            .slabs
            .last()
            .is_none_or(|s| self.carved == self.slots_in(s))
        {
            let held: usize = self.slabs.iter().map(|s| self.slots_in(s)).sum();
            let slots = held
                .max(FIRST_SLAB_SLOTS)
                .min((MAX_SLAB_BYTES / self.size).max(1));
            let bytes = slots * self.size + PAGE;
            self.slabs.push(Slab {
                ptr: sys::map(bytes),
                bytes,
            });
            self.carved = 0;
        }
        let slab = self.slabs.last().expect("a slab was just mapped");
        let base = slab
            .ptr
            .as_ptr()
            .wrapping_add(PAGE / 2 + self.carved * self.size);
        self.carved += 1;
        NonNull::new(base).expect("a slot of a mapped slab is not null")
    }

    /// Whether `base` is the start of a slot of one of this class's slabs.
    /// Newest first: the largest slabs hold most slots.
    fn owns(&self, base: NonNull<u8>) -> bool {
        let b = base.as_ptr() as usize;
        self.slabs.iter().rev().any(|s| {
            let first = s.ptr.as_ptr() as usize + PAGE / 2;
            (first..first + self.slots_in(s) * self.size).contains(&b)
                && (b - first).is_multiple_of(self.size)
        })
    }
}

/// One simulation's coroutine stacks.
pub(crate) struct StackArena {
    /// One entry per slot size in use; a run has one or a few.
    classes: Vec<SizeClass>,
}

// SAFETY: the arena uniquely owns its slabs, and each slot is reachable
// from at most one place at a time: its class's free list or the one
// `Stack` it was handed out as. Moving the arena moves that ownership.
unsafe impl Send for StackArena {}

impl StackArena {
    pub(crate) fn new() -> Self {
        StackArena {
            classes: Vec::new(),
        }
    }

    /// A stack of at least `size` usable bytes (see [`slot_size`]): the
    /// most recently retired slot of its size, or a fresh one.
    pub(crate) fn take(&mut self, size: usize) -> Stack {
        let size = slot_size(size);
        let i = match self.classes.iter().position(|c| c.size == size) {
            Some(i) => i,
            None => {
                self.classes.push(SizeClass {
                    size,
                    slabs: Vec::new(),
                    carved: 0,
                    free: Vec::new(),
                });
                self.classes.len() - 1
            }
        };
        let class = &mut self.classes[i];
        let base = class.free.pop().unwrap_or_else(|| class.carve());
        // SAFETY: `base..base + size` is a slot of a slab this arena keeps
        // mapped until it drops, and no other `Stack` holds it: it came
        // fresh from `carve` or off the free list, which `give` fills only
        // with stacks of this arena handed back by value.
        unsafe { Stack::from_slot(base, size) }
    }

    /// Retire `stack` for reuse by the next [`StackArena::take`] of its
    /// size. Panics if the stack came from another arena: handing its slot
    /// out again would outlive that arena's slabs.
    pub(crate) fn give(&mut self, stack: Stack) {
        let base = stack.base();
        let class = self
            .classes
            .iter_mut()
            .find(|c| c.size == stack.size() && c.owns(base))
            .expect("a stack goes back to the arena it came from");
        class.free.push(base);
    }
}

impl Drop for StackArena {
    fn drop(&mut self) {
        for c in &self.classes {
            for s in &c.slabs {
                // SAFETY: the slab was mapped by `carve` and is released
                // once, now. The simulation tears its actors down before its
                // arena drops, so no coroutine runs on these pages again.
                unsafe { sys::unmap(s.ptr, s.bytes) };
            }
        }
    }
}

/// The two mapping calls, each taking and returning a slab's own pointer
/// and byte length.
#[cfg(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A fresh private anonymous mapping of `bytes` zero bytes, with no
    /// swap reserved for it.
    pub(super) fn map(bytes: usize) -> NonNull<u8> {
        // SAFETY: asks the kernel for new pages at an address of its
        // choosing; no existing memory is touched.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if p == MAP_FAILED {
            panic!(
                "failed to map a {bytes}-byte actor stack slab: {}",
                std::io::Error::last_os_error()
            );
        }
        NonNull::new(p as *mut u8).expect("mmap returned null")
    }

    /// Release the mapping `(p, bytes)`. Called from `Drop`, so it must not
    /// panic; unmapping a range the caller owns does not fail.
    ///
    /// # Safety
    /// `(p, bytes)` must be a slab from [`map`] that the caller owns, and
    /// nothing may use its pages afterwards.
    pub(super) unsafe fn unmap(p: NonNull<u8>, bytes: usize) {
        // SAFETY: the caller's contract.
        unsafe { munmap(p.as_ptr() as *mut c_void, bytes) };
    }
}

/// Stubs so the module builds where actors are OS threads; no stack is
/// taken there (see `SWITCH_SUPPORTED`), so these are unreachable.
#[cfg(not(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::ptr::NonNull;

    pub(super) fn map(_bytes: usize) -> NonNull<u8> {
        unreachable!("actor stack slabs on a target without the coroutine backend")
    }
    pub(super) unsafe fn unmap(_p: NonNull<u8>, _bytes: usize) {
        unreachable!("actor stack slabs on a target without the coroutine backend")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::SWITCH_SUPPORTED;

    /// Consecutive slot tops fall on pages distinct modulo 64, for sizes
    /// whose page count is even (16 KiB, 64 KiB, 8 MiB) and odd (20 KiB).
    /// A power-of-two stride puts every top on one page modulo 64, and a
    /// one-page gap after a 20 KiB slot repeats them every 32 slots.
    #[test]
    fn consecutive_slot_tops_spread_over_pages_mod_64() {
        if !SWITCH_SUPPORTED {
            return;
        }
        for size in [16 << 10, 20 << 10, 64 << 10, 8 << 20] {
            let mut arena = StackArena::new();
            // Fill whole slabs, then read the tops of the largest one.
            let stacks: Vec<Stack> = (0..FIRST_SLAB_SLOTS * 32)
                .map(|_| arena.take(size))
                .collect();
            let class = &arena.classes[0];
            let slab = class.slabs.last().expect("slabs were mapped");
            let first = slab.ptr.as_ptr() as usize;
            let mut tops: Vec<usize> = stacks
                .iter()
                .map(|s| s.base().as_ptr() as usize + s.size())
                .filter(|&t| (first..first + slab.bytes).contains(&t))
                .collect();
            assert!(
                tops.len() >= 64,
                "{size}: the newest slab holds {} slots",
                tops.len()
            );
            tops.truncate(64);
            let mut pages: Vec<usize> = tops.iter().map(|t| t / PAGE % 64).collect();
            pages.sort_unstable();
            pages.dedup();
            assert_eq!(
                pages.len(),
                64,
                "{size}-byte slots: tops share pages modulo 64"
            );
            for s in stacks {
                arena.give(s);
            }
        }
    }

    #[test]
    fn a_retired_slot_is_the_next_one_handed_out() {
        if !SWITCH_SUPPORTED {
            return;
        }
        let mut arena = StackArena::new();
        let a = arena.take(64 << 10);
        let b = arena.take(64 << 10);
        let other = arena.take(16 << 10);
        let (a_base, b_base) = (a.base(), b.base());
        arena.give(a);
        arena.give(other);
        arena.give(b);
        assert_eq!(
            arena.take(64 << 10).base(),
            b_base,
            "the last retired slot comes first"
        );
        assert_eq!(arena.take(64 << 10).base(), a_base);
        let fresh = arena.take(64 << 10);
        assert!(fresh.base() != a_base && fresh.base() != b_base);
    }

    #[cfg(all(
        not(miri),
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    #[should_panic(expected = "a stack goes back to the arena it came from")]
    fn a_stack_from_another_arena_is_refused() {
        let mut mine = StackArena::new();
        let mut other = StackArena::new();
        let _ = mine.take(64 << 10);
        mine.give(other.take(64 << 10));
    }

    #[test]
    fn requests_round_up_to_an_odd_number_of_pages() {
        assert_eq!(slot_size(1), 5 * PAGE);
        assert_eq!(slot_size(16 << 10), 5 * PAGE);
        assert_eq!(slot_size(20 << 10), 5 * PAGE);
        assert_eq!(slot_size((20 << 10) + 1), 7 * PAGE);
        assert_eq!(slot_size(8 << 20), (8 << 20) + PAGE);
    }
}
