//! [`ZeroWords`]: an owned, growable buffer of `u64` words that read zero
//! until written, and that cost resident memory only where they are touched.
//!
//! Where [`MAPPED`] holds (Linux x86_64, not under Miri), a non-empty buffer
//! is an anonymous private mapping: creating it reserves address space, the
//! kernel commits a zeroed page on the first touch of each page, and growth
//! is `mremap`, which extends the mapping or moves its page tables without
//! touching a page. Everywhere else the buffer comes from
//! `std::alloc::alloc_zeroed`, and growth reallocates and zero-fills the
//! tail.
//!
//! This type holds all of `hupc-gasnet`'s `unsafe` code.

use std::alloc::{self, Layout};
use std::ptr::NonNull;

/// Whether non-empty buffers are anonymous mappings on this target. A
/// platform fact, like the actor backend: no setting moves it. Only x86_64
/// Linux, whose page size is always 4 KiB: on a kernel with larger pages a
/// small segment would commit more than its `Vec` did.
const MAPPED: bool = cfg!(all(not(miri), target_os = "linux", target_arch = "x86_64"));

fn layout(words: usize) -> Layout {
    Layout::array::<u64>(words).expect("segment size overflows the address space")
}

/// A new zeroed block of `len` words.
fn fresh(len: usize) -> NonNull<u64> {
    let l = layout(len);
    if len == 0 {
        NonNull::dangling()
    } else if MAPPED {
        sys::map(l.size())
    } else {
        // SAFETY: the layout has a non-zero size.
        NonNull::new(unsafe { alloc::alloc_zeroed(l) } as *mut u64)
            .unwrap_or_else(|| alloc::handle_alloc_error(l))
    }
}

/// A zero-initialised, growable, uniquely owned run of `u64` words.
pub(crate) struct ZeroWords {
    ptr: NonNull<u64>,
    len: usize,
}

// SAFETY: `ZeroWords` uniquely owns its allocation or mapping, exactly like a
// `Vec<u64>`; moving it to another thread moves that ownership.
unsafe impl Send for ZeroWords {}

impl ZeroWords {
    /// `len` zero words.
    pub(crate) fn new(len: usize) -> Self {
        ZeroWords {
            ptr: fresh(len),
            len,
        }
    }

    /// Length in words.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Grow to `len` words (no-op if already that long), keeping the current
    /// words and appending zeros. A mapped buffer grows without touching a
    /// page: the appended zeros are committed when first written.
    pub(crate) fn grow(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        let (old, new) = (layout(self.len), layout(len));
        self.ptr = if self.len == 0 {
            fresh(len)
        } else if MAPPED {
            // SAFETY: a non-empty buffer is a whole mapping it owns, and its
            // pointer is replaced with the result.
            unsafe { sys::remap(self.ptr, old.size(), new.size()) }
        } else {
            // SAFETY: the block was allocated with `old`; `new` has a non-zero
            // size and the same alignment. After a successful realloc the
            // first `self.len` words are the old contents and the tail
            // `self.len..len` is ours to zero.
            unsafe {
                let p = alloc::realloc(self.ptr.as_ptr() as *mut u8, old, new.size()) as *mut u64;
                let p = NonNull::new(p).unwrap_or_else(|| alloc::handle_alloc_error(new));
                p.as_ptr().add(self.len).write_bytes(0, len - self.len);
                p
            }
        };
        self.len = len;
    }
}

impl std::ops::Deref for ZeroWords {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        // SAFETY: `ptr` is valid for `len` initialised words (dangling and
        // aligned when `len` is 0), and `&self` forbids concurrent mutation.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for ZeroWords {
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `deref`, and `&mut self` makes the access exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for ZeroWords {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let l = layout(self.len);
        if MAPPED {
            // SAFETY: a non-empty buffer is a whole mapping it owns, and it
            // is dropped now.
            unsafe { sys::unmap(self.ptr, l.size()) };
        } else {
            // SAFETY: allocated (by `new` or `grow`) with this same layout.
            unsafe { alloc::dealloc(self.ptr.as_ptr() as *mut u8, l) };
        }
    }
}

/// The three mapping calls, each taking and returning the buffer's own
/// pointer and byte length.
#[cfg(all(not(miri), target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MREMAP_MAYMOVE: c_int = 0x1;
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
        fn mremap(
            old: *mut c_void,
            old_len: usize,
            new_len: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    fn check(p: *mut c_void, what: &str, bytes: usize) -> NonNull<u64> {
        if p == MAP_FAILED {
            panic!(
                "failed to {what} a {bytes}-byte segment: {}",
                std::io::Error::last_os_error()
            );
        }
        NonNull::new(p as *mut u64).expect("mmap returned null")
    }

    /// A fresh private anonymous mapping of `bytes` zero bytes.
    pub(super) fn map(bytes: usize) -> NonNull<u64> {
        // SAFETY: asks the kernel for new pages at an address of its
        // choosing; no existing memory is touched.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        check(p, "map", bytes)
    }

    /// Grow the mapping `(p, old)` to `new` bytes, in place or moved.
    ///
    /// # Safety
    /// `(p, old)` must be pages from [`map`] that the caller owns, and the
    /// caller must use only the returned pointer afterwards.
    pub(super) unsafe fn remap(p: NonNull<u64>, old: usize, new: usize) -> NonNull<u64> {
        // SAFETY: the caller's contract; on failure the old mapping is left
        // as it was.
        let q = unsafe { mremap(p.as_ptr() as *mut c_void, old, new, MREMAP_MAYMOVE) };
        check(q, "remap", new)
    }

    /// Release the mapping `(p, bytes)`. Called from `Drop`, so it must not
    /// panic; unmapping a range the caller owns does not fail.
    ///
    /// # Safety
    /// `(p, bytes)` must be pages from [`map`] that the caller owns, and
    /// nothing may use them afterwards.
    pub(super) unsafe fn unmap(p: NonNull<u64>, bytes: usize) {
        // SAFETY: the caller's contract.
        unsafe { munmap(p.as_ptr() as *mut c_void, bytes) };
    }
}

/// Stubs so the module typechecks where [`MAPPED`] is false; none of them
/// is reached there.
#[cfg(not(all(not(miri), target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::ptr::NonNull;

    pub(super) fn map(_bytes: usize) -> NonNull<u64> {
        unreachable!("segment mapping on a target without it")
    }
    pub(super) unsafe fn remap(_p: NonNull<u64>, _old: usize, _new: usize) -> NonNull<u64> {
        unreachable!("segment mapping on a target without it")
    }
    pub(super) unsafe fn unmap(_p: NonNull<u64>, _bytes: usize) {
        unreachable!("segment mapping on a target without it")
    }
}

/// The mapping path's own test; the allocator path and growth from empty
/// are tested through `Segment`.
#[cfg(all(test, not(miri), target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;

    const PAGE: usize = 4096;

    /// A mapping with another mapped page right behind it cannot extend in
    /// place and moves; its contents move with it.
    #[test]
    fn grow_that_moves_the_mapping_keeps_contents() {
        let words = PAGE / 8;
        // Map three pages and put the buffer in the first two: the third
        // page of the same mapping blocks growth in place.
        let region = sys::map(3 * PAGE);
        let blocker =
            NonNull::new((region.as_ptr() as *mut u8).wrapping_add(2 * PAGE) as *mut u64).unwrap();
        let mut w = ZeroWords {
            ptr: region,
            len: words * 2,
        };
        for (i, x) in w.iter_mut().enumerate() {
            *x = i as u64 + 1;
        }
        w.grow(words * 64);
        // SAFETY: the third page of the test's own mapping; the buffer no
        // longer covers it, and nothing uses it from here on.
        unsafe { sys::unmap(blocker, PAGE) };
        assert_ne!(
            w.as_ptr(),
            region.as_ptr() as *const u64,
            "a hemmed-in mapping grew in place"
        );
        assert_eq!(w.len(), words * 64);
        assert!(w[..words * 2]
            .iter()
            .enumerate()
            .all(|(i, &x)| x == i as u64 + 1));
        assert!(w[words * 2..].iter().all(|&x| x == 0));
    }
}
