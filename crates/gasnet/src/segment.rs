//! Registered segments: per-UPC-thread shared-memory regions holding real
//! data, in 8-byte words.
//!
//! A segment is reserved address space, committed on touch, as GASNet's
//! segments are. Its words live in a [`ZeroWords`] buffer, which on Linux
//! x86_64 outside Miri is an anonymous mapping, so a job pays resident
//! memory for the pages its threads write, not for the segment size it
//! configured. [`Segment::ensure`] grows a segment with `mremap`: the
//! mapping is extended or its page tables are moved, and no page is zeroed
//! or copied until someone writes it. Elsewhere the words come from the
//! allocator, zero-filled, and growth reallocates and zero-fills the tail.

mod words;

use hupc_sim::SimCell;
use words::ZeroWords;

/// Bytes per segment word.
pub const WORD_BYTES: usize = 8;

/// One thread's registered shared segment. Grows on demand (the model's
/// analogue of the runtime-reserved GASNet segment); see the module docs for
/// what growth and untouched words cost.
pub struct Segment {
    data: SimCell<ZeroWords>,
}

impl Segment {
    /// Create a segment with an initial size in words.
    pub fn new(words: usize) -> Self {
        Segment {
            data: SimCell::new(ZeroWords::new(words)),
        }
    }

    /// Current size in words.
    pub fn len(&self) -> usize {
        self.data.with(|d| d.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensure the segment covers `words` words; the new words read zero.
    pub fn ensure(&self, words: usize) {
        self.data.with_mut(|d| d.grow(words));
    }

    /// Copy `dst.len()` words starting at `off` out of the segment.
    pub fn read(&self, off: usize, dst: &mut [u64]) {
        self.with_range(off, dst.len(), |r| dst.copy_from_slice(r));
    }

    /// Read a single word.
    pub fn read_word(&self, off: usize) -> u64 {
        self.data.with(|d| d[off])
    }

    /// Copy `src` into the segment at `off`.
    pub fn write(&self, off: usize, src: &[u64]) {
        self.with_range_mut(off, src.len(), |r| r.copy_from_slice(src));
    }

    /// Write a single word.
    pub fn write_word(&self, off: usize, v: u64) {
        self.data.with_mut(|d| d[off] = v);
    }

    /// Scoped shared access to a range (privatized/cast reads, gets).
    /// Panics if the range runs past the segment.
    pub fn with_range<R>(&self, off: usize, len: usize, f: impl FnOnce(&[u64]) -> R) -> R {
        self.data.with(|d| f(&d[in_bounds(off, len, d.len())]))
    }

    /// Scoped exclusive access to a range (privatized/cast writes, puts).
    /// Panics if the range runs past the segment.
    pub fn with_range_mut<R>(
        &self,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> R {
        self.data.with_mut(|d| {
            let r = in_bounds(off, len, d.len());
            f(&mut d[r])
        })
    }

    /// Segment-to-segment copy (the memcpy fast paths). Within one segment
    /// the ranges may overlap: the copy is a memmove.
    pub fn copy_between(src: &Segment, src_off: usize, dst: &Segment, dst_off: usize, len: usize) {
        if std::ptr::eq(src, dst) {
            dst.data
                .with_mut(|d| d.copy_within(src_off..src_off + len, dst_off));
        } else {
            src.with_range(src_off, len, |s| {
                dst.with_range_mut(dst_off, len, |d| d.copy_from_slice(s))
            });
        }
    }
}

/// The word range `off..off + len`, checked against a segment of `words`
/// words: every segment access that takes a range goes through here.
fn in_bounds(off: usize, len: usize, words: usize) -> std::ops::Range<usize> {
    assert!(
        off.checked_add(len).is_some_and(|end| end <= words),
        "segment access out of bounds: {off}+{len} > {words}"
    );
    off..off + len
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("words", &self.len()).finish()
    }
}

/// f64 ⇄ word conversions (free: bit casts).
pub mod word {
    /// Pack an `f64` into a segment word.
    #[inline]
    pub fn from_f64(v: f64) -> u64 {
        v.to_bits()
    }

    /// Unpack an `f64` from a segment word.
    #[inline]
    pub fn to_f64(w: u64) -> f64 {
        f64::from_bits(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let s = Segment::new(16);
        s.write(4, &[1, 2, 3]);
        let mut out = [0u64; 3];
        s.read(4, &mut out);
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(s.read_word(5), 2);
        s.write_word(5, 42);
        assert_eq!(s.read_word(5), 42);
    }

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let s = Segment::new(4);
        s.ensure(100);
        assert_eq!(s.len(), 100);
        s.ensure(10);
        assert_eq!(s.len(), 100);
    }

    /// Every ranged access checks its bounds in one place: a put and a get
    /// through the GASNet primitives fail the same check as a raw write.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        for put in [true, false] {
            let mut cfg = crate::GasnetConfig::test_default(2, 2);
            cfg.segment_words = 4;
            let mut sim = hupc_sim::Simulation::new();
            let gn = crate::Gasnet::new(&mut sim, cfg);
            sim.spawn("upc0", move |ctx| {
                if put {
                    let _ = gn.try_put_nb_with(ctx, 0, 1, 3, 2, |w| w.fill(1));
                } else {
                    let _ = gn.try_get_with(ctx, 0, 1, 3, 2, |w| w.len());
                }
            });
            let err = sim.run_result().unwrap_err().to_string();
            assert!(err.contains("segment access out of bounds"), "put={put}");
        }
        let s = Segment::new(4);
        s.write(3, &[1, 2]);
    }

    #[test]
    fn copy_between_distinct_segments() {
        let a = Segment::new(8);
        let b = Segment::new(8);
        a.write(0, &[9, 8, 7]);
        Segment::copy_between(&a, 0, &b, 5, 3);
        assert_eq!(b.read_word(5), 9);
        assert_eq!(b.read_word(7), 7);
    }

    /// Same-segment copies in both directions, overlapping or not, against
    /// the read-then-write reference.
    #[test]
    fn copy_within_same_segment() {
        const N: usize = 64;
        for (src_off, dst_off, len) in [
            (0, 4, 3),
            (0, 5, 20),
            (5, 0, 20),
            (10, 11, 40),
            (11, 10, 40),
        ] {
            let seg = Segment::new(N);
            let init: Vec<u64> = (0..N as u64).map(|i| i * 7 + 1).collect();
            seg.write(0, &init);
            Segment::copy_between(&seg, src_off, &seg, dst_off, len);
            let mut want = init.clone();
            let tmp = init[src_off..src_off + len].to_vec();
            want[dst_off..dst_off + len].copy_from_slice(&tmp);
            let mut got = vec![0; N];
            seg.read(0, &mut got);
            assert_eq!(got, want, "copy {src_off}->{dst_off} x{len}");
        }
    }

    #[test]
    fn fresh_segments_read_zero_everywhere() {
        for words in [0, 1, 8, 4096, 1 << 16] {
            let s = Segment::new(words);
            assert_eq!(s.len(), words);
            assert!(s.with_range(0, words, |r| r.iter().all(|&w| w == 0)));
        }
    }

    /// `ensure` keeps what was written and zero-fills the tail, from empty
    /// and from a non-empty buffer, small and large. `words::tests` covers
    /// a mapping that has to move.
    #[test]
    fn ensure_keeps_contents_and_zero_fills_the_tail() {
        for (from, to) in [(0, 3), (0, 1024), (3, 17), (5, 1537), (512, 32775)] {
            let s = Segment::new(from);
            let old: Vec<u64> = (1..=from as u64).collect();
            s.write(0, &old);
            s.ensure(to);
            assert_eq!(s.len(), to);
            assert!(s.with_range(0, from, |r| r == old));
            assert!(s.with_range(from, to - from, |r| r.iter().all(|&w| w == 0)));
        }
    }

    /// A thousand segments built, touched, grown and dropped twice over:
    /// allocation and release stay paired (a leak or double free shows up
    /// here, or under Miri).
    #[test]
    fn drop_and_regrow_a_thousand_segments() {
        for round in 0..2u64 {
            let segs: Vec<Segment> = (0..1000).map(|i| Segment::new(i % 7 * 300)).collect();
            for (i, s) in segs.iter().enumerate() {
                s.ensure(2000 + i % 3 * 1000);
                s.write_word(i % 2000, round + i as u64);
            }
            for (i, s) in segs.iter().enumerate() {
                assert_eq!(s.read_word(i % 2000), round + i as u64);
            }
        }
    }

    #[test]
    fn f64_word_round_trip() {
        let v = -1234.5678e-9;
        assert_eq!(word::to_f64(word::from_f64(v)), v);
    }

    #[test]
    fn ranged_access() {
        let s = Segment::new(10);
        s.with_range_mut(2, 4, |r| {
            for (i, w) in r.iter_mut().enumerate() {
                *w = i as u64;
            }
        });
        let sum: u64 = s.with_range(2, 4, |r| r.iter().sum());
        assert_eq!(sum, 1 + 2 + 3);
    }
}
