//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! The UTS benchmark derives its tree deterministically from SHA-1: every
//! node carries a 20-byte digest, and child `i`'s descriptor is
//! `SHA1(parent_digest ‖ i)`. The same construction is used here so tree
//! shapes are reproducible bit-for-bit across thread counts and stealing
//! strategies. (SHA-1's cryptographic weakness is irrelevant — it is a
//! splittable PRNG in this role, exactly as in the reference UTS code.)

/// A 20-byte SHA-1 digest.
pub type Digest = [u8; 20];

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Compute the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = H0;
    let ml = (data.len() as u64) * 8;

    // Process complete input + padding, block by block without allocating
    // the padded message.
    let mut block = [0u8; 64];
    let mut chunks = data.chunks_exact(64);
    for c in chunks.by_ref() {
        block.copy_from_slice(c);
        compress(&mut h, &block);
    }
    let rem = chunks.remainder();
    block[..rem.len()].copy_from_slice(rem);
    block[rem.len()] = 0x80;
    for b in block.iter_mut().skip(rem.len() + 1) {
        *b = 0;
    }
    if rem.len() + 1 > 56 {
        compress(&mut h, &block);
        block = [0u8; 64];
    }
    block[56..64].copy_from_slice(&ml.to_be_bytes());
    compress(&mut h, &block);
    digest(h)
}

fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, c) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i / 20 {
            0 => ((b & c) | ((!b) & d), 0x5A827999u32),
            1 => (b ^ c ^ d, 0x6ED9EBA1),
            2 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Digest of a parent digest plus a 32-bit child index (the UTS child
/// derivation).
pub fn sha1_child(parent: &Digest, child: u32) -> Digest {
    let mut buf = [0u8; 24];
    buf[..20].copy_from_slice(parent);
    buf[20..].copy_from_slice(&child.to_be_bytes());
    sha1(&buf)
}

// ----- batched child derivation ---------------------------------------------
//
// The 24-byte child message `parent ‖ i` is exactly one padded SHA-1 block
// in which only schedule word w5 (the child index) varies between siblings:
// w0..w4 hold the parent digest, w6 = 0x80000000 (the padding bit),
// w7..w14 = 0, and w15 = 192 (the message bit length). A batch therefore
// shares one message template per parent and precomputes the compression
// state after rounds 0..=4 — the last rounds whose inputs (w0..w4) are
// child-independent. Per child only rounds 5..=79 run, spelled out as
// straight-line code with the 16-word rolling schedule kept in registers
// instead of a [u32; 80] spill and with the per-round `i / 20` dispatch of
// [`compress`] folded away. Groups of eight siblings (the thesis tree's
// m = 8) run lane-parallel — multi-buffer hashing: the chains are
// independent and identically structured, so one vector instruction serves
// all eight. The kernel is plain Rust, a loop over the eight lanes whose
// body is one child's rounds, which the compiler's loop vectoriser widens
// across siblings. The same body is compiled three times: for the baseline
// target (SSE2 on x86-64, four lanes per instruction), with AVX2 enabled
// (eight per ymm instruction), and with AVX-512F+VL enabled (still eight
// per ymm instruction, with single-instruction rotates and three-input
// logic). The widest copy CPUID allows is picked at run time.
// Bit-identical to `sha1_child` (pinned by tests + a proptest).

const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];

/// Siblings hashed per kernel call: the thesis tree's branching factor.
const LANES: usize = 8;

/// One state word of every sibling in a kernel call.
type Lanes = [u32; LANES];

macro_rules! rnd {
    ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident, $f:expr, $k:expr, $wi:expr) => {{
        let t = $a
            .rotate_left(5)
            .wrapping_add($f)
            .wrapping_add($e)
            .wrapping_add($k)
            .wrapping_add($wi);
        $e = $d;
        $d = $c;
        $c = $b.rotate_left(30);
        $b = $a;
        $a = t;
    }};
}

/// `w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16])` on a 16-word ring.
macro_rules! wnext {
    ($w:ident, $i:expr) => {{
        let v = ($w[($i + 13) & 15] ^ $w[($i + 8) & 15] ^ $w[($i + 2) & 15] ^ $w[$i & 15])
            .rotate_left(1);
        $w[$i & 15] = v;
        v
    }};
}

/// Serialise five state words big-endian.
fn digest(words: impl IntoIterator<Item = u32>) -> Digest {
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Reusable per-parent template for deriving many children of one node:
/// the scalar [`child`](Self::child) per index, or eight siblings per call
/// through the lane kernel behind [`sha1_children`].
#[derive(Clone, Copy, Debug)]
pub struct ChildHasher {
    /// One padded block; `w[5]` is patched with the child index per call.
    w: [u32; 16],
    /// Compression state after rounds 0..=4 (child-independent prefix).
    mid: [u32; 5],
    /// Schedule words w16..=w18 — the expansions whose taps (w0..w4 and the
    /// padding constants) are all child-independent; w19 is the first to
    /// involve w5.
    w16: [u32; 3],
}

impl ChildHasher {
    pub fn new(parent: &Digest) -> Self {
        let mut w = [0u32; 16];
        for (wi, c) in w.iter_mut().zip(parent.chunks_exact(4)) {
            *wi = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        w[6] = 0x8000_0000;
        w[15] = 24 * 8;
        let [mut a, mut b, mut c, mut d, mut e] = H0;
        for &wi in w.iter().take(5) {
            rnd!(a, b, c, d, e, (b & c) | (!b & d), K[0], wi);
        }
        let w16 = [
            (w[13] ^ w[8] ^ w[2] ^ w[0]).rotate_left(1),
            (w[14] ^ w[9] ^ w[3] ^ w[1]).rotate_left(1),
            (w[15] ^ w[10] ^ w[4] ^ w[2]).rotate_left(1),
        ];
        ChildHasher { w, mid: [a, b, c, d, e], w16 }
    }

    /// `SHA1(parent ‖ index)`, sharing the precomputed prefix.
    #[inline]
    pub fn child(&self, index: u32) -> Digest {
        digest(self.state(index))
    }

    /// The final state words of `SHA1(parent ‖ index)`: rounds 5..=79 of
    /// one child, with no loop left in them, so the lane loop of
    /// [`child8`](Self::child8) is an innermost loop the vectoriser widens.
    #[inline(always)]
    #[allow(unused_assignments)] // rounds 77..=79 store ring slots no round reads
    fn state(&self, index: u32) -> [u32; 5] {
        let mut w = self.w;
        w[5] = index;
        let [mut a, mut b, mut c, mut d, mut e] = self.mid;
        // One round per listed schedule word.
        macro_rules! rounds {
            ($f:expr, $k:expr; $($wi:expr),+) => {$(
                let wi = $wi;
                rnd!(a, b, c, d, e, $f, $k, wi);
            )+};
        }
        // One round per listed index `i`, expanding w[i] on the ring.
        macro_rules! expanded {
            ($f:expr, $k:expr; $($i:literal)+) => {$(
                rounds!($f, $k; wnext!(w, $i));
            )+};
        }
        // Rounds 5..=15 — every schedule word here is a known padding
        // constant except w5, so spell them out and let the zero adds fold.
        rounds!((b & c) | (!b & d), K[0]; index, 0x8000_0000, 0, 0, 0, 0, 0, 0, 0, 0, 24 * 8);
        // Rounds 16..=18 use the parent-precomputed expansions; the ring
        // slots still need the stores for the rolling schedule from 19 on.
        w[..3].copy_from_slice(&self.w16);
        rounds!((b & c) | (!b & d), K[0]; w[0], w[1], w[2]);
        expanded!((b & c) | (!b & d), K[0]; 19);
        expanded!(b ^ c ^ d, K[1]; 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
        expanded!((b & c) | (b & d) | (c & d), K[2]; 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
        expanded!(b ^ c ^ d, K[3]; 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
        [
            H0[0].wrapping_add(a),
            H0[1].wrapping_add(b),
            H0[2].wrapping_add(c),
            H0[3].wrapping_add(d),
            H0[4].wrapping_add(e),
        ]
    }

    /// The lane kernel: children `i0..i0+8` (indices wrap past `u32::MAX`)
    /// as word-major state, `h[word][lane]` being word `word` of child
    /// `i0 + lane`. Each lane is [`state`](Self::state), so this is
    /// bit-identical to `child`; the compiler turns the lane loop into one
    /// vector instruction per round step, and the word-major result into
    /// whole-vector stores. The body of all three copies [`sha1_children`]
    /// picks from.
    #[inline(always)]
    fn child8(&self, i0: u32) -> [Lanes; 5] {
        let mut h = [[0u32; LANES]; 5];
        for lane in 0..LANES {
            let words = self.state(i0.wrapping_add(lane as u32));
            for (row, word) in h.iter_mut().zip(words) {
                row[lane] = word;
            }
        }
        h
    }
}

/// A compiled copy of the lane kernel [`ChildHasher::child8`].
type LaneKernel = fn(&ChildHasher, u32) -> [Lanes; 5];

/// The copy for the baseline target, which every host runs.
fn child8_plain(h: &ChildHasher, i0: u32) -> [Lanes; 5] {
    h.child8(i0)
}

/// The AVX2 copy, where CPUID reports AVX2.
fn avx2_kernel() -> Option<LaneKernel> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        /// # Safety
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn child8_avx2(h: &ChildHasher, i0: u32) -> [Lanes; 5] {
            h.child8(i0)
        }
        // SAFETY: this CPU was just checked to support AVX2.
        return Some(|h, i0| unsafe { child8_avx2(h, i0) });
    }
    None
}

/// The AVX-512 copy, where CPUID reports AVX-512F and AVX-512VL. Eight
/// `u32` lanes fill one ymm register, so the copy uses no zmm register
/// (and no AVX-512 frequency licence); VL gives it the AVX-512
/// instructions on ymm: `vprold` for every rotate and `vpternlogd` for
/// the three-input round functions.
fn avx512_kernel() -> Option<LaneKernel> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512vl") {
        /// # Safety
        /// The CPU must support AVX-512F and AVX-512VL.
        #[target_feature(enable = "avx512f,avx512vl")]
        unsafe fn child8_avx512(h: &ChildHasher, i0: u32) -> [Lanes; 5] {
            h.child8(i0)
        }
        // SAFETY: this CPU was just checked to support AVX-512F and VL.
        return Some(|h, i0| unsafe { child8_avx512(h, i0) });
    }
    None
}

/// The widest copy this CPU runs: AVX-512F+VL, else AVX2, else plain.
fn lane_kernel() -> LaneKernel {
    avx512_kernel().or_else(avx2_kernel).unwrap_or(child8_plain)
}

/// Derive children `lo..hi` of `parent` in one batch, calling
/// `emit(index, digest)` for each. Equivalent to `sha1_child` per index but
/// amortizes the message template and round-0..4 prefix across the batch and
/// runs every group of up to eight siblings through the lane kernel
/// [`ChildHasher::child8`], the widest copy the CPU runs; a short last group
/// emits only its first `hi - i` lanes.
pub fn sha1_children(parent: &Digest, children: std::ops::Range<u32>, mut emit: impl FnMut(u32, Digest)) {
    let h = ChildHasher::new(parent);
    let kernel = lane_kernel();
    let mut i = children.start;
    while i < children.end {
        let n = (children.end - i).min(LANES as u32);
        let words = kernel(&h, i);
        for lane in 0..n {
            emit(i + lane, digest(words.iter().map(|row| row[lane as usize])));
        }
        i += n;
    }
}

/// Interpret the first 4 digest bytes as a uniform value in `[0, 1)`.
pub fn unit_interval(d: &Digest) -> f64 {
    let v = u32::from_be_bytes([d[0], d[1], d[2], d[3]]);
    v as f64 / (u32::MAX as f64 + 1.0)
}

#[cfg(test)]
fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3174_test_vectors() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes cross the padding boundaries.
        for len in [55usize, 56, 63, 64, 65] {
            let msg = vec![0x5au8; len];
            let d = sha1(&msg);
            // compare against a second, allocation-based reference padding
            assert_eq!(d, sha1_reference(&msg), "len {len}");
        }
    }

    /// Naive reference: build the padded message explicitly.
    fn sha1_reference(data: &[u8]) -> Digest {
        let mut m = data.to_vec();
        let ml = (data.len() as u64) * 8;
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&ml.to_be_bytes());
        let mut h = H0;
        for c in m.chunks_exact(64) {
            let mut block = [0u8; 64];
            block.copy_from_slice(c);
            compress(&mut h, &block);
        }
        let mut out = [0u8; 20];
        for (i, w) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn batched_children_match_scalar() {
        let mut parent = sha1(b"batch-parent");
        for round in 0..8 {
            let mut got = Vec::new();
            sha1_children(&parent, 0..50, |i, d| got.push((i, d)));
            assert_eq!(got.len(), 50);
            for (i, d) in &got {
                assert_eq!(*d, sha1_child(&parent, *i), "round {round} child {i}");
            }
            // also sub-ranges away from zero
            let h = ChildHasher::new(&parent);
            for i in [7u32, 1 << 20, u32::MAX] {
                assert_eq!(h.child(i), sha1_child(&parent, i));
            }
            parent = got[round].1;
        }
    }

    /// Every copy of the lane kernel this host can run (the plain copy
    /// always, the AVX2 copy where CPUID reports AVX2, the AVX-512 copy
    /// where it reports AVX-512F and VL) against scalar `sha1_child`, lane
    /// by lane. The dispatching proptest `sha1_children_match_scalar` only
    /// reaches the copy the host picks.
    #[test]
    fn every_lane_copy_matches_sha1_child() {
        let copies: Vec<LaneKernel> = [Some(child8_plain as LaneKernel), avx2_kernel(), avx512_kernel()]
            .into_iter()
            .flatten()
            .collect();
        // u32::MAX - 3: the last three indices, then five lanes that wrap.
        let starts = [0, 8, 1992, u32::MAX - 7, u32::MAX - 3];
        let mut parent = sha1(b"lane-copies");
        for _ in 0..256 {
            let h = ChildHasher::new(&parent);
            for (copy, kernel) in copies.iter().enumerate() {
                for i0 in starts {
                    let words = kernel(&h, i0);
                    for lane in 0..LANES {
                        let i = i0.wrapping_add(lane as u32);
                        let got = digest(words.iter().map(|row| row[lane]));
                        assert_eq!(got, sha1_child(&parent, i), "copy {copy}, child {i}");
                    }
                }
            }
            // A 3-child tail emits its three children and no wrapped lane.
            let mut tail = Vec::new();
            sha1_children(&parent, u32::MAX - 3..u32::MAX, |i, d| tail.push((i, d)));
            let want: Vec<_> = (u32::MAX - 3..u32::MAX)
                .map(|i| (i, sha1_child(&parent, i)))
                .collect();
            assert_eq!(tail, want);
            parent = sha1(&parent);
        }
    }

    #[test]
    fn child_derivation_is_deterministic_and_distinct() {
        let root = sha1(b"root");
        let c0 = sha1_child(&root, 0);
        let c1 = sha1_child(&root, 1);
        assert_ne!(c0, c1);
        assert_eq!(c0, sha1_child(&root, 0));
    }

    #[test]
    fn unit_interval_in_range() {
        let d = sha1(b"x");
        let u = unit_interval(&d);
        assert!((0.0..1.0).contains(&u));
    }
}
