//! Complex double-precision FFT, written from scratch (the FFTW 3.2.2
//! stand-in). Iterative decimation-in-time with precomputed twiddle tables,
//! consecutive radix-2 stages fused into radix-4 passes; power-of-two
//! lengths only — all NAS FT grid dimensions are powers of two.
//!
//! [`FftPlan::transform`] transforms one sequence. FT's grid passes go
//! through [`FftPlan::transform_lanes`] instead, which runs [`LANES`]
//! sequences side by side in split-complex scratch so each butterfly is
//! plain `[f64; LANES]` arithmetic the compiler vectorises; every element
//! gets the same operations in the same order as in `transform`, so both
//! give the same bits. Its body is compiled twice, for the baseline target
//! (SSE2 on x86-64, two lanes per instruction) and with AVX2 enabled (all
//! four lanes in one ymm instruction), and the copy is picked from CPUID at
//! run time. Rust never contracts a multiply and an add into an FMA, so the
//! two copies give the same bits too.

/// A complex number as `[re, im]` (bit-compatible with the PGAS element
/// `[f64; 2]`).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    #[inline]
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }

    #[inline]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Inverse,
}

/// Sequences [`FftPlan::transform_lanes`] transforms at once. Four 16-byte
/// elements are one 64-byte cache line of a strided row, and at n = 256
/// four lanes of scratch plus the lines they gather (32 KiB) fit a 48 KiB
/// first-level data cache where eight (64 KiB) do not; of 2, 4 and 8, four
/// measured fastest (EXPERIMENTS.md "Four transforms per sweep"), and under
/// AVX2 eight did not beat four (EXPERIMENTS.md "FT's lane FFT at full
/// vector width").
pub(crate) const LANES: usize = 4;

/// One element of [`LANES`] independent sequences, split into real and
/// imaginary parts: the scratch element of [`FftPlan::transform_lanes`].
/// Its arithmetic is lane-wise and mirrors [`Complex`]'s operator for
/// operator, so a lane computes exactly what `Complex` would.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Lanes {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl std::ops::Add for Lanes {
    type Output = Lanes;

    #[inline(always)]
    fn add(self, o: Lanes) -> Lanes {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] + o.re[l]),
            im: std::array::from_fn(|l| self.im[l] + o.im[l]),
        }
    }
}

impl std::ops::Sub for Lanes {
    type Output = Lanes;

    #[inline(always)]
    fn sub(self, o: Lanes) -> Lanes {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] - o.re[l]),
            im: std::array::from_fn(|l| self.im[l] - o.im[l]),
        }
    }
}

/// Every lane times one shared twiddle, as `Complex * Complex`.
impl std::ops::Mul<Complex> for Lanes {
    type Output = Lanes;

    #[inline(always)]
    fn mul(self, w: Complex) -> Lanes {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: std::array::from_fn(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }
}

/// A reusable FFT plan for one power-of-two length (twiddles + bit-reversal
/// table, computed once — the "FFTW plan" analogue).
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for the forward direction, per stage, flattened.
    twiddles: Vec<Complex>,
    bitrev: Vec<u32>,
}

impl FftPlan {
    pub fn new(n: usize) -> FftPlan {
        assert!(n.is_power_of_two() && n >= 1, "FFT length must be 2^k, got {n}");
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        // Per-stage twiddles: stage with half-size m has m factors.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 1;
        while m < n {
            for j in 0..m {
                let ang = -std::f64::consts::PI * j as f64 / m as f64;
                twiddles.push(Complex::new(ang.cos(), ang.sin()));
            }
            m <<= 1;
        }
        FftPlan {
            n,
            twiddles,
            bitrev,
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform. The inverse is unscaled-conjugate followed by a
    /// 1/n normalization, so `inverse(forward(x)) == x`.
    ///
    /// The butterfly sweep fuses consecutive radix-2 stage pairs into
    /// radix-4 passes (with one radix-2 cleanup stage first when log₂n is
    /// odd): each 4m-block loads its four points once and applies both
    /// stages in registers, halving the passes over `data`. The arithmetic —
    /// per-element operations, operands, and order — is exactly that of the
    /// plain radix-2 code ([`FftPlan::transform_radix2`]), so results are
    /// bit-identical; only memory traffic changes.
    pub fn transform(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "plan is for length {}", self.n);
        let n = self.n;
        if n == 1 {
            return;
        }
        self.pre(data, dir);
        self.butterflies(data);
        self.post(data, dir);
    }

    /// Transform `count` sequences in place, [`LANES`] at a time: sequence
    /// `j`, element `k` is `data[j·js + k·ks]`, so rows (`js = len()`,
    /// `ks = 1`), strided columns (`js = 1`, `ks` = the row length) and
    /// pencils are each one call. A batch is gathered into `scratch` (at
    /// least `len()` long) with `pre`'s conjugation and bit reversal folded
    /// in, swept by the butterflies [`FftPlan::transform`] runs, one lane per
    /// sequence, and scattered back with `post`'s conjugate-and-scale folded
    /// in. Every element sees the operations `transform` applies to it, in
    /// the same order, so the results are bit-identical to one `transform`
    /// call per sequence. Runs the AVX2 copy of the body where CPUID reports
    /// AVX2, the baseline copy elsewhere.
    pub(crate) fn transform_lanes(
        &self,
        data: &mut [Complex],
        count: usize,
        js: usize,
        ks: usize,
        dir: Direction,
        scratch: &mut [Lanes],
    ) {
        let copy = avx2_lanes().unwrap_or(transform_lanes_plain);
        copy(self, data, count, js, ks, dir, scratch)
    }

    /// The body of both copies [`FftPlan::transform_lanes`] picks from.
    /// The butterflies and the radix-2 stage are `#[inline(always)]` too, so
    /// the AVX2 copy calls no baseline-compiled helper. The gather and
    /// scatter loops always span all [`LANES`], which lets them unroll.
    #[inline(always)]
    fn lanes(
        &self,
        data: &mut [Complex],
        count: usize,
        js: usize,
        ks: usize,
        dir: Direction,
        scratch: &mut [Lanes],
    ) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let inverse = dir == Direction::Inverse;
        let s = 1.0 / n as f64;
        let scratch = &mut scratch[..n];
        for j0 in (0..count).step_by(LANES) {
            // A short last batch repeats its last sequence in the spare
            // lanes, which compute and store that sequence's own bits again.
            let last = count - 1 - j0;
            let at: [usize; LANES] = std::array::from_fn(|l| (j0 + l.min(last)) * js);
            for (k, &r) in self.bitrev.iter().enumerate() {
                let c: [Complex; LANES] = std::array::from_fn(|l| data[at[l] + k * ks]);
                let v = &mut scratch[r as usize];
                v.re = std::array::from_fn(|l| c[l].re);
                v.im = std::array::from_fn(|l| if inverse { -c[l].im } else { c[l].im });
            }
            self.butterflies(scratch);
            for (k, v) in scratch.iter().enumerate() {
                for l in 0..LANES {
                    let c = Complex::new(v.re[l], v.im[l]);
                    data[at[l] + k * ks] = if inverse { c.conj().scale(s) } else { c };
                }
            }
        }
    }

    /// The butterfly sweep over bit-reversed input: one sequence
    /// (`T = Complex`) or [`LANES`] of them (`T = Lanes`).
    #[inline(always)]
    fn butterflies<T>(&self, data: &mut [T])
    where
        T: Copy
            + std::ops::Add<Output = T>
            + std::ops::Sub<Output = T>
            + std::ops::Mul<Complex, Output = T>,
    {
        let n = self.n;
        let mut m = 1;
        let mut tw_base = 0;
        if n.trailing_zeros() % 2 == 1 {
            // Radix-2 cleanup stage (m = 1, single unit twiddle).
            self.radix2_stage(data, m, tw_base);
            tw_base += m;
            m <<= 1;
        }
        while m < n {
            // Fused stages (m, 2m). Stage-m twiddles start at tw_base, the
            // 2m ones right after: w2 = tw[tw_base+m+j], w3 = tw[tw_base+m+j+m].
            // Quarter the 4m-block into length-m slices so every inner-loop
            // access is `slice[j]` with `j < slice.len()` — no bounds checks.
            let (tw1, tw23) = self.twiddles[tw_base..tw_base + 3 * m].split_at(m);
            let (tw2, tw3) = tw23.split_at(m);
            for chunk in data.chunks_exact_mut(4 * m) {
                let (h0, h1) = chunk.split_at_mut(2 * m);
                let (q0, q1) = h0.split_at_mut(m);
                let (q2, q3) = h1.split_at_mut(m);
                for j in 0..m {
                    let w1 = tw1[j];
                    let w2 = tw2[j];
                    let w3 = tw3[j];
                    // Stage m on (a,b) and (c,d)…
                    let t0 = q1[j] * w1;
                    let u0 = q0[j];
                    let a = u0 + t0;
                    let b = u0 - t0;
                    let t1 = q3[j] * w1;
                    let u1 = q2[j];
                    let c = u1 + t1;
                    let d = u1 - t1;
                    // …then stage 2m on (a,c) and (b,d), still in registers.
                    let t2 = c * w2;
                    q0[j] = a + t2;
                    q2[j] = a - t2;
                    let t3 = d * w3;
                    q1[j] = b + t3;
                    q3[j] = b - t3;
                }
            }
            tw_base += 3 * m;
            m <<= 2;
        }
    }

    /// The historical single-stage radix-2 sweep. Kept as the reference the
    /// bit-identity tests (`fused_radix4_is_bit_identical_to_radix2`, the
    /// `radix4_bit_identical_to_radix2` proptest) compare against.
    pub fn transform_radix2(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "plan is for length {}", self.n);
        let n = self.n;
        if n == 1 {
            return;
        }
        self.pre(data, dir);
        let mut m = 1;
        let mut tw_base = 0;
        while m < n {
            self.radix2_stage(data, m, tw_base);
            tw_base += m;
            m <<= 1;
        }
        self.post(data, dir);
    }

    /// One radix-2 butterfly stage of half-size `m`.
    #[inline(always)]
    fn radix2_stage<T>(&self, data: &mut [T], m: usize, tw_base: usize)
    where
        T: Copy
            + std::ops::Add<Output = T>
            + std::ops::Sub<Output = T>
            + std::ops::Mul<Complex, Output = T>,
    {
        for k in (0..self.n).step_by(2 * m) {
            for j in 0..m {
                let w = self.twiddles[tw_base + j];
                let t = data[k + j + m] * w;
                let u = data[k + j];
                data[k + j] = u + t;
                data[k + j + m] = u - t;
            }
        }
    }

    /// Inverse conjugation + bit-reversal permutation.
    fn pre(&self, data: &mut [Complex], dir: Direction) {
        if dir == Direction::Inverse {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// Inverse conjugate-and-scale epilogue.
    fn post(&self, data: &mut [Complex], dir: Direction) {
        if dir == Direction::Inverse {
            let s = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.conj().scale(s);
            }
        }
    }

    /// Model flop count of one transform (the standard 5·n·log₂n).
    pub fn flops(&self) -> f64 {
        5.0 * self.n as f64 * (self.n as f64).log2()
    }
}

/// A compiled copy of [`FftPlan::transform_lanes`]' body.
type LaneCopy = fn(&FftPlan, &mut [Complex], usize, usize, usize, Direction, &mut [Lanes]);

/// The copy for the baseline target, which every host runs.
fn transform_lanes_plain(
    plan: &FftPlan,
    data: &mut [Complex],
    count: usize,
    js: usize,
    ks: usize,
    dir: Direction,
    scratch: &mut [Lanes],
) {
    plan.lanes(data, count, js, ks, dir, scratch)
}

/// The AVX2 copy, where CPUID reports AVX2: one [`Lanes`] part per ymm
/// register.
fn avx2_lanes() -> Option<LaneCopy> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        /// # Safety
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn transform_lanes_avx2(
            plan: &FftPlan,
            data: &mut [Complex],
            count: usize,
            js: usize,
            ks: usize,
            dir: Direction,
            scratch: &mut [Lanes],
        ) {
            plan.lanes(data, count, js, ks, dir, scratch)
        }
        // SAFETY: this CPU was just checked to support AVX2.
        return Some(|p, d, c, js, ks, dir, s| unsafe {
            transform_lanes_avx2(p, d, c, js, ks, dir, s)
        });
    }
    None
}

/// Naive O(n²) DFT (test oracle).
pub fn dft_reference(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc = acc + x * Complex::new(ang.cos(), ang.sin());
        }
        if dir == Direction::Inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let re = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let im = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                Complex::new(re, im)
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = random_signal(n, 7);
            let want = dft_reference(&x, Direction::Forward);
            let mut got = x.clone();
            FftPlan::new(n).transform(&mut got, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!(close(*g, *w, 1e-9), "n={n}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn inverse_recovers_signal() {
        for n in [2usize, 32, 256, 1024] {
            let plan = FftPlan::new(n);
            let x = random_signal(n, n as u64);
            let mut y = x.clone();
            plan.transform(&mut y, Direction::Forward);
            plan.transform(&mut y, Direction::Inverse);
            for (a, b) in x.iter().zip(&y) {
                assert!(close(*a, *b, 1e-10), "n={n}");
            }
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 16;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::new(1.0, 0.0);
        FftPlan::new(n).transform(&mut x, Direction::Forward);
        for v in &x {
            assert!(close(*v, Complex::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn constant_gives_impulse() {
        let n = 8;
        let mut x = vec![Complex::new(2.0, 0.0); n];
        FftPlan::new(n).transform(&mut x, Direction::Forward);
        assert!(close(x[0], Complex::new(16.0, 0.0), 1e-12));
        for v in &x[1..] {
            assert!(close(*v, Complex::ZERO, 1e-12));
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 128;
        let x = random_signal(n, 99);
        let mut y = x.clone();
        FftPlan::new(n).transform(&mut y, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sq()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sq()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let plan = FftPlan::new(n);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.transform(&mut fx, Direction::Forward);
        plan.transform(&mut fy, Direction::Forward);
        let mut xy: Vec<Complex> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        plan.transform(&mut xy, Direction::Forward);
        for i in 0..n {
            assert!(close(xy[i], fx[i] + fy[i], 1e-9));
        }
    }

    #[test]
    fn fused_radix4_is_bit_identical_to_radix2() {
        // Both even and odd log2(n), both directions: every output must be
        // the same bits, not just close — Execute-mode checksums depend on it.
        for n in [1usize, 2, 4, 8, 16, 32, 128, 1024, 2048] {
            let plan = FftPlan::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let x = random_signal(n, 31 + n as u64);
                let mut a = x.clone();
                let mut b = x;
                plan.transform(&mut a, dir);
                plan.transform_radix2(&mut b, dir);
                for (p, q) in a.iter().zip(&b) {
                    assert_eq!(p.re.to_bits(), q.re.to_bits(), "n={n} {dir:?}");
                    assert_eq!(p.im.to_bits(), q.im.to_bits(), "n={n} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_a_transform_per_sequence() {
        // Every length to 2048 (odd and even log2 n), one partial batch up to
        // two whole ones and a partial, rows (js = n, ks = 1) and strided
        // columns with a gap column that must stay untouched (js = 1,
        // ks = count + 1), both directions; for every copy of the lane body
        // this host can run (the plain copy always, the AVX2 copy where CPUID
        // reports AVX2), since `transform_lanes` only reaches the one it picks.
        let copies: Vec<LaneCopy> = [Some(transform_lanes_plain as LaneCopy), avx2_lanes()]
            .into_iter()
            .flatten()
            .collect();
        let bits = |v: &[Complex]| {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>()
        };
        for log in 0..=11 {
            let n = 1usize << log;
            let plan = FftPlan::new(n);
            let mut scratch = vec![Lanes::default(); n];
            for count in 1..=2 * LANES + 1 {
                for (js, ks) in [(n, 1), (1, count + 1)] {
                    for dir in [Direction::Forward, Direction::Inverse] {
                        let x = random_signal((count + 1) * n, (n * count + js) as u64);
                        let mut want = x.clone();
                        let mut seq = vec![Complex::ZERO; n];
                        for j in 0..count {
                            for (k, v) in seq.iter_mut().enumerate() {
                                *v = want[j * js + k * ks];
                            }
                            plan.transform(&mut seq, dir);
                            for (k, v) in seq.iter().enumerate() {
                                want[j * js + k * ks] = *v;
                            }
                        }
                        let at = format!("n={n} count={count} js={js} ks={ks} {dir:?}");
                        for (copy, lanes) in copies.iter().enumerate() {
                            let mut got = x.clone();
                            lanes(&plan, &mut got, count, js, ks, dir, &mut scratch);
                            assert_eq!(bits(&got), bits(&want), "copy {copy} {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        FftPlan::new(12);
    }

    #[test]
    fn flop_model() {
        let p = FftPlan::new(1024);
        assert_eq!(p.flops(), 5.0 * 1024.0 * 10.0);
    }
}
