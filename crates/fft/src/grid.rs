//! Problem classes, deterministic initial data, evolution factors, checksum
//! probes, and a sequential reference implementation.

use hupc_sim::rng::SplitMix64;

use crate::kernel::{Complex, Direction, FftPlan, Lanes};

/// NAS FT problem classes (grid + iteration count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtClass {
    /// 64×64×64, 6 iterations.
    S,
    /// 128×128×32, 6 iterations.
    W,
    /// 256×256×128, 6 iterations.
    A,
    /// 512×256×256, 20 iterations — the thesis' evaluation size.
    B,
    /// Arbitrary power-of-two grid (tests).
    Custom {
        nx: usize,
        ny: usize,
        nz: usize,
        iters: usize,
    },
}

impl FtClass {
    pub fn dims(&self) -> (usize, usize, usize) {
        match self {
            FtClass::S => (64, 64, 64),
            FtClass::W => (128, 128, 32),
            FtClass::A => (256, 256, 128),
            FtClass::B => (512, 256, 256),
            FtClass::Custom { nx, ny, nz, .. } => (*nx, *ny, *nz),
        }
    }

    pub fn iters(&self) -> usize {
        match self {
            FtClass::S | FtClass::W | FtClass::A => 6,
            FtClass::B => 20,
            FtClass::Custom { iters, .. } => *iters,
        }
    }

    pub fn name(&self) -> String {
        match self {
            FtClass::S => "S".into(),
            FtClass::W => "W".into(),
            FtClass::A => "A".into(),
            FtClass::B => "B".into(),
            FtClass::Custom { nx, ny, nz, .. } => format!("{nx}x{ny}x{nz}"),
        }
    }

    pub fn grid(&self) -> Grid {
        let (nx, ny, nz) = self.dims();
        Grid { nx, ny, nz }
    }
}

/// The 3-D grid: dimension sizes and the derived index/physics helpers.
/// Spatial layout convention: `x` fastest, flat index `x + nx·(y + ny·z)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

/// NAS FT's diffusion constant.
const ALPHA: f64 = 1.0e-6;

/// Square of the signed (wrapped) frequency of index `k` in a dimension of
/// size `n`: `k` up to `n/2`, `k − n` above.
pub(crate) fn wrapped_sq(k: usize, n: usize) -> usize {
    let f = k.min(n - k);
    f * f
}

/// The one expression behind [`Grid::evolve_factor`] and
/// [`Grid::evolve_table`]. `k2` is an integer far below 2⁵³, so `k2 as
/// f64` is exactly the float sum `fx² + fy² + fz²` of the signed
/// frequencies.
fn decay(t: usize, k2: usize) -> f64 {
    (-4.0 * std::f64::consts::PI * std::f64::consts::PI * ALPHA * t as f64 * k2 as f64).exp()
}

impl Grid {
    pub fn total(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Deterministic pseudorandom initial value at a global coordinate —
    /// independent of the decomposition, so every variant starts from the
    /// identical field (NAS seeds a serial RNG; we seed by coordinate).
    pub fn initial(&self, x: usize, y: usize, z: usize) -> Complex {
        let flat = (x + self.nx * (y + self.ny * z)) as u64;
        let h1 = SplitMix64(flat.wrapping_mul(2) + 1).next_u64();
        let h2 = SplitMix64(flat.wrapping_mul(2) + 2).next_u64();
        // uniforms in (0,1) like NAS' vranlc stream
        let re = (h1 >> 11) as f64 / (1u64 << 53) as f64;
        let im = (h2 >> 11) as f64 / (1u64 << 53) as f64;
        Complex::new(re, im)
    }

    /// `|k̄|²` of frequency-space index `(kx, ky, kz)`: an integer, and the
    /// index into [`Grid::evolve_table`].
    pub(crate) fn k2(&self, kx: usize, ky: usize, kz: usize) -> usize {
        wrapped_sq(kx, self.nx) + wrapped_sq(ky, self.ny) + wrapped_sq(kz, self.nz)
    }

    /// Evolution factor `exp(-4π²·α·t·|k̄|²)` for frequency-space index
    /// `(kx, ky, kz)` at timestep `t`.
    pub fn evolve_factor(&self, t: usize, kx: usize, ky: usize, kz: usize) -> f64 {
        decay(t, self.k2(kx, ky, kz))
    }

    /// Every evolution factor of timestep `t`, indexed by `|k̄|²` (see
    /// [`Grid::k2`]): `(nx/2)² + (ny/2)² + (nz/2)² + 1` entries (36 865 at
    /// class A), each the same bits as the matching
    /// [`Grid::evolve_factor`], for one `exp` per entry instead of one per
    /// grid point.
    pub(crate) fn evolve_table(&self, t: usize) -> Vec<f64> {
        let max = self.k2(self.nx / 2, self.ny / 2, self.nz / 2);
        (0..=max).map(|k2| decay(t, k2)).collect()
    }

    /// The 1024 spatial probe coordinates whose sum is the per-iteration
    /// checksum (deterministic, decomposition-independent).
    pub fn checksum_coords(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (1..=1024usize).map(move |j| {
            let x = (3 * j) % self.nx;
            let y = (5 * j) % self.ny;
            let z = (7 * j) % self.nz;
            (x, y, z)
        })
    }
}

/// Sequential reference FT: returns the per-iteration checksums. Oracle for
/// the distributed variants.
///
/// It computes only what the checksums read. After the full forward
/// [`fft3d`] of `u0`, each iteration evolves one z-plane at a time from
/// `u0` into a one-plane buffer, runs the inverse x and y passes on it and
/// copies out the `(x, y)` pencils some probe of [`Grid::checksum_coords`]
/// lies on; then the inverse z pass runs on those pencils alone, and the
/// probes are summed in `checksum_coords` order. Every 1-D transform of a
/// full inverse `fft3d` reads only the outputs of the passes before it
/// along its own line, so the probes get the same bits as from the full
/// grid. Holds `u0` (128 MiB at class A) plus a plane and the probed
/// pencils (1.5 MiB: 256 of the 65 536 pencils).
pub fn seq_checksums(class: FtClass) -> Vec<Complex> {
    let g = class.grid();
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let mut u0: Vec<Complex> = Vec::with_capacity(g.total());
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                u0.push(g.initial(x, y, z));
            }
        }
    }
    fft3d(&mut u0, &g, Direction::Forward);
    let (px, py, pz) = (FftPlan::new(nx), FftPlan::new(ny), FftPlan::new(nz));
    let mut lanes = vec![Lanes::default(); nx.max(ny).max(nz)];
    // The probed pencils, in plane order, and pencil i's z-line at i·nz.
    let mut xy: Vec<(usize, usize)> = g.checksum_coords().map(|(x, y, _)| (y, x)).collect();
    xy.sort_unstable();
    xy.dedup();
    let pencil = |x: usize, y: usize| {
        xy.binary_search(&(y, x)).expect("every probe's pencil is kept")
    };
    let mut pencils = vec![Complex::ZERO; xy.len() * nz];
    let mut plane = vec![Complex::ZERO; nx * ny];
    let kx2: Vec<usize> = (0..nx).map(|x| wrapped_sq(x, nx)).collect();
    let mut sums = Vec::with_capacity(class.iters());
    for t in 1..=class.iters() {
        let table = g.evolve_table(t);
        for (z, u0_plane) in u0.chunks_exact(nx * ny).enumerate() {
            let rows = plane.chunks_exact_mut(nx).zip(u0_plane.chunks_exact(nx));
            for (y, (row, u0_row)) in rows.enumerate() {
                let kyz = wrapped_sq(y, ny) + wrapped_sq(z, nz);
                for ((u, v), k) in row.iter_mut().zip(u0_row).zip(&kx2) {
                    *u = v.scale(table[kyz + k]);
                }
            }
            fft_plane(&px, &py, &mut plane, Direction::Inverse, &mut lanes);
            for (i, &(y, x)) in xy.iter().enumerate() {
                pencils[i * nz + z] = plane[x + nx * y];
            }
        }
        pz.transform_lanes(&mut pencils, xy.len(), nz, 1, Direction::Inverse, &mut lanes);
        let mut s = Complex::ZERO;
        for (x, y, z) in g.checksum_coords() {
            s = s + pencils[pencil(x, y) * nz + z];
        }
        sums.push(s);
    }
    sums
}

/// The x then the y FFT pass over one spatial plane (x fastest), each
/// through [`FftPlan::transform_lanes`] with `scratch` at least
/// `max(nx, ny)` long.
pub(crate) fn fft_plane(
    px: &FftPlan,
    py: &FftPlan,
    plane: &mut [Complex],
    dir: Direction,
    scratch: &mut [Lanes],
) {
    let (nx, ny) = (px.len(), py.len());
    px.transform_lanes(plane, ny, nx, 1, dir, scratch);
    py.transform_lanes(plane, nx, 1, nx, dir, scratch);
}

/// In-place 3-D FFT on a spatially-laid-out array (x fastest): the x and y
/// passes plane by plane, then the z pass over each y's row of x-adjacent
/// pencils (stride `nx·ny`), all through `FftPlan::transform_lanes`, so a
/// strided pass reads a whole cache line of four adjacent sequences at a
/// time.
pub fn fft3d(data: &mut [Complex], g: &Grid, dir: Direction) {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    assert_eq!(data.len(), g.total());
    let px = FftPlan::new(nx);
    let py = FftPlan::new(ny);
    let pz = FftPlan::new(nz);
    let mut lanes = vec![Lanes::default(); nx.max(ny).max(nz)];
    for plane in data.chunks_exact_mut(nx * ny) {
        fft_plane(&px, &py, plane, dir, &mut lanes);
    }
    for y in 0..ny {
        pz.transform_lanes(&mut data[nx * y..], nx, 1, nx * ny, dir, &mut lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_dims() {
        assert_eq!(FtClass::B.dims(), (512, 256, 256));
        assert_eq!(FtClass::B.iters(), 20);
        assert_eq!(FtClass::S.dims(), (64, 64, 64));
    }

    #[test]
    fn initial_is_coordinate_deterministic() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 }.grid();
        assert_eq!(g.initial(1, 2, 3), g.initial(1, 2, 3));
        assert_ne!(g.initial(1, 2, 3), g.initial(3, 2, 1));
        let v = g.initial(7, 7, 7);
        assert!(v.re > 0.0 && v.re < 1.0 && v.im > 0.0 && v.im < 1.0);
    }

    #[test]
    fn evolve_factor_decays_high_frequencies() {
        let g = FtClass::S.grid();
        let low = g.evolve_factor(5, 1, 0, 0);
        let high = g.evolve_factor(5, 32, 32, 32);
        assert!(low > high);
        assert!(high > 0.0 && low <= 1.0);
        assert_eq!(g.evolve_factor(0, 9, 9, 9), 1.0);
    }

    #[test]
    fn wrapped_frequencies_are_symmetric() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 }.grid();
        // k and n-k have the same |k̄|² in each dimension
        assert_eq!(g.evolve_factor(3, 1, 0, 0), g.evolve_factor(3, 7, 0, 0));
        assert_eq!(g.evolve_factor(3, 0, 2, 0), g.evolve_factor(3, 0, 6, 0));
    }

    #[test]
    fn evolve_table_is_bit_identical_to_evolve_factor() {
        // Both are also checked against an independent reference: the
        // per-axis float expression exp(-4π²·α·t·(fx² + fy² + fz²)).
        let wrapped = |k: usize, n: usize| if k <= n / 2 { k as f64 } else { k as f64 - n as f64 };
        let g = FtClass::Custom { nx: 16, ny: 8, nz: 32, iters: 1 }.grid();
        for t in 1..=3 {
            let table = g.evolve_table(t);
            assert_eq!(table.len(), 8 * 8 + 4 * 4 + 16 * 16 + 1);
            for kz in 0..g.nz {
                for ky in 0..g.ny {
                    for kx in 0..g.nx {
                        let f = g.evolve_factor(t, kx, ky, kz);
                        let at = format!("t={t} ({kx},{ky},{kz})");
                        assert_eq!(table[g.k2(kx, ky, kz)].to_bits(), f.to_bits(), "{at}");
                        let (fx, fy) = (wrapped(kx, g.nx), wrapped(ky, g.ny));
                        let fz = wrapped(kz, g.nz);
                        let k2 = fx * fx + fy * fy + fz * fz;
                        let old = (-4.0 * std::f64::consts::PI * std::f64::consts::PI * ALPHA
                            * t as f64
                            * k2)
                            .exp();
                        assert_eq!(f.to_bits(), old.to_bits(), "{at}");
                    }
                }
            }
        }
        assert_eq!(FtClass::A.grid().evolve_table(1).len(), 36_865);
    }

    #[test]
    fn fft3d_round_trip() {
        let class = FtClass::Custom { nx: 8, ny: 4, nz: 16, iters: 1 };
        let g = class.grid();
        let mut data: Vec<Complex> = (0..g.total())
            .map(|i| {
                let z = i / (g.nx * g.ny);
                let r = i % (g.nx * g.ny);
                g.initial(r % g.nx, r / g.nx, z)
            })
            .collect();
        let orig = data.clone();
        fft3d(&mut data, &g, Direction::Forward);
        fft3d(&mut data, &g, Direction::Inverse);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn seq_checksums_are_stable() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 3 };
        let a = seq_checksums(class);
        let b = seq_checksums(class);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        // successive iterations differ (the field evolves)
        assert_ne!(a[0].re.to_bits(), a[2].re.to_bits());
    }

    /// The oracle the long way: evolve the whole grid, run a full inverse
    /// 3-D FFT, sum the probes.
    fn full_grid_checksums(class: FtClass) -> Vec<Complex> {
        let g = class.grid();
        let at = |i: usize| (i % g.nx, i / g.nx % g.ny, i / (g.nx * g.ny));
        let mut u0: Vec<Complex> = (0..g.total())
            .map(|i| {
                let (x, y, z) = at(i);
                g.initial(x, y, z)
            })
            .collect();
        fft3d(&mut u0, &g, Direction::Forward);
        (1..=class.iters())
            .map(|t| {
                let mut ut: Vec<Complex> = u0
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let (x, y, z) = at(i);
                        v.scale(g.evolve_factor(t, x, y, z))
                    })
                    .collect();
                fft3d(&mut ut, &g, Direction::Inverse);
                g.checksum_coords()
                    .fold(Complex::ZERO, |s, (x, y, z)| s + ut[x + g.nx * (y + g.ny * z)])
            })
            .collect()
    }

    #[test]
    fn seq_checksums_are_bit_identical_to_the_full_grid() {
        // 1×4×8 probes every pencil (and runs length-1 x transforms), 2×8×8
        // half of them, 16×8×32 and 64×32×32 one in eight and one in 32.
        for (nx, ny, nz) in [(1, 4, 8), (2, 8, 8), (16, 8, 32), (64, 32, 32)] {
            let class = FtClass::Custom { nx, ny, nz, iters: 2 };
            let bits = |v: Vec<Complex>| {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>()
            };
            let want = bits(full_grid_checksums(class));
            assert_eq!(bits(seq_checksums(class)), want, "{}", class.name());
        }
    }

    #[test]
    fn checksum_probes_are_in_bounds() {
        let g = FtClass::W.grid();
        for (x, y, z) in g.checksum_coords() {
            assert!(x < g.nx && y < g.ny && z < g.nz);
        }
        assert_eq!(g.checksum_coords().count(), 1024);
    }
}
