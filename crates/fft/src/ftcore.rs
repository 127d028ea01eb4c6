//! Transport-independent FT machinery: decomposition arithmetic, real data
//! math, and the flop/byte charge constants — shared by the UPC and MPI
//! variants so their numerics are bit-identical.

use crate::grid::{fft_plane, wrapped_sq, Grid};
use crate::kernel::{Complex, Direction, FftPlan, Lanes};

/// Fraction of peak flops the FFT kernels sustain (FFTW-on-Nehalem scale).
pub(crate) const FFT_EFF: f64 = 0.30;
/// Effective per-core bandwidth of cache-blocked packing / transpose /
/// evolve sweeps, bytes/s (these kernels scale with cores in Fig 4.4, so
/// they are charged per-core, not against the shared controllers).
pub(crate) const PACK_BW: f64 = 3.5e9;

/// Decomposition arithmetic (thesis Fig 4.3 plus the transposed frequency
/// layout): spatial z-slabs of `nzp` planes; frequency y-slices of `nyp`
/// rows with z fastest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Layout {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub p: usize,
    pub nzp: usize,
    pub nyp: usize,
    /// Elements per thread.
    pub chunk: usize,
    /// Elements per exchange slot (one per peer).
    pub slot: usize,
}

impl Layout {
    pub fn new(g: Grid, p: usize) -> Layout {
        assert!(g.nz % p == 0, "threads ({p}) must divide nz ({})", g.nz);
        assert!(g.ny % p == 0, "threads ({p}) must divide ny ({})", g.ny);
        let chunk = g.total() / p;
        Layout {
            nx: g.nx,
            ny: g.ny,
            nz: g.nz,
            p,
            nzp: g.nz / p,
            nyp: g.ny / p,
            chunk,
            slot: chunk / p,
        }
    }

    /// Spatial local index of `(x, y, zl)` — x fastest.
    #[inline]
    pub fn s_idx(&self, x: usize, y: usize, zl: usize) -> usize {
        x + self.nx * (y + self.ny * zl)
    }

    /// Frequency local index of `(yl, x, z)` — z fastest.
    #[inline]
    pub fn f_idx(&self, yl: usize, x: usize, z: usize) -> usize {
        z + self.nz * (x + self.nx * yl)
    }

    /// Index inside a *forward* exchange slot: `(zl_of_sender, yl, x)`.
    #[inline]
    pub fn fwd_slot_idx(&self, zl: usize, yl: usize, x: usize) -> usize {
        x + self.nx * (yl + self.nyp * zl)
    }

    /// Index inside an *inverse* exchange slot: `(yl_of_sender, x, zl)`.
    #[inline]
    pub fn inv_slot_idx(&self, yl: usize, x: usize, zl: usize) -> usize {
        zl + self.nzp * (x + self.nx * yl)
    }
}

/// Modeled flop counts per plane-unit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Charges {
    /// One spatial plane's x+y FFT passes.
    pub plane2d: f64,
    /// One frequency row-plane's (nx pencils) z FFT pass.
    pub planez: f64,
}

impl Charges {
    pub fn new(l: &Layout) -> Charges {
        let fx = 5.0 * l.nx as f64 * (l.nx as f64).log2();
        let fy = 5.0 * l.ny as f64 * (l.ny as f64).log2();
        let fz = 5.0 * l.nz as f64 * (l.nz as f64).log2();
        Charges {
            plane2d: l.ny as f64 * fx + l.nx as f64 * fy,
            planez: l.nx as f64 * fz,
        }
    }
}

/// Real per-rank data (Execute mode).
///
/// One grid buffer serves both layouts: it holds the spatial slab while the
/// rank is in space and the frequency slice while it is in frequency. Only
/// an exchange's unpack switches layouts, and every schedule unpacks after
/// its last pack has read the old layout: the UPC exchanges after every
/// put's `wait_sync` and the closing barrier (each pack runs inside its put
/// call), the hierarchical one after its all-to-all, which needs the whole
/// send staging packed first, and MPI after `alltoall`, whose blocks were
/// packed into owned buffers before the call. So the overwritten layout is
/// never read again, and a rank needs `grid` + `u0` (+ the exchange
/// buffer) instead of a slab and a slice side by side.
pub(crate) struct Data {
    /// Spatial slab (nzp × ny × nx) or frequency slice (nyp × nx × nz).
    pub grid: Vec<Complex>,
    /// Forward-transformed initial field (frequency layout).
    pub u0: Vec<Complex>,
    px: FftPlan,
    py: FftPlan,
    pz: FftPlan,
    /// `transform_lanes` scratch shared by the x, y and z passes:
    /// `max(nx, ny, nz)` elements of `LANES` split-complex lanes (16 KiB at
    /// class A).
    lanes: Vec<Lanes>,
}

pub(crate) fn init_data(g: &Grid, l: &Layout, me: usize) -> Data {
    let mut grid = vec![Complex::ZERO; l.chunk];
    for zl in 0..l.nzp {
        let z = me * l.nzp + zl;
        for y in 0..l.ny {
            for x in 0..l.nx {
                grid[l.s_idx(x, y, zl)] = g.initial(x, y, z);
            }
        }
    }
    Data {
        grid,
        u0: vec![Complex::ZERO; l.chunk],
        px: FftPlan::new(l.nx),
        py: FftPlan::new(l.ny),
        pz: FftPlan::new(l.nz),
        lanes: vec![Lanes::default(); l.nx.max(l.ny).max(l.nz)],
    }
}

/// x+y FFT passes over every spatial plane.
pub(crate) fn data_fft2d(d: &mut Data, l: &Layout, dir: Direction) {
    for plane in d.grid.chunks_exact_mut(l.nx * l.ny) {
        fft_plane(&d.px, &d.py, plane, dir, &mut d.lanes);
    }
}

/// z FFT pass over every frequency pencil (contiguous, z fastest).
pub(crate) fn data_fftz(d: &mut Data, l: &Layout, dir: Direction) {
    d.pz.transform_lanes(&mut d.grid, l.chunk / l.nz, l.nz, 1, dir, &mut d.lanes);
}

/// Frequency-space evolution at step `t`: `grid = u0 · factor`, with the
/// factors looked up in this step's [`Grid::evolve_table`].
pub(crate) fn data_evolve(d: &mut Data, l: &Layout, me: usize, t: usize) {
    let g = Grid {
        nx: l.nx,
        ny: l.ny,
        nz: l.nz,
    };
    let table = g.evolve_table(t);
    let kz2: Vec<usize> = (0..l.nz).map(|z| wrapped_sq(z, l.nz)).collect();
    let pencils = d.grid.chunks_exact_mut(l.nz).zip(d.u0.chunks_exact(l.nz));
    for (p, (out, u0)) in pencils.enumerate() {
        // Pencil p is (yl, x) = (p / nx, p % nx), z fastest.
        let kxy = wrapped_sq(p % l.nx, l.nx) + wrapped_sq(me * l.nyp + p / l.nx, l.ny);
        for ((o, u), k) in out.iter_mut().zip(u0).zip(&kz2) {
            *o = u.scale(table[kxy + k]);
        }
    }
}

/// Pack the forward-exchange block of spatial plane `zl` for `dest`.
pub(crate) fn pack_fwd_block(d: &Data, l: &Layout, zl: usize, dest: usize, words: &mut [u64]) {
    for yl in 0..l.nyp {
        for x in 0..l.nx {
            let v = d.grid[l.s_idx(x, dest * l.nyp + yl, zl)];
            let bi = l.fwd_slot_idx(0, yl, x);
            words[bi * 2] = v.re.to_bits();
            words[bi * 2 + 1] = v.im.to_bits();
        }
    }
}

/// Pack the inverse-exchange block of frequency plane `yl` for `dest`.
pub(crate) fn pack_inv_block(d: &Data, l: &Layout, yl: usize, dest: usize, words: &mut [u64]) {
    for x in 0..l.nx {
        for zl in 0..l.nzp {
            let v = d.grid[l.f_idx(yl, x, dest * l.nzp + zl)];
            let bi = l.inv_slot_idx(0, x, zl);
            words[bi * 2] = v.re.to_bits();
            words[bi * 2 + 1] = v.im.to_bits();
        }
    }
}

/// Rearrange received forward blocks (one full slot per source) into the
/// frequency layout. `slot(src)` yields that source's slot words.
pub(crate) fn unpack_forward_with<'a>(
    d: &mut Data,
    l: &Layout,
    mut slot: impl FnMut(usize) -> &'a [u64],
) {
    for src in 0..l.p {
        let s = slot(src);
        for zl in 0..l.nzp {
            let z = src * l.nzp + zl;
            for yl in 0..l.nyp {
                for x in 0..l.nx {
                    let bi = l.fwd_slot_idx(zl, yl, x);
                    d.grid[l.f_idx(yl, x, z)] =
                        Complex::new(f64::from_bits(s[bi * 2]), f64::from_bits(s[bi * 2 + 1]));
                }
            }
        }
    }
}

/// Rearrange received inverse blocks into the spatial layout.
pub(crate) fn unpack_inverse_with<'a>(
    d: &mut Data,
    l: &Layout,
    mut slot: impl FnMut(usize) -> &'a [u64],
) {
    for src in 0..l.p {
        let s = slot(src);
        for yl in 0..l.nyp {
            let y = src * l.nyp + yl;
            for x in 0..l.nx {
                for zl in 0..l.nzp {
                    let bi = l.inv_slot_idx(yl, x, zl);
                    d.grid[l.s_idx(x, y, zl)] =
                        Complex::new(f64::from_bits(s[bi * 2]), f64::from_bits(s[bi * 2 + 1]));
                }
            }
        }
    }
}

/// Sum this rank's checksum probes from the spatial slab.
pub(crate) fn checksum_local(d: &Data, l: &Layout, g: &Grid, me: usize) -> (f64, f64) {
    let (mut re, mut im) = (0.0, 0.0);
    for (x, y, z) in g.checksum_coords() {
        if z / l.nzp == me {
            let v = d.grid[l.s_idx(x, y, z % l.nzp)];
            re += v.re;
            im += v.im;
        }
    }
    (re, im)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::grid::FtClass;

    #[test]
    fn layout_partitions_exactly() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 16, iters: 1 }.grid();
        let l = Layout::new(g, 4);
        assert_eq!(l.nzp, 4);
        assert_eq!(l.nyp, 2);
        assert_eq!(l.chunk * l.p, g.total());
        assert_eq!(l.slot * l.p, l.chunk);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_rejected() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 }.grid();
        Layout::new(g, 3);
    }

    #[test]
    fn pack_unpack_round_trip() {
        // Through a full fake exchange: every (me→dest) forward block packed,
        // then unpacked at the destination, must reproduce s in f-layout
        // (without FFTs the values are just rearranged).
        let g = FtClass::Custom { nx: 4, ny: 4, nz: 4, iters: 1 }.grid();
        let p = 2;
        let l = Layout::new(g, p);
        let mut ranks: Vec<Data> = (0..p).map(|me| init_data(&g, &l, me)).collect();
        // slot storage: [dest][src] -> words
        let mut slots = vec![vec![vec![0u64; l.slot * 2]; p]; p];
        for me in 0..p {
            for dest in 0..p {
                for zl in 0..l.nzp {
                    let block = l.slot / l.nzp * 2;
                    let mut w = vec![0u64; block];
                    pack_fwd_block(&ranks[me], &l, zl, dest, &mut w);
                    slots[dest][me][zl * block..(zl + 1) * block].copy_from_slice(&w);
                }
            }
        }
        for me in 0..p {
            let sl = slots[me].clone();
            unpack_forward_with(&mut ranks[me], &l, |src| &sl[src][..]);
        }
        // f[yl, x, z] on rank me must equal the global initial at
        // (x, me*nyp+yl, z).
        for me in 0..p {
            for yl in 0..l.nyp {
                for x in 0..l.nx {
                    for z in 0..l.nz {
                        let want = g.initial(x, me * l.nyp + yl, z);
                        let got = ranks[me].grid[l.f_idx(yl, x, z)];
                        assert_eq!(got, want, "rank {me} ({x},{yl},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn charges_scale_with_dims() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 }.grid();
        let c8 = Charges::new(&Layout::new(g, 2));
        let g2 = FtClass::Custom { nx: 16, ny: 8, nz: 8, iters: 1 }.grid();
        let c16 = Charges::new(&Layout::new(g2, 2));
        assert!(c16.plane2d > c8.plane2d);
    }
}
