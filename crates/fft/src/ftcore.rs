//! Transport-independent FT machinery: decomposition arithmetic, real data
//! math, and the flop/byte charge constants — shared by the UPC and MPI
//! variants so their numerics are bit-identical.

use std::sync::Arc;

use hupc_sim::SimCell;

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
        assert!(g.nz.is_multiple_of(p), "threads ({p}) must divide nz ({})", g.nz);
        assert!(g.ny.is_multiple_of(p), "threads ({p}) must divide ny ({})", g.ny);
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

    /// Index inside an *inverse* exchange slot: `(yl_of_sender, zl, x)`,
    /// so each of a spatial plane's rows arrives whole.
    #[inline]
    pub fn inv_slot_idx(&self, yl: usize, zl: usize, x: usize) -> usize {
        x + self.nx * (zl + self.nzp * yl)
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

/// Real per-run data (Execute mode): what every rank reads but none owns,
/// built once by `run_ft_upc` / `run_ft_mpi` and shared through an `Arc`.
///
/// At class A on 16 ranks this is one 1 MiB spatial plane, one 0.28 MiB
/// evolve table and 16 KiB of lanes per run, where each rank used to hold
/// its own copy (≈ 20 MiB in all).
pub(crate) struct RunData {
    /// The global grid, whose evolve table each step looks up.
    g: Grid,
    l: Layout,
    /// `|kz|²` per z (the evolve table index's z part).
    kz2: Vec<usize>,
    px: FftPlan,
    py: FftPlan,
    pz: FftPlan,
    /// The evolve factors of the step the ranks are in.
    evolve: SimCell<Evolve>,
    /// Host scratch of the passes that never yield (`forward_fft2d`,
    /// `forward_fftz`, `freq_plane`'s z pass and `finish_inverse_with`):
    /// actors run one at a time, so a borrow that ends before the pass
    /// returns is never contended, and one held across a yield would panic
    /// in `SimCell` rather than alias.
    scratch: SimCell<Scratch>,
}

/// Step `t`'s evolve factors, indexed by `|k̄|²` ([`Grid::evolve_table`]).
/// The first rank to begin step `t` computes them. Every rank packs all of
/// step `t`'s planes before it leaves step `t`'s exchange (a barrier or an
/// all-to-all), so no rank still needs step `t - 1`'s table by then.
struct Evolve {
    t: usize,
    table: Vec<f64>,
}

struct Scratch {
    /// One spatial plane (ny × nx) of the inverse unpack.
    plane: Vec<Complex>,
    /// `transform_lanes` scratch shared by the x, y and z passes:
    /// `max(nx, ny, nz)` elements of `LANES` split-complex lanes (16 KiB at
    /// class A).
    lanes: Vec<Lanes>,
}

impl RunData {
    pub fn new(g: Grid, l: Layout) -> RunData {
        RunData {
            g,
            l,
            kz2: (0..l.nz).map(|z| wrapped_sq(z, l.nz)).collect(),
            px: FftPlan::new(l.nx),
            py: FftPlan::new(l.ny),
            pz: FftPlan::new(l.nz),
            evolve: SimCell::new(Evolve { t: 0, table: Vec::new() }),
            scratch: SimCell::new(Scratch {
                plane: vec![Complex::ZERO; l.nx * l.ny],
                lanes: vec![Lanes::default(); l.nx.max(l.ny).max(l.nz)],
            }),
        }
    }
}

/// Real per-rank data (Execute mode): `u0`, the live frequency planes and
/// the checksum probes. Everything else a rank reads is in its [`RunData`].
///
/// `u0` is the rank's only chunk-sized buffer. Through the forward 3-D FFT it
/// holds the spatial slab: the x/y passes transform it in place and the
/// forward exchange packs from it. The unpack then overwrites it with the
/// frequency slice, which is safe because every schedule unpacks after its
/// last pack has read the slab: the UPC exchanges after every put's
/// `wait_sync` and the closing barrier (each pack runs inside its put call),
/// the hierarchical one after its all-to-all, which needs the whole send
/// staging packed first, and MPI after `alltoall`, whose blocks were packed
/// into owned buffers before the call. After the z pass `u0` is the
/// forward-transformed field, which every iteration only reads.
///
/// The inverse 3-D FFT never holds a grid. Each frequency plane is evolved
/// from `u0` and z-transformed at its first pack and freed after its p-th
/// (see [`FreqPlanes`]), and the receive side unpacks, x/y-transforms and
/// probes one spatial plane at a time in the run's scratch plane (see
/// [`finish_inverse_with`]). So a rank holds `u0` (8 MiB at class A on 16
/// ranks, + its share of the exchange buffer) and its live frequency planes
/// (0.5 MiB each) instead of a second grid.
pub(crate) struct Data {
    /// The run this rank belongs to.
    run: Arc<RunData>,
    /// Spatial slab (nzp × ny × nx) until the forward exchange's unpack,
    /// then the forward-transformed field (frequency layout, nyp × nx × nz).
    u0: Vec<Complex>,
    /// The inverse exchange's frequency planes.
    freq: FreqPlanes,
    /// This rank's checksum probes in [`Grid::checksum_coords`] order: the
    /// local z-plane and the index inside it.
    probes: Vec<(usize, usize)>,
    /// This rank, whose frequency rows are `me·nyp ..`.
    me: usize,
}

/// The inverse exchange's frequency planes: plane `yl` holds the nx pencils
/// (z fastest) of `u0`'s frequency row `yl`, evolved to this step and
/// inverse z-transformed. A plane is computed at its first pack and freed
/// after its p-th (one per destination), its buffer kept for the next
/// plane. So a plane-major pack order (every destination's block of one
/// plane, then the next plane) holds one plane, and a destination-major
/// order up to `nyp`, as many as the whole frequency slice. The planes stay
/// per rank: under overlap every rank holds one at once.
struct FreqPlanes {
    /// The step these planes are evolved to.
    t: usize,
    /// Plane `yl` from its first pack to its p-th.
    live: Vec<Option<Vec<Complex>>>,
    /// Packs served by each live plane.
    packs: Vec<usize>,
    /// Buffers of freed planes.
    spare: Vec<Vec<Complex>>,
}

pub(crate) fn init_data(run: &Arc<RunData>, me: usize) -> Data {
    let (g, l) = (&run.g, &run.l);
    let mut u0 = vec![Complex::ZERO; l.chunk];
    for zl in 0..l.nzp {
        let z = me * l.nzp + zl;
        for y in 0..l.ny {
            for x in 0..l.nx {
                u0[l.s_idx(x, y, zl)] = g.initial(x, y, z);
            }
        }
    }
    let probes = g
        .checksum_coords()
        .filter(|&(_, _, z)| z / l.nzp == me)
        .map(|(x, y, z)| (z % l.nzp, x + l.nx * y))
        .collect();
    Data {
        run: Arc::clone(run),
        u0,
        freq: FreqPlanes {
            t: 0,
            live: (0..l.nyp).map(|_| None).collect(),
            packs: vec![0; l.nyp],
            spare: Vec::new(),
        },
        probes,
        me,
    }
}

/// Forward x+y FFT passes over every plane of the spatial slab.
pub(crate) fn forward_fft2d(d: &mut Data) {
    let run = &*d.run;
    run.scratch.with_mut(|s| {
        for plane in d.u0.chunks_exact_mut(run.l.nx * run.l.ny) {
            fft_plane(&run.px, &run.py, plane, Direction::Forward, &mut s.lanes);
        }
    });
}

/// Forward z FFT pass over every frequency pencil (contiguous, z fastest).
pub(crate) fn forward_fftz(d: &mut Data) {
    let run = &*d.run;
    let (l, u0) = (&run.l, &mut d.u0);
    let pencils = l.chunk / l.nz;
    run.scratch.with_mut(|s| {
        run.pz.transform_lanes(u0, pencils, l.nz, 1, Direction::Forward, &mut s.lanes)
    });
}

/// Start inverse step `t`: make this step's evolve factors the run's (the
/// first rank here computes them). Every plane of the previous step was
/// freed by its last pack.
pub(crate) fn begin_inverse(d: &mut Data, t: usize) {
    debug_assert!(d.freq.live.iter().all(Option::is_none), "a plane outlived its packs");
    d.freq.t = t;
    let run = &*d.run;
    run.evolve.with_mut(|e| {
        if e.t != t {
            e.table = run.g.evolve_table(t);
            e.t = t;
        }
    });
}

/// Frequency plane `yl` of this step: `u0 · factor` over its nx pencils,
/// then the inverse z pass.
fn freq_plane(d: &mut Data, yl: usize) -> Vec<Complex> {
    let run = &*d.run;
    let l = &run.l;
    let n = l.nx * l.nz;
    let mut plane = d.freq.spare.pop().unwrap_or_else(|| vec![Complex::ZERO; n]);
    let u0 = &d.u0[yl * n..(yl + 1) * n];
    let ky2 = wrapped_sq(d.me * l.nyp + yl, l.ny);
    run.evolve.with(|e| {
        assert_eq!(e.t, d.freq.t, "a rank packed step {} under step {}'s table", d.freq.t, e.t);
        let pencils = plane.chunks_exact_mut(l.nz).zip(u0.chunks_exact(l.nz));
        for (x, (out, u0)) in pencils.enumerate() {
            let kxy = wrapped_sq(x, l.nx) + ky2;
            for ((o, u), k) in out.iter_mut().zip(u0).zip(&run.kz2) {
                *o = u.scale(e.table[kxy + k]);
            }
        }
    });
    run.scratch.with_mut(|s| {
        run.pz.transform_lanes(&mut plane, l.nx, l.nz, 1, Direction::Inverse, &mut s.lanes)
    });
    plane
}

/// Pack the forward-exchange block of spatial plane `zl` for `dest`.
pub(crate) fn pack_fwd_block(d: &Data, zl: usize, dest: usize, words: &mut [u64]) {
    let l = &d.run.l;
    for yl in 0..l.nyp {
        for x in 0..l.nx {
            let v = d.u0[l.s_idx(x, dest * l.nyp + yl, zl)];
            let bi = l.fwd_slot_idx(0, yl, x);
            words[bi * 2] = v.re.to_bits();
            words[bi * 2 + 1] = v.im.to_bits();
        }
    }
}

/// Pack the inverse-exchange block of frequency plane `yl` for `dest`,
/// computing the plane at its first pack and freeing it after its p-th.
pub(crate) fn pack_inv_block(d: &mut Data, yl: usize, dest: usize, words: &mut [u64]) {
    let plane = match d.freq.live[yl].take() {
        Some(plane) => plane,
        None => freq_plane(d, yl),
    };
    pack_inv_plane(&plane, &d.run.l, dest, words);
    d.freq.packs[yl] += 1;
    if d.freq.packs[yl] == d.run.l.p {
        d.freq.packs[yl] = 0;
        d.freq.spare.push(plane);
    } else {
        d.freq.live[yl] = Some(plane);
    }
}

/// `dest`'s block of a frequency plane (nx pencils of nz, z fastest): its
/// `nzp` z-planes, each a row of nx, written row by row.
fn pack_inv_plane(plane: &[Complex], l: &Layout, dest: usize, words: &mut [u64]) {
    for zl in 0..l.nzp {
        let z = dest * l.nzp + zl;
        for x in 0..l.nx {
            let v = plane[z + l.nz * x];
            let bi = l.inv_slot_idx(0, zl, x);
            words[bi * 2] = v.re.to_bits();
            words[bi * 2 + 1] = v.im.to_bits();
        }
    }
}

/// Rearrange received forward blocks (one full slot per source) into the
/// frequency layout. `slot(src)` yields that source's slot words.
pub(crate) fn unpack_forward_with<'a>(d: &mut Data, mut slot: impl FnMut(usize) -> &'a [u64]) {
    let l = &d.run.l;
    for src in 0..l.p {
        let s = slot(src);
        for zl in 0..l.nzp {
            let z = src * l.nzp + zl;
            for yl in 0..l.nyp {
                for x in 0..l.nx {
                    let bi = l.fwd_slot_idx(zl, yl, x);
                    d.u0[l.f_idx(yl, x, z)] =
                        Complex::new(f64::from_bits(s[bi * 2]), f64::from_bits(s[bi * 2 + 1]));
                }
            }
        }
    }
}

/// Finish the inverse 3-D FFT from the received inverse blocks (one full
/// slot per source, `slot(src)` its words), one spatial plane at a time:
/// unpack the plane's rows into the run's scratch plane, run the inverse
/// x/y passes and record the checksum probes on it. Returns this rank's
/// probe sum, added in [`Grid::checksum_coords`] order. `slot` must not
/// yield: it runs while the scratch is borrowed.
pub(crate) fn finish_inverse_with<'a>(
    d: &mut Data,
    mut slot: impl FnMut(usize) -> &'a [u64],
) -> (f64, f64) {
    let run = &*d.run;
    let l = &run.l;
    let mut probed = vec![Complex::ZERO; d.probes.len()];
    run.scratch.with_mut(|s| {
        for zl in 0..l.nzp {
            for src in 0..l.p {
                unpack_inv_rows(&mut s.plane, l, zl, src, slot(src));
            }
            fft_plane(&run.px, &run.py, &mut s.plane, Direction::Inverse, &mut s.lanes);
            for (v, &(pz, i)) in probed.iter_mut().zip(&d.probes) {
                if pz == zl {
                    *v = s.plane[i];
                }
            }
        }
    });
    probed.iter().fold((0.0, 0.0), |(re, im), v| (re + v.re, im + v.im))
}

/// Copy spatial plane `zl`'s rows held by source `src` (its `nyp` y-rows)
/// out of that source's inverse slot `s` into `plane` (ny × nx).
fn unpack_inv_rows(plane: &mut [Complex], l: &Layout, zl: usize, src: usize, s: &[u64]) {
    for yl in 0..l.nyp {
        let bi = l.inv_slot_idx(yl, zl, 0);
        let row = &s[bi * 2..(bi + l.nx) * 2];
        let y = src * l.nyp + yl;
        for (v, w) in plane[l.nx * y..l.nx * (y + 1)].iter_mut().zip(row.chunks_exact(2)) {
            *v = Complex::new(f64::from_bits(w[0]), f64::from_bits(w[1]));
        }
    }
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
        let run = Arc::new(RunData::new(g, l));
        let mut ranks: Vec<Data> = (0..p).map(|me| init_data(&run, me)).collect();
        // slot storage: [dest][src] -> words
        let mut slots = vec![vec![vec![0u64; l.slot * 2]; p]; p];
        for me in 0..p {
            for dest in 0..p {
                for zl in 0..l.nzp {
                    let block = l.slot / l.nzp * 2;
                    let mut w = vec![0u64; block];
                    pack_fwd_block(&ranks[me], zl, dest, &mut w);
                    slots[dest][me][zl * block..(zl + 1) * block].copy_from_slice(&w);
                }
            }
        }
        for me in 0..p {
            let sl = slots[me].clone();
            unpack_forward_with(&mut ranks[me], |src| &sl[src][..]);
        }
        // f[yl, x, z] on rank me must equal the global initial at
        // (x, me*nyp+yl, z).
        for me in 0..p {
            for yl in 0..l.nyp {
                for x in 0..l.nx {
                    for z in 0..l.nz {
                        let want = g.initial(x, me * l.nyp + yl, z);
                        let got = ranks[me].u0[l.f_idx(yl, x, z)];
                        assert_eq!(got, want, "rank {me} ({x},{yl},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_pack_unpack_round_trip() {
        // Every (src→dest) block of every frequency plane packed in the
        // (yl, zl, x) slot layout, then every spatial plane unpacked row by
        // row at the destination, must reproduce the frequency planes in
        // spatial layout (without FFTs the values are just rearranged).
        let g = FtClass::Custom { nx: 8, ny: 4, nz: 8, iters: 1 }.grid();
        let p = 2;
        let l = Layout::new(g, p);
        let block = l.slot / l.nyp * 2;
        // Frequency plane yl of rank src holds global row y = src·nyp + yl.
        let freq = |src: usize, yl: usize| -> Vec<Complex> {
            let y = src * l.nyp + yl;
            (0..l.nx * l.nz).map(|i| g.initial(i / l.nz, y, i % l.nz)).collect()
        };
        let mut slots = vec![vec![vec![0u64; l.slot * 2]; p]; p];
        for src in 0..p {
            for yl in 0..l.nyp {
                let plane = freq(src, yl);
                for (dest, slot) in slots.iter_mut().enumerate() {
                    let w = &mut slot[src][yl * block..(yl + 1) * block];
                    pack_inv_plane(&plane, &l, dest, w);
                }
            }
        }
        for (me, slot) in slots.iter().enumerate() {
            for zl in 0..l.nzp {
                let mut plane = vec![Complex::ZERO; l.nx * l.ny];
                for (src, s) in slot.iter().enumerate() {
                    unpack_inv_rows(&mut plane, &l, zl, src, s);
                }
                let z = me * l.nzp + zl;
                for y in 0..l.ny {
                    for x in 0..l.nx {
                        let want = g.initial(x, y, z);
                        assert_eq!(plane[x + l.nx * y], want, "rank {me} ({x},{y},{zl})");
                    }
                }
            }
        }
    }

    /// Plane buffers a rank holds: live planes plus freed, kept buffers.
    fn held(d: &Data) -> usize {
        d.freq.live.iter().flatten().count() + d.freq.spare.len()
    }

    /// Pack every inverse block of two steps in `order` (a list of
    /// `(yl, dest)`), checking after each pack that a plane is freed exactly
    /// at its p-th pack and that at most `bound` planes are held. Returns
    /// each step's packed blocks by `(yl, dest)`.
    fn pack_in_order(order: &[(usize, usize)], bound: usize) -> Vec<Vec<Vec<u64>>> {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 16, iters: 2 }.grid();
        let l = Layout::new(g, 4);
        assert_eq!(l.nyp, 2);
        let block = l.slot / l.nyp * 2;
        let mut d = init_data(&Arc::new(RunData::new(g, l)), 1);
        let mut steps = Vec::new();
        for t in 1..=2 {
            begin_inverse(&mut d, t);
            let mut packs = vec![0; l.nyp];
            let mut blocks = vec![Vec::new(); l.nyp * l.p];
            for &(yl, dest) in order {
                let mut w = vec![0u64; block];
                pack_inv_block(&mut d, yl, dest, &mut w);
                blocks[yl * l.p + dest] = w;
                packs[yl] += 1;
                let live = d.freq.live[yl].is_some();
                assert_eq!(live, packs[yl] < l.p, "step {t}: plane {yl} after {} packs", packs[yl]);
                assert!(held(&d) <= bound, "step {t}: {} planes held", held(&d));
            }
            assert!(d.freq.live.iter().all(Option::is_none), "step {t}");
            steps.push(blocks);
        }
        steps
    }

    #[test]
    fn plane_major_packs_hold_one_plane() {
        let (nyp, p) = (2, 4);
        let order: Vec<_> = (0..nyp).flat_map(|yl| (0..p).map(move |dest| (yl, dest))).collect();
        pack_in_order(&order, 1);
    }

    #[test]
    fn destination_major_packs_hold_at_most_nyp_planes() {
        let (nyp, p) = (2, 4);
        let dest_major: Vec<_> =
            (0..p).flat_map(|dest| (0..nyp).map(move |yl| (yl, dest))).collect();
        let plane_major: Vec<_> =
            (0..nyp).flat_map(|yl| (0..p).map(move |dest| (yl, dest))).collect();
        let blocks = pack_in_order(&dest_major, nyp);
        // A reused buffer computes the same bits as a fresh one.
        assert_eq!(blocks, pack_in_order(&plane_major, 1));
        assert_ne!(blocks[0], blocks[1], "the field evolves between steps");
    }

    #[test]
    #[should_panic(expected = "a rank packed step 1 under step 2's table")]
    fn packing_under_another_steps_table_panics() {
        let g = FtClass::Custom { nx: 8, ny: 8, nz: 16, iters: 2 }.grid();
        let l = Layout::new(g, 4);
        let run = Arc::new(RunData::new(g, l));
        let (mut a, mut b) = (init_data(&run, 0), init_data(&run, 1));
        let mut w = vec![0u64; l.slot / l.nyp * 2];
        begin_inverse(&mut a, 1);
        begin_inverse(&mut b, 1);
        pack_inv_block(&mut a, 0, 0, &mut w);
        begin_inverse(&mut b, 2);
        pack_inv_block(&mut a, 1, 0, &mut w);
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
