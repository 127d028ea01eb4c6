//! The MPI baseline FT: identical numerics, two-sided pairwise-exchange
//! all-to-all (the Fortran-MPI comparator of thesis Figs 4.5/4.6).

use std::sync::Arc;

use hupc_mpi::{Mpi, MpiJob};
use hupc_sim::{time, SimCell, Time};
use hupc_upc::GasnetConfig;

use crate::ftcore::{
    begin_inverse, finish_inverse_with, forward_fft2d, forward_fftz, init_data, pack_fwd_block,
    pack_inv_block, unpack_forward_with, Charges, Data, Layout, RunData, FFT_EFF, PACK_BW,
};
use crate::upc_ft::{ComputeMode, FtConfig, FtResult};

/// Run the FT benchmark on the MPI substrate. `cfg.exchange`,
/// `cfg.backend`, `cfg.subthreads`, `cfg.bind` and `cfg.overheads` are
/// ignored: MPI runs one process per core, packed, over OpenMPI's
/// shared-memory transport with the runtime's default software overheads,
/// and the library's collective is split-phase by construction.
/// `cfg.fault` applies to the network as it does for `run_ft_upc`.
pub fn run_ft_mpi(cfg: FtConfig) -> FtResult {
    let g = cfg.class.grid();
    let l = Layout::new(g, cfg.threads);
    let charges = Charges::new(&l);
    let iters = cfg.iters();
    let mode = cfg.mode;

    let job = MpiJob::new(GasnetConfig {
        machine: cfg.machine.clone(),
        n_threads: cfg.threads,
        nodes_used: cfg.nodes_used,
        bind: hupc_upc::BindPolicy::PackedCores,
        // OpenMPI's `sm` BTL: shared-memory transport between co-located ranks.
        backend: hupc_upc::Backend::processes_pshm(),
        conduit: cfg.conduit.clone(),
        segment_words: 1 << 10,
        overheads: None,
        fault: cfg.fault.clone(),
        retry: Default::default(),
        barrier_timeout: None,
    });

    let run = match mode {
        ComputeMode::Execute => Some(Arc::new(RunData::new(g, l))),
        ComputeMode::Model => None,
    };
    let out: Arc<SimCell<FtResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);

    job.run(move |mpi| {
        let me = mpi.rank();
        let mut data = run.as_ref().map(|run| init_data(run, me));
        let mut comm: Time = 0;
        let mut fft2d: Time = 0;
        let mut fft1d: Time = 0;
        let mut transpose: Time = 0;
        let mut evolve_t: Time = 0;
        let mut checksums: Vec<(f64, f64)> = Vec::new();

        mpi.barrier();
        let t0 = mpi.now();

        // Forward 3-D FFT, all in u0.
        fft2d += timed(&mpi, |m| {
            if let Some(d) = data.as_mut() {
                forward_fft2d(d);
            }
            charge_flops(m, l.nzp as f64 * charges.plane2d);
        });
        transpose += timed(&mpi, |m| charge_sweep(m, l.chunk as f64 * 32.0)); // pack
        comm += timed(&mpi, |m| {
            exchange(m, &l, data.as_mut(), true, mode);
        });
        transpose += timed(&mpi, |m| charge_sweep(m, l.chunk as f64 * 32.0)); // unpack
        fft1d += timed(&mpi, |m| {
            if let Some(d) = data.as_mut() {
                forward_fftz(d);
            }
            charge_flops(m, l.nyp as f64 * charges.planez);
        });

        // The inverse phases are charged in phase order, but the evolve and
        // the z pass run per frequency plane inside the exchange's packs,
        // and the x/y passes per spatial plane inside its unpack.
        for t in 1..=iters {
            evolve_t += timed(&mpi, |m| {
                if let Some(d) = data.as_mut() {
                    begin_inverse(d, t);
                }
                charge_sweep(m, l.chunk as f64 * 32.0);
            });
            fft1d += timed(&mpi, |m| charge_flops(m, l.nyp as f64 * charges.planez));
            transpose += timed(&mpi, |m| charge_sweep(m, l.chunk as f64 * 32.0)); // pack
            let mut sums = (0.0, 0.0);
            comm += timed(&mpi, |m| sums = exchange(m, &l, data.as_mut(), false, mode));
            transpose += timed(&mpi, |m| charge_sweep(m, l.chunk as f64 * 32.0)); // unpack
            fft2d += timed(&mpi, |m| charge_flops(m, l.nzp as f64 * charges.plane2d));
            checksums.push((mpi.allreduce_sum_f64(sums.0), mpi.allreduce_sum_f64(sums.1)));
        }
        let total = mpi.now() - t0;

        // Aggregate maxima via scalar reductions.
        let maxes: Vec<u64> = [total, comm, fft2d, fft1d, transpose, evolve_t]
            .into_iter()
            .map(|v| reduce_max(&mpi, v))
            .collect();
        if me == 0 {
            let secs = time::as_secs_f64(maxes[0]);
            let one_fft = 5.0 * g.total() as f64 * (g.total() as f64).log2();
            out2.with_mut(|r| {
                *r = FtResult {
                    total_seconds: secs,
                    comm_seconds: time::as_secs_f64(maxes[1]),
                    fft2d_seconds: time::as_secs_f64(maxes[2]),
                    fft1d_seconds: time::as_secs_f64(maxes[3]),
                    transpose_seconds: time::as_secs_f64(maxes[4]),
                    evolve_seconds: time::as_secs_f64(maxes[5]),
                    checksums: if mode == ComputeMode::Execute {
                        checksums.clone()
                    } else {
                        Vec::new()
                    },
                    gflops: one_fft * (iters + 1) as f64 / secs / 1e9,
                }
            });
        }
    });
    Arc::try_unwrap(out).expect("result still shared").into_inner()
}

fn timed(mpi: &Mpi<'_>, f: impl FnOnce(&Mpi<'_>)) -> Time {
    let t0 = mpi.now();
    f(mpi);
    mpi.now() - t0
}

fn charge_flops(mpi: &Mpi<'_>, flops: f64) {
    let gn = Arc::clone(mpi.gasnet());
    let pu = gn.thread_pu(mpi.rank());
    gn.compute_flops_on(mpi.ctx(), pu, flops, FFT_EFF);
}

fn charge_sweep(mpi: &Mpi<'_>, bytes: f64) {
    let gn = Arc::clone(mpi.gasnet());
    let pu = gn.thread_pu(mpi.rank());
    gn.compute_on(mpi.ctx(), pu, time::from_secs_f64(bytes / PACK_BW));
}

/// max-reduce one u64 via the f64 allreduce (exact below 2⁵³ ns ≈ 104 days).
fn reduce_max(mpi: &Mpi<'_>, v: Time) -> Time {
    let p = mpi.size();
    if p == 1 {
        return v;
    }
    // gather to 0 with tags, max, broadcast
    if mpi.rank() == 0 {
        let mut acc = v;
        for src in 1..p {
            let d = mpi.recv(src, u64::MAX - 2);
            acc = acc.max(d[0]);
        }
        for dst in 1..p {
            mpi.send(dst, u64::MAX - 3, &[acc]);
        }
        acc
    } else {
        mpi.send(0, u64::MAX - 2, &[v]);
        mpi.recv(0, u64::MAX - 3)[0]
    }
}

/// The all-to-all: pack per-destination slots plane-major, collective
/// exchange, unpack. The inverse unpack also runs the inverse x/y passes and
/// returns this rank's checksum probe sum.
fn exchange(
    mpi: &Mpi<'_>,
    l: &Layout,
    data: Option<&mut Data>,
    forward: bool,
    mode: ComputeMode,
) -> (f64, f64) {
    let p = l.p;
    match (mode, data) {
        (ComputeMode::Model, _) | (_, None) => {
            mpi.alltoall_sized(l.slot * 16);
            (0.0, 0.0)
        }
        (ComputeMode::Execute, Some(d)) => {
            let planes = if forward { l.nzp } else { l.nyp };
            let block_words = l.slot / planes * 2;
            let mut blocks = vec![vec![0u64; l.slot * 2]; p];
            for pl in 0..planes {
                for (dest, slot) in blocks.iter_mut().enumerate() {
                    let w = &mut slot[pl * block_words..(pl + 1) * block_words];
                    if forward {
                        pack_fwd_block(d, pl, dest, w);
                    } else {
                        pack_inv_block(d, pl, dest, w);
                    }
                }
            }
            let received = mpi.alltoall(&blocks);
            if forward {
                unpack_forward_with(d, |src| &received[src][..]);
                (0.0, 0.0)
            } else {
                finish_inverse_with(d, |src| &received[src][..])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{seq_checksums, FtClass};

    #[test]
    fn mpi_matches_sequential_reference() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 16, iters: 2 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(8, 8, 16, 2, 4, 2);
        cfg.class = class;
        let r = run_ft_mpi(cfg);
        assert_eq!(r.checksums.len(), want.len());
        for ((re, im), c) in r.checksums.iter().zip(&want) {
            let scale = c.re.abs().max(1.0);
            assert!((re - c.re).abs() / scale < 1e-9);
            assert!((im - c.im).abs() / scale < 1e-9);
        }
    }

    #[test]
    fn mpi_matches_upc_checksums() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 2 };
        let mut cfg = FtConfig::test_custom(8, 8, 8, 2, 2, 2);
        cfg.class = class;
        let upc = crate::upc_ft::run_ft_upc(cfg.clone());
        let mpi = run_ft_mpi(cfg);
        for ((a, b), (c, d)) in upc.checksums.iter().zip(&mpi.checksums) {
            assert!((a - c).abs() < 1e-9 && (b - d).abs() < 1e-9);
        }
    }

    #[test]
    fn mpi_model_mode_runs_without_data() {
        let mut cfg = FtConfig::test_custom(16, 16, 16, 2, 4, 2);
        cfg.mode = ComputeMode::Model;
        let r = run_ft_mpi(cfg);
        assert!(r.checksums.is_empty());
        assert!(r.total_seconds > 0.0 && r.comm_seconds > 0.0);
    }

    #[test]
    fn single_rank_degenerates_cleanly() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(8, 8, 8, 1, 1, 1);
        cfg.class = class;
        let r = run_ft_mpi(cfg);
        assert!((r.checksums[0].0 - want[0].re).abs() < 1e-9);
    }
}
