//! Distributed NAS FT over the UPC runtime: 1-D slab decomposition,
//! split-phase and overlapped exchanges, pure and hierarchical execution.

use std::sync::Arc;

use hupc_sim::{time, SimCell, Time};
use hupc_subthreads::{SubPool, SubthreadModel};
use hupc_topo::{BindPolicy, MachineSpec};
use hupc_upc::{
    Backend, Conduit, GasnetConfig, Handle, SharedArray, ThreadSafety, Upc, UpcConfig, UpcJob,
};

use crate::ftcore::{
    begin_inverse, finish_inverse_with, forward_fft2d, forward_fftz, init_data, pack_fwd_block,
    pack_inv_block, unpack_forward_with, Charges, Data, Layout, RunData, FFT_EFF, PACK_BW,
};
use crate::grid::FtClass;

/// Exchange schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    /// Compute everything, then exchange with synchronous `upc_memput`
    /// calls, one at a time (the Fig 3.4(a) blocking pattern).
    SplitPhaseBlocking,
    /// Compute everything, then issue all `bupc_memput_async` puts and
    /// drain (the bulk-synchronous pattern the thesis calls split-phase).
    SplitPhase,
    /// Issue non-blocking puts per plane as soon as it is computed
    /// (Bell et al.'s overlap algorithm, thesis §4.3.3.1).
    Overlap,
    /// Stage every per-destination slot locally and hand the whole
    /// transpose to the hierarchical collective layer: intra-node slots
    /// move over shared memory, remote slots are coalesced into one
    /// message per destination *node* (`hupc-coll` all-to-all).
    Hierarchical,
}

impl ExchangeKind {
    pub fn name(&self) -> &'static str {
        match self {
            ExchangeKind::SplitPhaseBlocking => "split-phase (blocking)",
            ExchangeKind::SplitPhase => "split-phase",
            ExchangeKind::Overlap => "overlap",
            ExchangeKind::Hierarchical => "hierarchical (coalesced)",
        }
    }
}

/// Whether to run the real butterflies or only charge their time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputeMode {
    /// Real data, real FFTs, verified checksums.
    Execute,
    /// Cost-only: identical virtual-time charges, no arrays (class B fits
    /// in laptop memory this way).
    Model,
}

/// Hierarchical execution: sub-threads per UPC thread.
#[derive(Clone, Copy, Debug)]
pub struct SubthreadSpec {
    pub n: usize,
    pub model: SubthreadModel,
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct FtConfig {
    pub class: FtClass,
    pub machine: MachineSpec,
    pub threads: usize,
    pub nodes_used: usize,
    pub conduit: Conduit,
    pub backend: Backend,
    pub bind: BindPolicy,
    pub exchange: ExchangeKind,
    pub subthreads: Option<SubthreadSpec>,
    pub mode: ComputeMode,
    /// Override the class' iteration count (shorter figure runs).
    pub iters_override: Option<usize>,
    /// Override the runtime software-overhead constants (the Fig 3.4
    /// "+cast" manual optimization zeroes the intra-node per-call costs).
    pub overheads: Option<hupc_upc::Overheads>,
    /// Optional deterministic fault plan applied to the network.
    pub fault: Option<hupc_upc::FaultPlan>,
}

impl FtConfig {
    /// Small executable config for tests.
    pub fn test_custom(
        nx: usize,
        ny: usize,
        nz: usize,
        iters: usize,
        threads: usize,
        nodes: usize,
    ) -> Self {
        FtConfig {
            class: FtClass::Custom { nx, ny, nz, iters },
            machine: MachineSpec::small_test(nodes),
            threads,
            nodes_used: nodes,
            conduit: Conduit::ib_qdr(),
            backend: Backend::processes_pshm(),
            bind: BindPolicy::PackedCores,
            exchange: ExchangeKind::SplitPhase,
            subthreads: None,
            mode: ComputeMode::Execute,
            iters_override: None,
            overheads: None,
            fault: None,
        }
    }

    pub(crate) fn iters(&self) -> usize {
        self.iters_override.unwrap_or_else(|| self.class.iters())
    }
}

/// Per-phase virtual time and results.
#[derive(Clone, Debug, Default)]
pub struct FtResult {
    pub total_seconds: f64,
    /// All-to-all exchange time, including waits and the closing barrier.
    pub comm_seconds: f64,
    /// Local 2-D FFT time (x+y passes).
    pub fft2d_seconds: f64,
    /// Third-dimension FFT time.
    pub fft1d_seconds: f64,
    /// Pack/unpack (local transpose) time.
    pub transpose_seconds: f64,
    pub evolve_seconds: f64,
    /// Per-iteration checksums (empty in `Model` mode).
    pub checksums: Vec<(f64, f64)>,
    /// Modeled Gflop/s over the whole run.
    pub gflops: f64,
}

#[derive(Default, Clone, Copy)]
pub(crate) struct Phases {
    pub fft2d: Time,
    pub fft1d: Time,
    pub transpose: Time,
    pub evolve: Time,
    pub comm: Time,
}

/// Run one FT experiment on the UPC runtime.
pub fn run_ft_upc(cfg: FtConfig) -> FtResult {
    let g = cfg.class.grid();
    let l = Layout::new(g, cfg.threads);
    let charges = Charges::new(&l);
    let iters = cfg.iters();

    let hier = cfg.exchange == ExchangeKind::Hierarchical;
    let slot_words = l.slot * 2;
    let chunk_words = l.chunk * 2;
    // The coalesced exchange needs room for the send staging plus the
    // per-node leader staging on top of the recv slots and the collective
    // scratch; the other schedules keep the seed's segment size.
    let segment_words = if hier && cfg.mode == ComputeMode::Execute {
        let node_size = cfg.threads / cfg.nodes_used.max(1);
        (hupc_upc::SCRATCH_WORDS + 2 * chunk_words + l.p * node_size * slot_words + 256)
            .next_power_of_two()
            .max(1 << 10)
    } else {
        1 << 10
    };

    let job = UpcJob::new(UpcConfig {
        gasnet: GasnetConfig {
            machine: cfg.machine.clone(),
            n_threads: cfg.threads,
            nodes_used: cfg.nodes_used,
            bind: cfg.bind,
            backend: cfg.backend,
            conduit: cfg.conduit.clone(),
            segment_words,
            overheads: cfg.overheads,
            fault: cfg.fault.clone(),
            retry: Default::default(),
            barrier_timeout: None,
        },
        safety: ThreadSafety::Multiple,
    });
    // The exchange buffer is the only PGAS-resident array: per-thread, one
    // slot per peer. Model mode allocates nothing.
    let recv: Option<SharedArray<[f64; 2]>> = match cfg.mode {
        ComputeMode::Execute => Some(job.alloc_shared::<[f64; 2]>(l.chunk * l.p, l.chunk)),
        ComputeMode::Model => None,
    };
    // The hierarchical schedule packs into a PGAS send staging first, then
    // lets the collective layer coalesce it per destination node.
    let send: Option<SharedArray<[f64; 2]>> = match (cfg.mode, hier) {
        (ComputeMode::Execute, true) => Some(job.alloc_shared::<[f64; 2]>(l.chunk * l.p, l.chunk)),
        _ => None,
    };
    // Checksum/stat reductions (and the coalesced exchange when selected)
    // route through the hierarchical collective layer.
    let mut domain = hupc_coll::CollDomain::for_job(&job, hupc_coll::CollPlan::Auto);
    if hier && cfg.mode == ComputeMode::Execute {
        domain = domain.reserve_exchange(&job, slot_words);
    }
    domain.install(&job);

    // What every rank reads but none owns (grid, plans, evolve table,
    // scratch) is built once per run; Model mode builds nothing.
    let run = match cfg.mode {
        ComputeMode::Execute => Some(Arc::new(RunData::new(g, l))),
        ComputeMode::Model => None,
    };
    let out: Arc<SimCell<FtResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);
    let cfg = Arc::new(cfg);
    let cfg2 = Arc::clone(&cfg);

    job.run(move |upc| {
        let me = upc.mythread();
        let mut data = run.as_ref().map(|run| init_data(run, me));
        let pool = cfg2.subthreads.map(|s| SubPool::spawn(&upc, s.n, s.model));
        let mut ph = Phases::default();
        let mut checksums: Vec<(f64, f64)> = Vec::new();

        upc.barrier();
        let t0 = upc.now();

        // Forward 3-D FFT: 2-D local passes, exchange, z pass, all in u0.
        run_fft2d(&upc, &l, &charges, pool.as_ref(), data.as_mut(), &mut ph);
        run_exchange(&upc, &cfg2, &l, recv.as_ref(), send.as_ref(), data.as_mut(), true, pool.as_ref(), &mut ph);
        run_unpack(&upc, &l, recv.as_ref(), data.as_mut(), true, pool.as_ref(), &mut ph);
        run_fftz(&upc, &l, &charges, pool.as_ref(), data.as_mut(), &mut ph);

        // The inverse phases are charged in phase order, but the evolve and
        // the z pass run per frequency plane inside the exchange's packs,
        // and the x/y passes per spatial plane inside the unpack.
        for t in 1..=iters {
            run_evolve(&upc, &l, pool.as_ref(), data.as_mut(), t, &mut ph);
            run_fftz(&upc, &l, &charges, pool.as_ref(), None, &mut ph);
            run_exchange(&upc, &cfg2, &l, recv.as_ref(), send.as_ref(), data.as_mut(), false, pool.as_ref(), &mut ph);
            let (re, im) = run_unpack(&upc, &l, recv.as_ref(), data.as_mut(), false, pool.as_ref(), &mut ph);
            run_fft2d(&upc, &l, &charges, pool.as_ref(), None, &mut ph);
            let re = upc.allreduce_sum_f64(re);
            let im = upc.allreduce_sum_f64(im);
            checksums.push((re, im));
        }
        let total = upc.now() - t0;
        if let Some(p) = pool {
            p.shutdown(upc.ctx());
        }

        // Aggregate phase maxima.
        let total = upc.allreduce_max_u64(total);
        let comm = upc.allreduce_max_u64(ph.comm);
        let fft2d = upc.allreduce_max_u64(ph.fft2d);
        let fft1d = upc.allreduce_max_u64(ph.fft1d);
        let transpose = upc.allreduce_max_u64(ph.transpose);
        let evolve_t = upc.allreduce_max_u64(ph.evolve);
        if me == 0 {
            let secs = time::as_secs_f64(total);
            let one_fft = 5.0 * g.total() as f64 * (g.total() as f64).log2();
            out2.with_mut(|r| {
                *r = FtResult {
                    total_seconds: secs,
                    comm_seconds: time::as_secs_f64(comm),
                    fft2d_seconds: time::as_secs_f64(fft2d),
                    fft1d_seconds: time::as_secs_f64(fft1d),
                    transpose_seconds: time::as_secs_f64(transpose),
                    evolve_seconds: time::as_secs_f64(evolve_t),
                    checksums: if cfg2.mode == ComputeMode::Execute {
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

/// Charge `planes` plane-units of compute, through the pool when present.
fn charge_planes(upc: &Upc<'_>, pool: Option<&SubPool>, planes: usize, flops_per_plane: f64) {
    match pool {
        None => upc.compute_flops(flops_per_plane * planes as f64, FFT_EFF),
        Some(p) => {
            p.parallel_for(upc.ctx(), planes, move |w, range| {
                if !range.is_empty() {
                    w.compute_flops(flops_per_plane * range.len() as f64, FFT_EFF);
                }
            });
        }
    }
}

/// Charge a byte-sweep (pack/evolve style), per-core, pool-aware.
fn charge_sweep(upc: &Upc<'_>, pool: Option<&SubPool>, bytes: f64) {
    match pool {
        None => upc.compute(time::from_secs_f64(bytes / PACK_BW)),
        Some(p) => {
            let n = p.size();
            p.parallel_for(upc.ctx(), n, move |w, range| {
                if !range.is_empty() {
                    w.compute(time::from_secs_f64(
                        bytes / PACK_BW / n as f64 * range.len() as f64,
                    ));
                }
            });
        }
    }
}

/// Charge the x+y passes over `nzp` planes, running the forward ones on
/// `data` when given.
fn run_fft2d(
    upc: &Upc<'_>,
    l: &Layout,
    charges: &Charges,
    pool: Option<&SubPool>,
    data: Option<&mut Data>,
    ph: &mut Phases,
) {
    let t0 = upc.now();
    upc.ctx().trace_emit(
        hupc_trace::EventKind::SpanBegin,
        hupc_trace::span::FT_COMPUTE,
        l.nzp as u64,
    );
    if let Some(d) = data {
        forward_fft2d(d);
    }
    charge_planes(upc, pool, l.nzp, charges.plane2d);
    let dt = upc.now() - t0;
    if upc.ctx().tracing() {
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::SpanEnd, hupc_trace::span::FT_COMPUTE, dt);
        upc.trace_observe("ft.compute_ns", dt);
    }
    ph.fft2d += dt;
}

/// Charge the z pass over `nyp` row-planes, running the forward one on
/// `data` when given.
fn run_fftz(
    upc: &Upc<'_>,
    l: &Layout,
    charges: &Charges,
    pool: Option<&SubPool>,
    data: Option<&mut Data>,
    ph: &mut Phases,
) {
    let t0 = upc.now();
    upc.ctx().trace_emit(
        hupc_trace::EventKind::SpanBegin,
        hupc_trace::span::FT_COMPUTE,
        l.nyp as u64,
    );
    if let Some(d) = data {
        forward_fftz(d);
    }
    charge_planes(upc, pool, l.nyp, charges.planez);
    let dt = upc.now() - t0;
    if upc.ctx().tracing() {
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::SpanEnd, hupc_trace::span::FT_COMPUTE, dt);
        upc.trace_observe("ft.compute_ns", dt);
    }
    ph.fft1d += dt;
}

/// Charge step `t`'s evolve sweep and look up its factors; the exchange's
/// packs apply them plane by plane.
fn run_evolve(
    upc: &Upc<'_>,
    l: &Layout,
    pool: Option<&SubPool>,
    data: Option<&mut Data>,
    t: usize,
    ph: &mut Phases,
) {
    let t0 = upc.now();
    upc.ctx().trace_emit(
        hupc_trace::EventKind::SpanBegin,
        hupc_trace::span::FT_EVOLVE,
        t as u64,
    );
    if let Some(d) = data {
        begin_inverse(d, t);
    }
    charge_sweep(upc, pool, l.chunk as f64 * 32.0);
    let dt = upc.now() - t0;
    upc.ctx()
        .trace_emit(hupc_trace::EventKind::SpanEnd, hupc_trace::span::FT_EVOLVE, dt);
    ph.evolve += dt;
}

/// The global exchange: pack per-destination blocks, put them, drain.
#[allow(clippy::too_many_arguments)]
fn run_exchange(
    upc: &Upc<'_>,
    cfg: &FtConfig,
    l: &Layout,
    recv: Option<&SharedArray<[f64; 2]>>,
    send: Option<&SharedArray<[f64; 2]>>,
    mut data: Option<&mut Data>,
    forward: bool,
    pool: Option<&SubPool>,
    ph: &mut Phases,
) {
    let me = upc.mythread();
    let p = l.p;
    let planes = if forward { l.nzp } else { l.nyp };
    let sub_elems = l.slot / planes;
    let t0 = upc.now();
    upc.ctx().trace_emit(
        hupc_trace::EventKind::SpanBegin,
        hupc_trace::span::FT_EXCHANGE,
        forward as u64,
    );
    let mut handles: Vec<Handle> = Vec::new();
    match cfg.exchange {
        ExchangeKind::Overlap => {
            for pl in 0..planes {
                charge_sweep(upc, pool, sub_elems as f64 * p as f64 * 32.0);
                for step in 0..p {
                    let dest = (me + step) % p;
                    let d = data.as_deref_mut();
                    if let Some(h) =
                        put_block(upc, cfg, l, recv, d, forward, pl, dest, sub_elems, false)
                    {
                        handles.push(h);
                    }
                }
            }
        }
        ExchangeKind::SplitPhase | ExchangeKind::SplitPhaseBlocking => {
            let blocking = cfg.exchange == ExchangeKind::SplitPhaseBlocking;
            charge_sweep(upc, pool, l.chunk as f64 * 32.0);
            for step in 0..p {
                let dest = (me + step) % p;
                for pl in 0..planes {
                    let d = data.as_deref_mut();
                    if let Some(h) =
                        put_block(upc, cfg, l, recv, d, forward, pl, dest, sub_elems, blocking)
                    {
                        handles.push(h);
                    }
                }
            }
        }
        ExchangeKind::Hierarchical => {
            charge_sweep(upc, pool, l.chunk as f64 * 32.0);
            let slot_words = l.slot * 2;
            let block_words = sub_elems * 2;
            if let (Some(d), Some(s), Some(r)) = (data, send, recv) {
                // Pack every per-destination slot into the local staging,
                // plane-major, then hand the whole transpose to the
                // collective layer.
                s.with_local_words(upc, |w| {
                    for pl in 0..planes {
                        for dest in 0..p {
                            let o = dest * slot_words + pl * block_words;
                            let blk = &mut w[o..o + block_words];
                            if forward {
                                pack_fwd_block(d, pl, dest, blk);
                            } else {
                                pack_inv_block(d, pl, dest, blk);
                            }
                        }
                    }
                });
                upc.all_exchange_words(s.word_offset(), r.word_offset(), slot_words, false);
            } else {
                // Model mode: charge the coalesced traffic — one message
                // per destination *node* (all of my slots for that node's
                // threads), memcpy-scale copies for intra-node slots, and
                // a local scatter of the received staging.
                let gn = upc.gasnet();
                let my_node = gn.thread_node(me);
                let mut local_slots = 0usize;
                let mut nodes: Vec<(usize, usize)> = Vec::new();
                for t in 0..p {
                    let n = gn.thread_node(t);
                    if n == my_node {
                        local_slots += 1;
                    } else if let Some(e) = nodes.iter_mut().find(|(h, _)| gn.thread_node(*h) == n)
                    {
                        e.1 += 1;
                    } else {
                        nodes.push((t, 1));
                    }
                }
                upc.ctx().advance_lazy(time::from_secs_f64(
                    (local_slots * slot_words) as f64 * 8.0 * 2.0 / PACK_BW,
                ));
                for (head, n_slots) in nodes {
                    handles.push(gn.transfer_nb(upc.ctx(), me, head, n_slots * slot_words * 8));
                }
                upc.ctx().advance_lazy(time::from_secs_f64(
                    (l.chunk * 2) as f64 * 8.0 * 2.0 / PACK_BW,
                ));
            }
        }
    }
    for h in handles {
        upc.wait_sync(h);
    }
    upc.barrier();
    let dt = upc.now() - t0;
    if upc.ctx().tracing() {
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::SpanEnd, hupc_trace::span::FT_EXCHANGE, dt);
        upc.trace_observe("ft.exchange_ns", dt);
    }
    ph.comm += dt;
}

/// Put one plane's sub-block for `dest`; returns a handle for nb puts.
#[allow(clippy::too_many_arguments)]
fn put_block(
    upc: &Upc<'_>,
    cfg: &FtConfig,
    l: &Layout,
    recv: Option<&SharedArray<[f64; 2]>>,
    data: Option<&mut Data>,
    forward: bool,
    pl: usize,
    dest: usize,
    sub_elems: usize,
    blocking: bool,
) -> Option<Handle> {
    let me = upc.mythread();
    let slot_words = l.slot * 2;
    let block_words = sub_elems * 2;
    let dst_off = recv
        .map(|r| r.word_offset() + me * slot_words + pl * block_words)
        .unwrap_or(0);

    match (cfg.mode, data) {
        (ComputeMode::Model, _) | (_, None) => {
            if dest == me {
                // Self-block: a local memcpy-scale cost. Lazy — folds into
                // the next phase's kernel interaction.
                upc.ctx().advance_lazy(time::from_secs_f64(
                    block_words as f64 * 8.0 * 2.0 / PACK_BW,
                ));
                return None;
            }
            let h = upc
                .gasnet()
                .transfer_nb(upc.ctx(), me, dest, block_words * 8);
            if blocking {
                upc.wait_sync(h);
                None
            } else {
                Some(h)
            }
        }
        (ComputeMode::Execute, Some(d)) => {
            // Zero-copy: pack straight into the destination slot (charged
            // exactly as the old staging-Vec memput of `block_words` words).
            let pack = |words: &mut [u64]| {
                if forward {
                    pack_fwd_block(d, pl, dest, words);
                } else {
                    pack_inv_block(d, pl, dest, words);
                }
            };
            if blocking {
                upc.memput_with(dest, dst_off, block_words, pack);
                None
            } else {
                Some(upc.memput_nb_with(dest, dst_off, block_words, pack).1)
            }
        }
    }
}

/// Unpack the received slots, charged as one sweep. The forward unpack
/// rearranges them into `u0`'s frequency layout. The inverse one also runs
/// the inverse x/y passes, which the `run_fft2d` after it charges, and
/// returns this rank's checksum probe sum.
fn run_unpack(
    upc: &Upc<'_>,
    l: &Layout,
    recv: Option<&SharedArray<[f64; 2]>>,
    data: Option<&mut Data>,
    forward: bool,
    pool: Option<&SubPool>,
    ph: &mut Phases,
) -> (f64, f64) {
    let t0 = upc.now();
    let mut sums = (0.0, 0.0);
    if let (Some(r), Some(d)) = (recv, data) {
        r.with_local_words(upc, |w| {
            let slot = |src: usize| &w[src * l.slot * 2..(src + 1) * l.slot * 2];
            if forward {
                unpack_forward_with(d, slot);
            } else {
                sums = finish_inverse_with(d, slot);
            }
        });
    }
    charge_sweep(upc, pool, l.chunk as f64 * 32.0);
    ph.transpose += upc.now() - t0;
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::seq_checksums;
    use crate::kernel::Complex;

    fn checksums_close(a: &[(f64, f64)], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, ((re, im), c)) in a.iter().zip(b).enumerate() {
            let scale = c.re.abs().max(c.im.abs()).max(1.0);
            assert!(
                (re - c.re).abs() / scale < 1e-9 && (im - c.im).abs() / scale < 1e-9,
                "iter {i}: ({re}, {im}) vs ({}, {})",
                c.re,
                c.im
            );
        }
    }

    #[test]
    fn split_phase_matches_sequential_reference() {
        let class = FtClass::Custom { nx: 16, ny: 8, nz: 8, iters: 3 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(16, 8, 8, 3, 4, 2);
        cfg.class = class;
        let r = run_ft_upc(cfg);
        checksums_close(&r.checksums, &want);
        assert!(r.total_seconds > 0.0);
        assert!(r.comm_seconds > 0.0);
    }

    #[test]
    fn overlap_matches_split_phase() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 16, iters: 2 };
        let mut a = FtConfig::test_custom(8, 8, 16, 2, 4, 2);
        a.class = class;
        let mut b = a.clone();
        b.exchange = ExchangeKind::Overlap;
        let ra = run_ft_upc(a);
        let rb = run_ft_upc(b);
        assert_eq!(ra.checksums.len(), rb.checksums.len());
        for ((r1, i1), (r2, i2)) in ra.checksums.iter().zip(&rb.checksums) {
            assert!((r1 - r2).abs() < 1e-9 && (i1 - i2).abs() < 1e-9);
        }
    }

    #[test]
    fn thread_count_does_not_change_checksums() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 2 };
        let want = seq_checksums(class);
        for threads in [1usize, 2, 4] {
            let nodes = threads.min(2);
            let mut cfg = FtConfig::test_custom(8, 8, 8, 2, threads, nodes);
            cfg.class = class;
            let r = run_ft_upc(cfg);
            checksums_close(&r.checksums, &want);
        }
    }

    #[test]
    fn hybrid_subthreads_match_pure() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 2 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(8, 8, 8, 2, 2, 1);
        cfg.class = class;
        cfg.subthreads = Some(SubthreadSpec {
            n: 2,
            model: SubthreadModel::OpenMp,
        });
        let r = run_ft_upc(cfg);
        checksums_close(&r.checksums, &want);
    }

    #[test]
    fn hierarchical_exchange_matches_sequential_reference() {
        let class = FtClass::Custom { nx: 16, ny: 8, nz: 8, iters: 3 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(16, 8, 8, 3, 4, 2);
        cfg.class = class;
        cfg.exchange = ExchangeKind::Hierarchical;
        let r = run_ft_upc(cfg);
        checksums_close(&r.checksums, &want);
        assert!(r.comm_seconds > 0.0);
    }

    #[test]
    fn hierarchical_model_mode_is_competitive_with_split_phase() {
        let mut split = FtConfig::test_custom(16, 16, 16, 2, 4, 2);
        split.mode = ComputeMode::Model;
        let mut hier = split.clone();
        hier.exchange = ExchangeKind::Hierarchical;
        let rs = run_ft_upc(split);
        let rh = run_ft_upc(hier);
        assert!(rh.checksums.is_empty());
        assert!(
            rh.comm_seconds <= rs.comm_seconds * 1.5,
            "hier {} vs split {}",
            rh.comm_seconds,
            rs.comm_seconds
        );
    }

    #[test]
    fn model_mode_charges_similar_time_without_data() {
        let exec = FtConfig::test_custom(16, 16, 16, 2, 4, 2);
        let mut model = exec.clone();
        model.mode = ComputeMode::Model;
        let re = run_ft_upc(exec);
        let rm = run_ft_upc(model);
        assert!(rm.checksums.is_empty());
        let ratio = rm.total_seconds / re.total_seconds;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pthread_backend_runs() {
        let class = FtClass::Custom { nx: 8, ny: 8, nz: 8, iters: 1 };
        let want = seq_checksums(class);
        let mut cfg = FtConfig::test_custom(8, 8, 8, 1, 4, 2);
        cfg.class = class;
        cfg.backend = Backend::pthreads(2);
        let r = run_ft_upc(cfg);
        checksums_close(&r.checksums, &want);
    }

    #[test]
    fn overlap_is_not_slower_than_split_phase() {
        let mut a = FtConfig::test_custom(16, 16, 16, 3, 4, 2);
        a.mode = ComputeMode::Model;
        let mut b = a.clone();
        b.exchange = ExchangeKind::Overlap;
        let ra = run_ft_upc(a);
        let rb = run_ft_upc(b);
        assert!(
            rb.total_seconds <= ra.total_seconds * 1.05,
            "overlap {} vs split {}",
            rb.total_seconds,
            ra.total_seconds
        );
    }
}
