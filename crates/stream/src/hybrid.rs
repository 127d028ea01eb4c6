//! Hybrid UPC×sub-thread STREAM placement study (thesis §4.3.2, Table 4.1).
//!
//! The kernel is the plain triad; what varies is *who owns the arrays* and
//! *where the workers run*. UPC shared arrays are first-touched by their
//! owning UPC thread, so a 1×8 configuration funnels all eight workers
//! through the master's socket — the thesis' 13.9 GB/s row — while 2×4 and
//! 4×2 with socket binding stream from both controllers at full rate.

use std::sync::Arc;

use hupc_sim::{time, SimCell};
use hupc_subthreads::{SubPool, SubthreadModel};
use hupc_topo::{BindPolicy, MachineSpec, SocketId};
use hupc_upc::{
    Backend, Conduit, GasnetConfig, SharedArray, ThreadSafety, UpcConfig, UpcJob, UpcRuntime,
};

use crate::twisted::TriadResult;

/// A row of Table 4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridLayout {
    /// Pure UPC, one thread per core, socket-round-robin binding.
    PureUpc { threads: usize },
    /// Pure OpenMP analogue: one process, `threads` sub-threads, parallel
    /// first touch (pages spread over both sockets).
    PureOpenMp { threads: usize },
    /// `upc × subs` hybrid. `bound` pins each UPC thread (and its pool) to
    /// a socket; unbound reproduces the thesis' degraded 1×8 row.
    Hybrid {
        upc: usize,
        subs: usize,
        bound: bool,
    },
}

impl HybridLayout {
    pub fn name(&self) -> String {
        match self {
            HybridLayout::PureUpc { threads } => format!("UPC {threads}"),
            HybridLayout::PureOpenMp { threads } => format!("OpenMP {threads}"),
            HybridLayout::Hybrid { upc, subs, bound } => {
                if *bound {
                    format!("UPC*OpenMP {upc}*{subs}")
                } else {
                    format!("UPC*OpenMP {upc}*{subs} (no binding)")
                }
            }
        }
    }

    fn upc_threads(&self) -> usize {
        match self {
            HybridLayout::PureUpc { threads } => *threads,
            HybridLayout::PureOpenMp { .. } => 1,
            HybridLayout::Hybrid { upc, .. } => *upc,
        }
    }

    fn subs(&self) -> usize {
        match self {
            HybridLayout::PureUpc { .. } => 1,
            HybridLayout::PureOpenMp { threads } => *threads,
            HybridLayout::Hybrid { subs, .. } => *subs,
        }
    }

    fn bind(&self) -> BindPolicy {
        match self {
            HybridLayout::PureUpc { .. } => BindPolicy::RoundRobinSockets,
            HybridLayout::PureOpenMp { .. } => BindPolicy::Unbound,
            HybridLayout::Hybrid { bound, .. } => {
                if *bound {
                    BindPolicy::RoundRobinSockets
                } else {
                    BindPolicy::Unbound
                }
            }
        }
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    pub machine: MachineSpec,
    pub layout: HybridLayout,
    /// Total elements per array (split over UPC threads).
    pub elems_total: usize,
    pub iters: usize,
}

impl HybridConfig {
    /// The Table 4.1 setup: one Lehman node.
    pub fn table_4_1(layout: HybridLayout) -> Self {
        HybridConfig {
            machine: MachineSpec::lehman().with_nodes(1),
            layout,
            elems_total: 1 << 22,
            iters: 10,
        }
    }

    /// Scaled-down setup for tests.
    pub fn small(layout: HybridLayout) -> Self {
        HybridConfig {
            machine: MachineSpec::small_test(1),
            layout,
            elems_total: 1 << 14,
            iters: 2,
        }
    }
}

const SCALAR: f64 = 3.0;

/// Run the hybrid triad; bandwidth is the STREAM-convention 24 B/element.
pub fn run_hybrid_triad(cfg: HybridConfig) -> TriadResult {
    let u = cfg.layout.upc_threads();
    let subs = cfg.layout.subs();
    let n_per = cfg.elems_total / u;
    assert!(n_per > 0 && cfg.elems_total.is_multiple_of(u));
    let job = UpcJob::new(UpcConfig {
        gasnet: GasnetConfig {
            machine: cfg.machine.clone(),
            n_threads: u,
            nodes_used: 1,
            bind: cfg.layout.bind(),
            backend: Backend::processes_pshm(),
            conduit: Conduit::ib_qdr(),
            segment_words: 1 << 10,
            overheads: None,
            fault: None,
            retry: Default::default(),
            barrier_timeout: None,
        },
        safety: ThreadSafety::Multiple,
    });
    let a = job.alloc_shared::<f64>(cfg.elems_total, n_per);
    let b = job.alloc_shared::<f64>(cfg.elems_total, n_per);
    let c = job.alloc_shared::<f64>(cfg.elems_total, n_per);
    let rt = Arc::clone(job.runtime());

    let out: Arc<SimCell<TriadResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);
    let layout = cfg.layout;
    let iters = cfg.iters;

    job.run(move |upc| {
        let me = upc.mythread();
        // Untimed init of this thread's chunks.
        for (arr, scale) in [(b, 1.0f64), (c, 0.5)] {
            arr.with_local_words(&upc, |w| {
                for (k, x) in w.iter_mut().enumerate() {
                    *x = (scale * (me * n_per + k) as f64).to_bits();
                }
            });
        }
        let pool = SubPool::spawn(&upc, subs, SubthreadModel::OpenMp);
        upc.barrier();
        let t0 = upc.now();
        for _ in 0..iters {
            triad_region(&upc, &rt, &pool, layout, a, b, c, me, n_per);
            upc.barrier();
        }
        let dt = upc.now() - t0;
        pool.shutdown(upc.ctx());
        // Untimed verification.
        let mut max_err = 0.0f64;
        a.with_local_words(&upc, |w| {
            for (k, x) in w.iter().enumerate() {
                let idx = (me * n_per + k) as f64;
                let err = (f64::from_bits(*x) - (idx + SCALAR * 0.5 * idx)).abs();
                max_err = max_err.max(err);
            }
        });
        let max_err = f64::from_bits(upc.allreduce_words(max_err.to_bits(), |x, y| {
            if f64::from_bits(x) >= f64::from_bits(y) {
                x
            } else {
                y
            }
        }));
        if me == 0 {
            let secs = time::as_secs_f64(dt);
            let bytes = 24.0 * n_per as f64 * upc.threads() as f64 * iters as f64;
            out2.with_mut(|r| {
                *r = TriadResult {
                    variant: layout.name(),
                    gbps: bytes / secs / 1e9,
                    seconds: secs,
                    max_error: max_err,
                }
            });
        }
    });
    Arc::try_unwrap(out).expect("result still shared").into_inner()
}

/// One timed parallel triad over this UPC thread's chunk.
#[allow(clippy::too_many_arguments)]
fn triad_region(
    upc: &hupc_upc::Upc<'_>,
    rt: &Arc<UpcRuntime>,
    pool: &SubPool,
    layout: HybridLayout,
    a: SharedArray<f64>,
    b: SharedArray<f64>,
    c: SharedArray<f64>,
    me: usize,
    n_per: usize,
) {
    let master_home = upc.segment_home(me);
    let rt2 = Arc::clone(rt);
    let machine_sockets_first_touch = matches!(layout, HybridLayout::PureOpenMp { .. });
    pool.parallel_for(upc.ctx(), n_per, move |w, range| {
        if range.is_empty() {
            return;
        }
        let view = rt2.view(w.ctx(), me);
        let (lo, len) = (range.start, range.len());
        // Real arithmetic on the real data.
        let mut bw = vec![0u64; len];
        let mut cw = vec![0u64; len];
        b.with_local_words(&view, |words| bw.copy_from_slice(&words[lo..lo + len]));
        c.with_local_words(&view, |words| cw.copy_from_slice(&words[lo..lo + len]));
        a.with_local_words(&view, |words| {
            for k in 0..len {
                let v = f64::from_bits(bw[k]) + SCALAR * f64::from_bits(cw[k]);
                words[lo + k] = v.to_bits();
            }
        });
        // Charge 24 B/element on the page-home socket: the master's socket
        // for UPC-owned arrays, the worker's own socket when the pages were
        // first-touched in parallel (pure OpenMP).
        let home = if machine_sockets_first_touch {
            let g = view.gasnet();
            let m = g.machine();
            SocketId(m.pu_socket(w.pu()).0)
        } else {
            master_home
        };
        w.mem_stream(home, 24 * len);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_layouts_verify() {
        for layout in [
            HybridLayout::PureUpc { threads: 4 },
            HybridLayout::PureOpenMp { threads: 4 },
            HybridLayout::Hybrid {
                upc: 2,
                subs: 2,
                bound: true,
            },
            HybridLayout::Hybrid {
                upc: 1,
                subs: 4,
                bound: false,
            },
        ] {
            let r = run_hybrid_triad(HybridConfig::small(layout));
            assert_eq!(r.max_error, 0.0, "{}", r.variant);
            assert!(r.gbps > 0.0);
        }
    }

    #[test]
    fn unbound_1xn_runs_at_roughly_half_bandwidth() {
        let good = run_hybrid_triad(HybridConfig::small(HybridLayout::Hybrid {
            upc: 2,
            subs: 2,
            bound: true,
        }));
        let bad = run_hybrid_triad(HybridConfig::small(HybridLayout::Hybrid {
            upc: 1,
            subs: 4,
            bound: false,
        }));
        let ratio = good.gbps / bad.gbps;
        assert!(
            (1.5..2.6).contains(&ratio),
            "good {:.2} / bad {:.2} = {ratio:.2}",
            good.gbps,
            bad.gbps
        );
    }

    #[test]
    fn bound_hybrid_matches_pure_upc() {
        let pure = run_hybrid_triad(HybridConfig::small(HybridLayout::PureUpc { threads: 4 }));
        let hybrid = run_hybrid_triad(HybridConfig::small(HybridLayout::Hybrid {
            upc: 2,
            subs: 2,
            bound: true,
        }));
        let ratio = hybrid.gbps / pure.gbps;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio:.2}");
    }
}
