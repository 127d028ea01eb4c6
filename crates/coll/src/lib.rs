//! `hupc-coll` — topology-aware hierarchical collectives.
//!
//! The thesis' Chapter 3 argument applied to collectives: a cluster of SMP
//! (possibly ccNUMA) nodes should not run a collective as one flat
//! algorithm over `THREADS` ranks. Instead every operation decomposes into
//! an **intra-group shared-memory phase** (leader election plus direct
//! member↔leader transfers over the castable `pshm` paths — no network
//! traffic) and an **inter-leader network phase** (k-ary trees, a
//! store-and-forward ring, coalesced pairwise exchange) over one
//! participant per node.
//!
//! ```
//! use hupc_coll::CollDomain;
//! use hupc_upc::{UpcConfig, UpcJob};
//!
//! let job = UpcJob::new(UpcConfig::test_default(8, 2));
//! CollDomain::install_auto(&job); // Upc collectives now delegate here
//! job.run(|upc| {
//!     let sum = upc.allreduce_sum_u64(upc.mythread() as u64);
//!     assert_eq!(sum, 28);
//! });
//! ```
//!
//! Algorithm selection ([`CollPlan`]) is automatic per machine topology,
//! payload size and operation — flat on a single node (bit-identical to the
//! `hupc-upc` reference path), two-level (node → core) otherwise, and
//! three-level (node → socket → core) for large broadcast/reduce payloads
//! on multi-socket nodes — with `CollPlan::Force` as the ablation override.
//! Under a tracer, every operation and phase emits `CollBegin`/`CollEnd`
//! events tagged with the algorithm (see `hupc_trace::coll`).

mod domain;
mod plan;

pub use domain::CollDomain;
pub use plan::{resolve, CollAlgo, CollOp, CollPlan, THREE_LEVEL_MIN_WORDS};

#[cfg(test)]
mod tests {
    use super::*;
    use hupc_upc::{UpcConfig, UpcJob};

    fn job(p: usize, nodes: usize) -> UpcJob {
        UpcJob::new(UpcConfig::test_default(p, nodes))
    }

    #[test]
    fn install_auto_runs_all_ops_two_level() {
        let j = job(8, 2);
        CollDomain::install_auto(&j);
        let src = j.alloc_shared::<u64>(8 * 8, 8);
        let dst = j.alloc_shared::<u64>(8 * 8, 8);
        j.run(move |upc| {
            let me = upc.mythread() as u64;
            // broadcast
            let mut w = if me == 3 { vec![7, 8, 9] } else { vec![0; 3] };
            upc.broadcast_words(3, &mut w);
            assert_eq!(w, vec![7, 8, 9]);
            // allreduce
            assert_eq!(upc.allreduce_sum_u64(me + 1), 36);
            assert_eq!(upc.allreduce_max_u64(me), 7);
            // allgather
            let mine = [me * 10, me * 10 + 1];
            let mut out = vec![0u64; 16];
            upc.allgather_words(&mine, &mut out);
            for t in 0..8u64 {
                assert_eq!(out[t as usize * 2], t * 10);
                assert_eq!(out[t as usize * 2 + 1], t * 10 + 1);
            }
            // all-to-all (no staging reserved → flat fallback, still right)
            src.with_local_words(&upc, |ws| {
                for (j, x) in ws.iter_mut().enumerate() {
                    *x = me * 100 + j as u64;
                }
            });
            upc.barrier();
            upc.all_exchange(src, dst, 1, true);
            dst.with_local_words(&upc, |ws| {
                for j in 0..8u64 {
                    assert_eq!(ws[j as usize], j * 100 + me);
                }
            });
            // staged barrier
            upc.staged_barrier();
        });
    }

    #[test]
    fn forced_plans_agree_on_results() {
        for plan in [
            CollPlan::Force(CollAlgo::Flat),
            CollPlan::Force(CollAlgo::TwoLevel),
            CollPlan::Force(CollAlgo::ThreeLevel),
        ] {
            let j = job(8, 2);
            CollDomain::for_job(&j, plan).install(&j);
            j.run(move |upc| {
                let me = upc.mythread() as u64;
                // payload > one pipeline chunk to exercise chunking
                let n = 300;
                let mut w: Vec<u64> = if me == 1 {
                    (0..n).map(|i| i * 3 + 1).collect()
                } else {
                    vec![0; n as usize]
                };
                upc.broadcast_words(1, &mut w);
                assert_eq!(w[299], 299 * 3 + 1, "{plan:?}");
                let mut v: Vec<u64> = (0..40).map(|i| me + i).collect();
                upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
                for (i, &x) in v.iter().enumerate() {
                    assert_eq!(x, 28 + 8 * i as u64, "{plan:?}");
                }
            });
        }
    }

    #[test]
    fn coalesced_exchange_matches_flat_semantics() {
        let j = job(8, 2);
        let src = j.alloc_shared::<u64>(8 * 8 * 2, 16);
        let dst = j.alloc_shared::<u64>(8 * 8 * 2, 16);
        CollDomain::for_job(&j, CollPlan::Auto)
            .reserve_exchange(&j, 2)
            .install(&j);
        j.run(move |upc| {
            let me = upc.mythread() as u64;
            src.with_local_words(&upc, |ws| {
                for (i, x) in ws.iter_mut().enumerate() {
                    *x = me * 1000 + i as u64;
                }
            });
            upc.barrier();
            upc.all_exchange(src, dst, 2, false);
            dst.with_local_words(&upc, |ws| {
                for t in 0..8u64 {
                    assert_eq!(ws[t as usize * 2], t * 1000 + me * 2);
                    assert_eq!(ws[t as usize * 2 + 1], t * 1000 + me * 2 + 1);
                }
            });
        });
    }

    #[test]
    fn uneven_socket_groups_still_reduce() {
        // 6 threads over 2 nodes (3 per node on a 2×2 machine): sockets
        // split 2+1 inside each node — exercises non-uniform socket groups.
        let j = job(6, 2);
        CollDomain::for_job(&j, CollPlan::Force(CollAlgo::ThreeLevel)).install(&j);
        j.run(|upc| {
            let me = upc.mythread() as u64;
            assert_eq!(upc.allreduce_sum_u64(me), 15);
            let mut w = if me == 5 { vec![11; 5] } else { vec![0; 5] };
            upc.broadcast_words(5, &mut w);
            assert_eq!(w, vec![11; 5]);
        });
    }

    #[test]
    fn single_node_auto_stays_flat() {
        let j = job(4, 1);
        let d = CollDomain::for_job(&j, CollPlan::Auto);
        assert_eq!(d.algo_for(CollOp::Broadcast, 4096), CollAlgo::Flat);
        assert_eq!(d.algo_for(CollOp::Allreduce, 1), CollAlgo::Flat);
        d.install(&j);
        j.run(|upc| {
            assert_eq!(upc.allreduce_sum_u64(1), 4);
            upc.staged_barrier();
        });
    }

    #[test]
    fn staged_barrier_synchronizes_all_threads() {
        let j = job(8, 2);
        CollDomain::install_auto(&j);
        let flag = j.alloc_shared::<u64>(8, 1);
        j.run(move |upc| {
            let me = upc.mythread();
            upc.ctx().advance(hupc_sim::time::us(me as u64 * 3));
            flag.put(&upc, me, 1);
            upc.staged_barrier();
            for i in 0..8 {
                assert_eq!(flag.get(&upc, i), 1, "thread {i} not arrived");
            }
        });
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let j = job(4, 1);
        CollDomain::install_auto(&j);
        CollDomain::install_auto(&j);
    }
}
