//! Flat vs hierarchical collectives — virtual-time comparison.
//!
//! Not a thesis figure: this pins the `hupc-coll` subsystem's reason to
//! exist. Every operation runs twice on the same machine and payload —
//! once through the flat reference algorithms in `hupc-upc` (no provider
//! installed) and once through the installed [`CollDomain`] (intra-node
//! shared-memory phase + inter-leader network phase) — and the table
//! reports the virtual-time ratio.
//!
//! Broadcast, allreduce, allgather and the staged barrier run at Pyramid
//! scale (128 nodes × 8 cores = 1024 threads; `--quick` uses a 16-node
//! slice). The coalesced all-to-all runs on Lehman, where the per-node
//! message coalescing (one message per destination *node*) is the whole
//! effect.
//!
//! Virtual time is deterministic, so the headline broadcast / allreduce
//! speedups are pinned by a unit test on the quick slice.

use std::sync::Arc;

use hupc::prelude::*;
use hupc::sim::time;

use crate::Table;

/// Virtual seconds one collective `op` takes: barrier, timestamp, op,
/// barrier, timestamp — measured on thread 0 (the closing barrier makes
/// the end time global). `hier` installs the [`CollDomain`] provider;
/// without it the `Upc` methods run their flat reference algorithms.
fn op_seconds(
    spec: &MachineSpec,
    threads: usize,
    nodes: usize,
    hier: bool,
    op: impl Fn(&Upc<'_>) + Send + Sync + 'static,
) -> f64 {
    let mut cfg = UpcConfig::test_default(threads, nodes);
    cfg.gasnet.machine = spec.clone();
    let job = UpcJob::new(cfg);
    if hier {
        CollDomain::for_job(&job, CollPlan::Auto).install(&job);
    }
    let dt: Arc<SimCell<u64>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&dt);
    job.run(move |upc| {
        upc.barrier();
        let t0 = upc.now();
        op(&upc);
        upc.barrier();
        if upc.mythread() == 0 {
            let d = upc.now() - t0;
            sink.with_mut(|v| *v = d);
        }
    });
    time::as_secs_f64(Arc::try_unwrap(dt).expect("job done").into_inner())
}

/// Virtual seconds of one all-to-all over PGAS arrays (`bw` words per
/// thread pair), flat pairwise vs the coalesced hierarchical path.
fn exchange_seconds(spec: &MachineSpec, threads: usize, nodes: usize, hier: bool, bw: usize) -> f64 {
    let p = threads;
    let mut cfg = UpcConfig::test_default(threads, nodes);
    cfg.gasnet.machine = spec.clone();
    let job = UpcJob::new(cfg);
    let src = job.alloc_shared::<u64>(p * p * bw, p * bw);
    let dst = job.alloc_shared::<u64>(p * p * bw, p * bw);
    if hier {
        CollDomain::for_job(&job, CollPlan::Auto)
            .reserve_exchange(&job, bw)
            .install(&job);
    }
    let dt: Arc<SimCell<u64>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&dt);
    job.run(move |upc| {
        let me = upc.mythread() as u64;
        src.with_local_words(&upc, |w| {
            for (i, x) in w.iter_mut().enumerate() {
                *x = me.wrapping_mul(0x9e37).wrapping_add(i as u64);
            }
        });
        upc.barrier();
        let t0 = upc.now();
        upc.all_exchange(src, dst, bw, false);
        upc.barrier();
        if upc.mythread() == 0 {
            let d = upc.now() - t0;
            sink.with_mut(|v| *v = d);
        }
    });
    time::as_secs_f64(Arc::try_unwrap(dt).expect("job done").into_inner())
}

/// One table row: operation, payload, flat and hierarchical virtual
/// seconds.
type Row = (&'static str, String, f64, f64);

/// Run every operation flat and hierarchical; returns the table title and
/// its rows.
fn measure(quick: bool) -> (String, Vec<Row>) {
    // Pyramid slice for the rooted/staged ops; Lehman for the all-to-all.
    let pyramid = MachineSpec::pyramid();
    let lehman = MachineSpec::lehman();
    let (py_nodes, le_nodes) = if quick { (16, 4) } else { (128, 12) };
    let py_threads = py_nodes * 8; // 2 sockets × 4 cores, SMT off
    let le_threads = le_nodes * 8; // one thread per core
    let (bcast_words, red_words, gather_words, bw, barrier_reps) =
        if quick { (1024, 32, 8, 4, 4) } else { (4096, 64, 16, 8, 8) };

    let bcast = move |upc: &Upc<'_>| {
        let mut w = if upc.mythread() == 0 {
            (0..bcast_words as u64).collect()
        } else {
            vec![0u64; bcast_words]
        };
        upc.broadcast_words(0, &mut w);
    };
    let allreduce = move |upc: &Upc<'_>| {
        let me = upc.mythread() as u64;
        let mut v: Vec<u64> = (0..red_words as u64).map(|i| me + i).collect();
        upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
    };
    let allgather = move |upc: &Upc<'_>| {
        let me = upc.mythread() as u64;
        let mine: Vec<u64> = (0..gather_words as u64).map(|i| me * 100 + i).collect();
        let mut out = vec![0u64; py_threads * gather_words];
        upc.allgather_words(&mine, &mut out);
    };
    let barrier = move |upc: &Upc<'_>| {
        for _ in 0..barrier_reps {
            upc.staged_barrier();
        }
    };
    let title = format!(
        "Collectives — flat vs hierarchical (pyramid {py_nodes} nodes × 8 = {py_threads} \
         threads; all-to-all on lehman {le_nodes} × 8 = {le_threads})"
    );
    let rows = vec![
        (
            "broadcast",
            format!("{bcast_words} words"),
            op_seconds(&pyramid, py_threads, py_nodes, false, bcast),
            op_seconds(&pyramid, py_threads, py_nodes, true, bcast),
        ),
        (
            "allreduce (vec)",
            format!("{red_words} words"),
            op_seconds(&pyramid, py_threads, py_nodes, false, allreduce),
            op_seconds(&pyramid, py_threads, py_nodes, true, allreduce),
        ),
        (
            "allgather",
            format!("{gather_words} words/thread"),
            op_seconds(&pyramid, py_threads, py_nodes, false, allgather),
            op_seconds(&pyramid, py_threads, py_nodes, true, allgather),
        ),
        (
            "all-to-all",
            format!("{bw} words/pair"),
            exchange_seconds(&lehman, le_threads, le_nodes, false, bw),
            exchange_seconds(&lehman, le_threads, le_nodes, true, bw),
        ),
        (
            "barrier",
            format!("{barrier_reps} reps"),
            op_seconds(&pyramid, py_threads, py_nodes, false, barrier),
            op_seconds(&pyramid, py_threads, py_nodes, true, barrier),
        ),
    ];
    (title, rows)
}

pub fn run(quick: bool) -> Vec<Table> {
    let (title, rows) = measure(quick);
    let mut t = Table::new(
        title,
        &["operation", "payload", "flat (virt)", "hier (virt)", "speedup"],
    );
    let ms = |s: f64| format!("{:.3} ms", s * 1e3);
    for (op, payload, flat, hier) in rows {
        t.row(vec![
            op.into(),
            payload,
            ms(flat),
            ms(hier),
            format!("{:.2}x", flat / hier),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline speedups on the quick Pyramid slice (16 nodes × 8):
    /// hierarchical broadcast and allreduce stay at least 2x ahead of flat
    /// (measured 2.16x and 17.89x).
    #[test]
    fn quick_slice_keeps_bcast_and_allreduce_twice_as_fast() {
        let (_, rows) = measure(true);
        let speedup = |op: &str| {
            let (_, _, flat, hier) = rows.iter().find(|r| r.0 == op).unwrap();
            flat / hier
        };
        let bcast = speedup("broadcast");
        let allreduce = speedup("allreduce (vec)");
        assert!(bcast >= 2.0, "broadcast speedup {bcast:.2}x < 2x");
        assert!(allreduce >= 2.0, "allreduce speedup {allreduce:.2}x < 2x");
    }

    #[test]
    fn tiny_sweep_reports_hierarchical_wins() {
        // A small multi-node shape still shows the effect and keeps the
        // test cheap: 4 testbox nodes × 4 PUs.
        let spec = MachineSpec::small_test(4);
        let flat = op_seconds(&spec, 16, 4, false, |upc| {
            let mut v = [upc.mythread() as u64; 8];
            upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
        });
        let hier = op_seconds(&spec, 16, 4, true, |upc| {
            let mut v = [upc.mythread() as u64; 8];
            upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
        });
        assert!(flat > 0.0 && hier > 0.0);
        assert!(
            hier < flat,
            "hierarchical allreduce not faster: {hier} vs {flat}"
        );
    }
}
