//! The twisted STREAM triad (thesis §3.3.1, Table 3.1).

use std::sync::Arc;

use hupc_sim::{time, SimCell};
use hupc_topo::MachineSpec;
use hupc_upc::{Conduit, FaultPlan, SharedArray, Upc, UpcConfig, UpcJob};

/// Which implementation of the twisted triad to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriadVariant {
    /// Every access through a pointer-to-shared: one translation per
    /// element access (the untuned UPC program).
    UpcBaseline,
    /// Bulk `upc_memget` of the neighbour's `b`/`c` into private buffers,
    /// then a private triad (re-localization).
    UpcRelocalize,
    /// `bupc_cast` pointer table: direct loads/stores, no translation.
    UpcCast,
    /// Pure shared-memory analogue (the OpenMP row of Table 3.1).
    OpenMpAnalog,
}

impl TriadVariant {
    pub fn name(&self) -> &'static str {
        match self {
            TriadVariant::UpcBaseline => "UPC baseline",
            TriadVariant::UpcRelocalize => "UPC with re-localization",
            TriadVariant::UpcCast => "UPC with cast",
            TriadVariant::OpenMpAnalog => "OpenMP baseline",
        }
    }

    pub fn all() -> [TriadVariant; 4] {
        [
            TriadVariant::UpcBaseline,
            TriadVariant::UpcRelocalize,
            TriadVariant::UpcCast,
            TriadVariant::OpenMpAnalog,
        ]
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct TwistedConfig {
    pub machine: MachineSpec,
    pub threads: usize,
    pub variant: TriadVariant,
    /// Elements of each array with affinity to each thread.
    pub elems_per_thread: usize,
    pub iters: usize,
    /// Optional deterministic fault plan applied to the network.
    pub fault: Option<FaultPlan>,
}

impl TwistedConfig {
    /// The Table 3.1 setup: 8 threads on one dual-socket Nehalem node with
    /// thread binding.
    pub fn table_3_1(variant: TriadVariant) -> Self {
        TwistedConfig {
            machine: MachineSpec::lehman().with_nodes(1),
            threads: 8,
            variant,
            elems_per_thread: 1 << 19,
            iters: 10,
            fault: None,
        }
    }

    /// Scaled-down setup for tests.
    pub fn small(variant: TriadVariant) -> Self {
        TwistedConfig {
            machine: MachineSpec::small_test(1),
            threads: 4,
            variant,
            elems_per_thread: 1 << 12,
            iters: 2,
            fault: None,
        }
    }
}

/// Result of one triad run.
#[derive(Clone, Debug, Default)]
pub struct TriadResult {
    pub variant: String,
    /// STREAM-convention bandwidth: 24 bytes per element per iteration.
    pub gbps: f64,
    pub seconds: f64,
    /// Max absolute error of the computed triad vs. the reference (must be
    /// 0.0 — the kernel really runs).
    pub max_error: f64,
}

const SCALAR: f64 = 3.0;

/// Run the twisted triad and report bandwidth + verification.
pub fn run_twisted_triad(cfg: TwistedConfig) -> TriadResult {
    assert!(cfg.threads.is_multiple_of(2), "twisting pairs threads odd/even");
    let n_per = cfg.elems_per_thread;
    // PackedCores (the `standard` bind) keeps odd/even pairs on one socket,
    // as the thesis' bound runs do.
    let job = UpcJob::new(UpcConfig::standard(
        cfg.machine.clone(),
        cfg.threads,
        1,
        Conduit::ib_qdr(),
        1 << 10,
        cfg.fault.clone(),
    ));
    let n_total = n_per * cfg.threads;
    let a = job.alloc_shared::<f64>(n_total, n_per);
    let b = job.alloc_shared::<f64>(n_total, n_per);
    let c = job.alloc_shared::<f64>(n_total, n_per);

    let out: Arc<SimCell<TriadResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);
    let variant = cfg.variant;
    let iters = cfg.iters;

    job.run(move |upc| {
        let me = upc.mythread();
        // --- init (untimed, like STREAM's setup) ---
        init_arrays(&upc, &b, &c, me, n_per);
        upc.barrier();
        let t0 = upc.now();
        for _ in 0..iters {
            triad_once(&upc, variant, &a, &b, &c, me, n_per);
            upc.barrier();
        }
        let dt = upc.now() - t0;
        // --- verification (untimed) ---
        let err = verify(&upc, &a, me, n_per);
        let max_err = f64::from_bits(upc.allreduce_words(err.to_bits(), |x, y| {
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
                    variant: variant.name().to_string(),
                    gbps: bytes / secs / 1e9,
                    seconds: secs,
                    max_error: max_err,
                }
            });
        }
    });
    Arc::try_unwrap(out).expect("result still shared").into_inner()
}

/// Fill this thread's chunks of `b` and `c` (untimed setup).
fn init_arrays(
    upc: &Upc<'_>,
    b: &SharedArray<f64>,
    c: &SharedArray<f64>,
    me: usize,
    n_per: usize,
) {
    b.with_local_words(upc, |w| {
        for (k, x) in w.iter_mut().enumerate().take(n_per) {
            *x = ((me * n_per + k) as f64).to_bits();
        }
    });
    c.with_local_words(upc, |w| {
        for (k, x) in w.iter_mut().enumerate().take(n_per) {
            *x = (0.5 * (me * n_per + k) as f64).to_bits();
        }
    });
}

/// One timed triad iteration: `a[me] = b[twin] + s·c[twin]`.
#[allow(clippy::needless_range_loop)]
fn triad_once(
    upc: &Upc<'_>,
    variant: TriadVariant,
    a: &SharedArray<f64>,
    b: &SharedArray<f64>,
    c: &SharedArray<f64>,
    me: usize,
    n_per: usize,
) {
    let twin = me ^ 1; // odd/even neighbour
    let my_home = upc.segment_home(me);
    let twin_home = upc.segment_home(twin);
    match variant {
        TriadVariant::UpcBaseline | TriadVariant::UpcCast => {
            // Data movement identical; what differs is the software cost.
            read_neighbor_triad(upc, a, b, c, twin, n_per, false);
            if variant == TriadVariant::UpcBaseline {
                // 3 shared accesses per element through pointers-to-shared.
                upc.note_translation(3 * n_per as u64);
            }
            upc.note_socket_traffic(twin_home, 16 * n_per as u64); // read b,c
            upc.note_socket_traffic(my_home, 8 * n_per as u64); // write a
        }
        TriadVariant::UpcRelocalize => {
            // Bulk upc_memget into private buffers (charged by the runtime
            // along the PSHM path), then a fully private triad.
            read_neighbor_triad(upc, a, b, c, twin, n_per, true);
            // The modeled program allocates its bounce buffers per iteration:
            // the private triad streams 24 B/element locally and the
            // first-touch-cold buffers add another 16 B/element of write
            // traffic — together placing re-localization between the
            // baseline and the cast variant, as in Table 3.1. (The host-side
            // scratch reuse above is a simulator optimization; the charge
            // models the thesis program, unchanged.)
            upc.note_socket_traffic(my_home, (24 + 16) * n_per as u64);
        }
        TriadVariant::OpenMpAnalog => {
            // Pure shared-memory program: plain loads/stores, no PGAS
            // machinery at all; small per-iteration fork-join cost.
            read_neighbor_triad(upc, a, b, c, twin, n_per, false);
            upc.note_socket_traffic(twin_home, 16 * n_per as u64);
            upc.note_socket_traffic(my_home, 8 * n_per as u64);
            upc.ctx().advance(time::us(2)); // omp parallel region overhead
        }
    }
}

/// Copy the neighbour's `b`/`c` words into the thread's reusable scratch —
/// via timed `upc_memget`s when `through_memget` (the re-localization
/// variant) or through the shared-memory window (cost accounting is the
/// caller's) — then run the private triad into `a`.
#[allow(clippy::needless_range_loop)]
fn read_neighbor_triad(
    upc: &Upc<'_>,
    a: &SharedArray<f64>,
    b: &SharedArray<f64>,
    c: &SharedArray<f64>,
    twin: usize,
    n_per: usize,
    through_memget: bool,
) {
    upc.with_scratch(2 * n_per, |buf| {
        let (bw, cw) = buf.split_at_mut(n_per);
        if through_memget {
            upc.memget(twin, b.word_offset(), bw);
            upc.memget(twin, c.word_offset(), cw);
        } else {
            b.with_cast_words(upc, twin, |w| bw.copy_from_slice(&w[..n_per]));
            c.with_cast_words(upc, twin, |w| cw.copy_from_slice(&w[..n_per]));
        }
        a.with_local_words(upc, |aw| {
            for k in 0..n_per {
                let v = f64::from_bits(bw[k]) + SCALAR * f64::from_bits(cw[k]);
                aw[k] = v.to_bits();
            }
        });
    });
}

/// Check `a[me] == b[twin] + s·c[twin]` elementwise; returns max |error|.
fn verify(upc: &Upc<'_>, a: &SharedArray<f64>, me: usize, n_per: usize) -> f64 {
    let twin = me ^ 1;
    let mut max_err = 0.0f64;
    a.with_local_words(upc, |aw| {
        for (k, &word) in aw.iter().enumerate().take(n_per) {
            let idx = (twin * n_per + k) as f64;
            let expect = idx + SCALAR * 0.5 * idx;
            let err = (f64::from_bits(word) - expect).abs();
            if err > max_err {
                max_err = err;
            }
        }
    });
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_compute_the_right_answer() {
        for v in TriadVariant::all() {
            let r = run_twisted_triad(TwistedConfig::small(v));
            assert_eq!(r.max_error, 0.0, "{}", r.variant);
            assert!(r.gbps > 0.0);
        }
    }

    #[test]
    fn cast_removes_the_translation_gap() {
        let base = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcBaseline));
        let cast = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcCast));
        // Table 3.1 shape: cast ≫ baseline (7.25× in the thesis).
        assert!(
            cast.gbps > base.gbps * 3.0,
            "cast {:.2} vs baseline {:.2}",
            cast.gbps,
            base.gbps
        );
    }

    #[test]
    fn relocalization_sits_between() {
        let base = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcBaseline));
        let relo = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcRelocalize));
        let cast = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcCast));
        assert!(base.gbps < relo.gbps, "{} !< {}", base.gbps, relo.gbps);
        assert!(relo.gbps < cast.gbps, "{} !< {}", relo.gbps, cast.gbps);
    }

    #[test]
    fn openmp_matches_cast() {
        let omp = run_twisted_triad(TwistedConfig::small(TriadVariant::OpenMpAnalog));
        let cast = run_twisted_triad(TwistedConfig::small(TriadVariant::UpcCast));
        let ratio = omp.gbps / cast.gbps;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }
}
