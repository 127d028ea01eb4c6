//! Fig 3.4 — NAS FT (class B) all-to-all communication under runtime
//! shared-memory optimizations (PSHM, pthreads) and manual pointer-cast
//! optimization, on 4 cluster nodes.
//!
//! Panel (a): blocking `upc_memput` exchange, % improvement over the plain
//! process backend. Panel (b): non-blocking `upc_memput_async` exchange,
//! absolute seconds per configuration.

use hupc::fft::{run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig};
use hupc::gasnet::{Backend, Overheads};
use hupc::net::Conduit;
use hupc::topo::{BindPolicy, MachineSpec};

use crate::Table;

/// The thesis' thread layouts: `total (procs × pthreads-per-proc)`.
pub const LAYOUTS: [(usize, usize, usize); 5] =
    [(4, 4, 1), (8, 4, 2), (16, 8, 2), (32, 8, 4), (64, 8, 8)];

/// Zeroed intra-node software costs: the manual `bupc_cast` + `memcpy`
/// optimization.
fn cast_overheads() -> Overheads {
    Overheads {
        same_process_call: 0,
        pshm_call: 0,
        ..Overheads::default()
    }
}

struct Variant {
    name: &'static str,
    backend_of: fn(pthreads_per_proc: usize) -> Backend,
    cast: bool,
}

const VARIANTS: [Variant; 5] = [
    Variant {
        name: "PSHM",
        backend_of: |_| Backend::processes_pshm(),
        cast: false,
    },
    Variant {
        name: "PSHM + cast",
        backend_of: |_| Backend::processes_pshm(),
        cast: true,
    },
    Variant {
        name: "pthreads",
        backend_of: |pp| Backend::mixed(pp, false),
        cast: false,
    },
    Variant {
        name: "pthr+PSHM",
        backend_of: |pp| Backend::mixed(pp, true),
        cast: false,
    },
    Variant {
        name: "pthr+PSHM + cast",
        backend_of: |pp| Backend::mixed(pp, true),
        cast: true,
    },
];

fn comm_seconds(
    total: usize,
    backend: Backend,
    cast: bool,
    exchange: ExchangeKind,
    quick: bool,
) -> f64 {
    let cfg = FtConfig {
        class: FtClass::B,
        machine: MachineSpec::lehman().with_nodes(4),
        threads: total,
        nodes_used: 4,
        conduit: Conduit::ib_qdr(),
        backend,
        bind: BindPolicy::PackedCores,
        exchange,
        subthreads: None,
        mode: ComputeMode::Model,
        iters_override: Some(if quick { 2 } else { 5 }),
        overheads: cast.then(cast_overheads),
        fault: None,
    };
    run_ft_upc(cfg).comm_seconds
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut a = Table::new(
        "Fig 3.4(a) — FT class B all-to-all, blocking memput: % improvement over UPC processes (4 Lehman nodes)",
        &{
            let mut h = vec!["threads"];
            h.extend(VARIANTS.iter().map(|v| v.name));
            h
        },
    );
    let mut b = Table::new(
        "Fig 3.4(b) — FT class B all-to-all, async memput: comm seconds",
        &{
            let mut h = vec!["config", "base"];
            h.extend(VARIANTS.iter().map(|v| v.name));
            h
        },
    );
    let layouts: &[(usize, usize, usize)] = if quick { &LAYOUTS[..3] } else { &LAYOUTS };
    for &(total, _procs, pp) in layouts {
        // Panel (a): blocking.
        let base = comm_seconds(total, Backend::processes(), false, ExchangeKind::SplitPhaseBlocking, quick);
        let mut cells = vec![total.to_string()];
        for v in &VARIANTS {
            let s = comm_seconds(total, (v.backend_of)(pp), v.cast, ExchangeKind::SplitPhaseBlocking, quick);
            cells.push(format!("{:.1}%", (base / s - 1.0) * 100.0));
        }
        a.row(cells);
        // Panel (b): async, absolute seconds.
        let base_b = comm_seconds(total, Backend::processes(), false, ExchangeKind::SplitPhase, quick);
        let mut cells = vec![format!("{total}({_procs}*{pp})"), format!("{base_b:.3}")];
        for v in &VARIANTS {
            let s = comm_seconds(total, (v.backend_of)(pp), v.cast, ExchangeKind::SplitPhase, quick);
            cells.push(format!("{s:.3}"));
        }
        b.row(cells);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick slice at its measured values, pinned exactly as printed
    /// (the exchange runs in `ComputeMode::Model`, so only a model change
    /// moves it), with the thesis' claims: the manual cast gains nothing
    /// over the runtime's own shared-memory optimizations, and async puts
    /// take longer under pthreads.
    #[test]
    #[ignore = "about 0.2 s in release; CI runs it with --release"]
    fn quick_figure_pins_cast_matching_runtime_and_slow_async_pthreads() {
        // (threads, PSHM, PSHM + cast, pthreads, pthr+PSHM, pthr+PSHM + cast)
        let want_a = [
            ["4", "0.0%", "0.0%", "0.0%", "0.0%", "0.0%"],
            ["8", "13.6%", "13.6%", "13.6%", "13.6%", "13.6%"],
            ["16", "17.4%", "17.4%", "0.2%", "17.4%", "17.4%"],
        ];
        // (config, base, then the variants as above)
        let want_b = [
            ["4(4*1)", "0.484", "0.484", "0.484", "0.484", "0.484", "0.484"],
            ["8(4*2)", "0.279", "0.249", "0.246", "0.326", "0.326", "0.326"],
            ["16(8*2)", "0.207", "0.178", "0.178", "0.212", "0.181", "0.178"],
        ];
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        let (a, b) = (&tables[0].rows, &tables[1].rows);
        assert_eq!(*a, want_a.map(|row| row.map(String::from).to_vec()));
        assert_eq!(*b, want_b.map(|row| row.map(String::from).to_vec()));
        // Panel (a): each +cast column equals its runtime-optimization
        // column (PSHM, pthr+PSHM).
        for row in a {
            assert_eq!(row[2], row[1], "PSHM + cast vs PSHM: {row:?}");
            assert_eq!(row[5], row[4], "pthr+PSHM + cast vs pthr+PSHM: {row:?}");
        }
        // Panel (b): at 8 threads the pthreads exchange is slower than the
        // plain-process base.
        let num = |row: &[String], col: usize| row[col].parse::<f64>().unwrap();
        assert!(num(&b[1], 4) > num(&b[1], 1), "{:?}", b[1]);
    }
}
