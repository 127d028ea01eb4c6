//! Table 3.1 — the twisted STREAM triad: pointer-to-shared translation vs
//! privatized access on one dual-socket Nehalem node.

use hupc::stream::{run_twisted_triad, TriadVariant, TwistedConfig};

use crate::Table;

/// Thesis values (GB/s), same row order as [`TriadVariant::all`].
pub const PAPER: [f64; 4] = [3.2, 7.2, 23.2, 23.4];

pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Table 3.1 — Twisted STREAM Triad, 8 threads, 2×Nehalem, bound",
        &["variant", "measured GB/s", "thesis GB/s", "max |err|"],
    );
    for (v, paper) in TriadVariant::all().into_iter().zip(PAPER) {
        let mut cfg = TwistedConfig::table_3_1(v);
        if quick {
            cfg.elems_per_thread = 1 << 15;
            cfg.iters = 3;
        }
        let r = run_twisted_triad(cfg);
        t.row(vec![
            r.variant.clone(),
            format!("{:.1}", r.gbps),
            format!("{paper:.1}"),
            format!("{:.1e}", r.max_error),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick slice at its measured values, pinned exactly as printed
    /// (the triad's bandwidth is charged by the model, so only a model
    /// change moves it). The orderings are the thesis' claims: translation
    /// costs the baseline ≥ 7× against the cast, re-localization recovers
    /// part of it, and the cast matches OpenMP.
    #[test]
    #[ignore = "about 0.1 s in release; CI runs it with --release"]
    fn quick_table_pins_translation_gap_and_cast_parity() {
        // (variant, measured GB/s, thesis GB/s, max |err|)
        let want = [
            ["UPC baseline", "3.3", "3.2", "0.0e0"],
            ["UPC with re-localization", "8.2", "7.2", "0.0e0"],
            ["UPC with cast", "24.6", "23.2", "0.0e0"],
            ["OpenMP baseline", "24.4", "23.4", "0.0e0"],
        ];
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        let rows = &tables[0].rows;
        assert_eq!(*rows, want.map(|row| row.map(String::from).to_vec()));
        let gbps = |i: usize| rows[i][1].parse::<f64>().unwrap();
        let (baseline, reloc, cast, openmp) = (gbps(0), gbps(1), gbps(2), gbps(3));
        assert!(baseline < reloc && reloc < cast, "{baseline} < {reloc} < {cast}");
        assert!(cast >= 7.0 * baseline, "translation gap {:.2}x", cast / baseline);
        assert!((cast - openmp).abs() <= 0.05 * openmp, "cast {cast} vs OpenMP {openmp}");
    }
}
