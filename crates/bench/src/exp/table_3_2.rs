//! Table 3.2 — UTS profiling: overall improvement and local-steal ratios,
//! baseline vs optimized (local-stealing + rapid diffusion).

use hupc::net::Conduit;
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::Table;

/// Thesis values per row `(threads, overall %, base local %, opt local %)`.
pub const PAPER_IB: [(usize, f64, f64, f64); 3] = [
    (32, 3.4, 36.2, 59.0),
    (64, 7.1, 58.1, 82.9),
    (128, 11.2, 72.2, 90.9),
];
pub const PAPER_ETH: [(usize, f64, f64, f64); 3] = [
    (32, 49.4, 18.2, 57.8),
    (64, 66.5, 40.5, 81.1),
    (128, 99.5, 58.1, 89.7),
];

pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Table 3.2 — UTS profiling, 16 Pyramid nodes (optimized = local-stealing + rapid-diffusion)",
        &[
            "config",
            "improvement %",
            "thesis %",
            "local steal % (base)",
            "thesis",
            "local steal % (opt)",
            "thesis",
        ],
    );
    for (name, conduit, rows) in [
        ("Infiniband", Conduit::ib_ddr(), PAPER_IB),
        ("Ethernet", Conduit::gige(), PAPER_ETH),
    ] {
        for (threads, p_imp, p_base, p_opt) in rows {
            if quick && threads > 32 {
                continue;
            }
            let base = run_uts(UtsConfig::thesis(
                threads,
                conduit.clone(),
                StealStrategy::Random,
            ));
            let opt = run_uts(UtsConfig::thesis(
                threads,
                conduit.clone(),
                StealStrategy::LocalFirstRapid,
            ));
            let imp = (base.seconds / opt.seconds - 1.0) * 100.0;
            t.row(vec![
                format!("{name} {threads}/{}", threads / 16),
                format!("{imp:.1}"),
                format!("{p_imp:.1}"),
                format!("{:.1}", 100.0 * base.local_steal_ratio()),
                format!("{p_base:.1}"),
                format!("{:.1}", 100.0 * opt.local_steal_ratio()),
                format!("{p_opt:.1}"),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick slice at its measured values. Virtual time is
    /// deterministic, so each cell is pinned exactly as printed: a model
    /// change that moves one fails here and is updated on purpose. The
    /// InfiniBand improvement (37.1 % against the thesis' 3.4 %) is the
    /// standing magnitude deviation; the orderings are the thesis' claims.
    #[test]
    #[ignore = "about 1.5 s in release; CI runs it with --release"]
    fn quick_table_pins_improvement_and_local_steal_shares() {
        // (config, improvement %, local steal % base, local steal % opt)
        let want = [
            ("Infiniband 32/2", "37.1", "20.5", "43.8"),
            ("Ethernet 32/2", "101.6", "21.4", "46.9"),
        ];
        let tables = run(true);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), want.len());
        for (row, (config, imp, base, opt)) in rows.iter().zip(want) {
            assert_eq!(
                [&row[0], &row[1], &row[3], &row[5]],
                [config, imp, base, opt]
            );
            let num = |col: usize| row[col].parse::<f64>().unwrap();
            // Local-stealing + rapid diffusion beats the baseline...
            assert!(num(1) > 0.0, "{config}: improvement {}", row[1]);
            // ...and takes a larger share of its steals locally.
            assert!(
                num(5) > num(3),
                "{config}: local steal % {} -> {}",
                row[3],
                row[5]
            );
        }
    }
}
