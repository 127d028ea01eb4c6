//! Fig 3.3 — UTS parallel scalability on 16 nodes (8-way SMPs), InfiniBand
//! and Ethernet, three stealing strategies.

use hupc::net::Conduit;
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::Table;

pub const STRATEGIES: [StealStrategy; 3] = [
    StealStrategy::Random,
    StealStrategy::LocalFirst,
    StealStrategy::LocalFirstRapid,
];

pub fn run(quick: bool) -> Vec<Table> {
    let threads: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let mut tables = Vec::new();
    for (label, conduit) in [
        ("InfiniBand (DDR), steal granularity 8", Conduit::ib_ddr()),
        ("Ethernet (GigE), steal granularity 20", Conduit::gige()),
    ] {
        let mut t = Table::new(
            format!("Fig 3.3 — UTS throughput (Mnodes/s), 16 Pyramid nodes, {label}"),
            &["threads", "Baseline", "Local-stealing", "Local+Rapid-diffusion"],
        );
        for &n in threads {
            let mut cells = vec![n.to_string()];
            for s in STRATEGIES {
                let r = run_uts(UtsConfig::thesis(n, conduit.clone(), s));
                cells.push(format!("{:.1}", r.mnodes_per_sec));
            }
            t.row(cells);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick slice's throughput at its measured values, pinned exactly
    /// as printed (virtual time is deterministic). Rapid diffusion beats the
    /// baseline on every row; local stealing alone does not at InfiniBand
    /// 32 threads (54.2 against 54.3), so that ordering is not asserted.
    #[test]
    #[ignore = "about 4 s in release; CI runs it with --release"]
    fn quick_figure_pins_throughput_and_rapid_diffusion_wins() {
        // Per conduit: (threads, Baseline, Local-stealing, Local+Rapid) Mnodes/s.
        let want = [
            [
                ["16", "31.7", "34.2", "40.9"],
                ["32", "54.3", "54.2", "74.4"],
            ],
            [
                ["16", "12.7", "15.5", "27.5"],
                ["32", "17.8", "24.7", "36.0"],
            ],
        ];
        let tables = run(true);
        assert_eq!(tables.len(), want.len());
        for (table, want) in tables.iter().zip(want) {
            assert_eq!(table.rows, want.map(|row| row.map(String::from).to_vec()));
            for row in &table.rows {
                let num = |col: usize| row[col].parse::<f64>().unwrap();
                assert!(
                    num(3) > num(1),
                    "{}: {} threads: {row:?}",
                    table.title,
                    row[0]
                );
            }
        }
    }
}
