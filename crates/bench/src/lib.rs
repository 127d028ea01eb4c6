//! `hupc-bench` — the experiment harness: one module per table / figure of
//! the thesis' evaluation chapters, listed once in [`exp::EXPERIMENTS`].
//!
//! `repro <name>...` prints the regenerated rows/series next to the thesis'
//! published values; `all_experiments` runs the full list plus the
//! workload-registry sweep. Every binary accepts:
//!
//! * `--csv <path>` — also dump machine-readable series;
//! * `--quick` — a reduced sweep (fewer configurations / iterations) for
//!   smoke runs.

pub mod exp;
pub mod report;

pub use report::{
    baseline_metrics, check_gates, enforce_gates, json_number, parse_args, Args, Gate, Table,
};
