//! `hupc-bench` — the experiment harness: one module per table / figure of
//! the thesis' evaluation chapters plus the collectives, serving and
//! workload-registry tables, listed once in [`exp::EXPERIMENTS`].
//!
//! `repro <name>...` prints the regenerated rows/series (next to the
//! thesis' published values where there are any); `all_experiments` runs
//! the whole list; `trace` captures virtual-time traces. Every binary
//! accepts:
//!
//! * `--csv <path>` — also dump machine-readable series;
//! * `--quick` — a reduced sweep (fewer configurations / iterations) for
//!   smoke runs.
//!
//! Host cost is not measured here: the `benchmark/` ledger is the one
//! performance record.

pub mod exp;
pub mod report;

pub use report::{parse_args, Args, Table};
