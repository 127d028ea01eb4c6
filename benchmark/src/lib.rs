//! `hupc-benchmark` — a host-cost + virtual-time ledger for the `hupc`
//! simulator, measured from outside through public functions only.
//!
//! See `benchmark/README.md` for the metric tables and `BENCHMARK.json` at
//! the repo root for the contract the benchmark driver checks.

pub mod child;
pub mod harness;
pub mod metrics;
pub mod probe;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod workloads;
