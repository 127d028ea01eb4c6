//! Engine microbenchmark: simcall throughput with the scheduler-bypass fast
//! path on vs off, handoff latency and actor scale.
//!
//! Always writes `BENCH_simcore.json` in the working directory. With
//! `--check <baseline.json>` the run fails (exit 1) when any gate trips:
//!
//! * simcall throughput below half the baseline's;
//! * scheduler handoff latency more than double the baseline's, for the
//!   two-actor ping-pong or for 1024 actors round-robin (the second is the
//!   one that notices a dispatch path gone cache-hostile).
//!
//! On failure every gate's measured value, bound and verdict is printed as
//! one JSON line so CI logs capture the whole picture in one grep — not
//! just whichever gate happened to trip first.

use hupc_bench::{baseline_metrics, enforce_gates, Gate};

fn main() {
    let args = hupc_bench::parse_args();
    // Read the baseline up front: `--check BENCH_simcore.json` compares
    // against the committed file this run is about to overwrite.
    let baseline = args
        .check
        .as_ref()
        .map(|p| baseline_metrics(p, &["simcalls_per_sec_fast", "handoff_ns", "handoff_1k_ns"]));

    let (tables, metrics) = hupc_bench::exp::simcore::run(args.quick);
    hupc_bench::report::emit(&args, &tables);

    std::fs::write("BENCH_simcore.json", metrics.to_json())
        .expect("cannot write BENCH_simcore.json");
    eprintln!("[wrote BENCH_simcore.json]");

    if let Some(base) = baseline {
        enforce_gates(
            &[],
            &[
                Gate::at_least(
                    "simcalls_per_sec_fast",
                    metrics.simcalls_per_sec_fast,
                    base[0] / 2.0,
                ),
                Gate::at_most("handoff_ns", metrics.handoff_ns, base[1] * 2.0),
                Gate::at_most("handoff_1k_ns", metrics.handoff_1k_ns, base[2] * 2.0),
            ],
        );
    }
}
