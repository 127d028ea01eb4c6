//! Run every experiment in sequence, then the workload-registry sweep.
//!
//! * `--quick` — reduced sweeps everywhere (smoke-sized runs);
//! * `--smoke` — skip the `repro` experiments (`exp::EXPERIMENTS`) and run
//!   only the workload sweep (quick), for the CI perf-smoke lane;
//! * `--check <BENCH_apps.json>` — gate the sweep against the committed
//!   baseline: every cell must pass its oracle and the three breadth-wave
//!   apps (`md`, `cg`, `stencil2d`) must stay within 2x of the baseline's
//!   virtual seconds (virtual time is deterministic, so that headroom is
//!   for intentional model changes, not noise).
//!
//! The sweep always writes `BENCH_apps.json` in the working directory —
//! one comparable JSON report of the whole registry.

use hupc_bench::{baseline_metrics, enforce_gates, Gate};

const GATED_SECONDS: [&str; 3] = ["md_seconds", "cg_seconds", "stencil2d_seconds"];

fn main() {
    let args = hupc_bench::parse_args();
    let baseline = args
        .check
        .as_ref()
        .map(|p| baseline_metrics(p, &GATED_SECONDS));

    if !args.smoke {
        for (name, f) in hupc_bench::exp::EXPERIMENTS {
            eprintln!("[running {name} ...]");
            let t0 = std::time::Instant::now();
            let tables = f(args.quick);
            hupc_bench::report::emit(&args, &tables);
            eprintln!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
        }
    }

    eprintln!("[running workload sweep ...]");
    let t0 = std::time::Instant::now();
    let (tables, m) = hupc_bench::exp::apps::run(args.quick || args.smoke);
    hupc_bench::report::emit(&args, &tables);
    eprintln!("[workload sweep done in {:.1}s]", t0.elapsed().as_secs_f64());

    std::fs::write("BENCH_apps.json", m.to_json()).expect("cannot write BENCH_apps.json");
    eprintln!("[wrote BENCH_apps.json]");

    if let Some(base) = baseline {
        let now = [m.md_seconds, m.cg_seconds, m.stencil2d_seconds];
        let mut gates = vec![Gate::at_least("passed_runs", m.passed_runs, m.total_runs)];
        gates.extend(
            GATED_SECONDS
                .iter()
                .zip(now)
                .zip(&base)
                .map(|((key, now), base)| Gate::at_most(*key, now, base * 2.0)),
        );
        enforce_gates(&[("total_runs", m.total_runs)], &gates);
    } else if m.passed_runs < m.total_runs {
        // Even without a baseline, a failing oracle is a hard error.
        eprintln!(
            "WORKLOAD FAILURE: {}/{} sweep cells passed",
            m.passed_runs, m.total_runs
        );
        std::process::exit(1);
    }
}
