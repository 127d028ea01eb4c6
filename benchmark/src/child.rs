//! One fresh process per measurement: run a workload (or the ladder) once,
//! print what was measured on stdout, write the traced run's spans to disk.
//!
//! A simulator user pays process start-up, first-touch page faults and
//! stack allocation on every run, so the benchmark pays them too; a fresh
//! process also gives a clean `VmHWM` and no leaked process-global state.

use std::path::{Path, PathBuf};

use crate::probe::{spans_json, Probe};
use crate::procfs;
use crate::workloads::{run_ladder, run_workload, Level, Scale};

/// The pseudo-workload name of the layer ladder.
pub const LADDER: &str = "ladder";

/// A workload child whose timed section used less CPU than this measured
/// noise, not the workload: refuse it (ROADMAP: "a 1 ms run is a bug in the
/// bench"). Smoke runs are exempt.
pub const MIN_TIMED_CPU_S: f64 = 1.0;

/// Exit codes a parent can tell apart.
pub const EXIT_ORACLE: u8 = 2;
pub const EXIT_TOO_SHORT: u8 = 3;
pub const EXIT_USAGE: u8 = 64;

pub struct ChildArgs {
    pub name: String,
    pub seed: u64,
    pub level: Option<Level>,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// Run the child; returns the process exit code.
pub fn run(args: &ChildArgs) -> u8 {
    let mut p = Probe::new();
    if args.name == LADDER {
        run_ladder(args.scale, &mut p);
    } else if let Err(e) = run_workload(&args.name, args.seed, args.scale, args.level, &mut p) {
        eprintln!("{e}");
        return EXIT_USAGE;
    }
    p.put("peak_rss_mb", procfs::self_peak_rss_mb());
    p.put(
        "ops_failed_ratio",
        p.failed as f64 / p.attempted.max(1) as f64,
    );

    if p.mismatches > 0 {
        eprintln!(
            "{}: {} oracle mismatch(es) in {} checks",
            args.name, p.mismatches, p.attempted
        );
        return EXIT_ORACLE;
    }
    if args.scale == Scale::Full && args.name != LADDER && p.timed_cpu_s() < MIN_TIMED_CPU_S {
        eprintln!(
            "{}: timed section used {:.3} s CPU, under the {MIN_TIMED_CPU_S} s floor — \
             the workload is too small to measure on this host",
            args.name,
            p.timed_cpu_s()
        );
        return EXIT_TOO_SHORT;
    }
    if args.level == Some(Level::Full) {
        if let Err(e) = write_trace(args, &p) {
            eprintln!("{}: cannot write trace: {e}", args.name);
            return 1;
        }
    }
    for (name, value) in p.metrics() {
        println!("metric {name} {value}");
    }
    println!("ops {} {}", p.attempted, p.failed);
    0
}

/// `<out_dir>/<workload>.trace.json`: the spans, and every metric the traced
/// child measured (counts, shares, its own inflated host times).
fn write_trace(args: &ChildArgs, p: &Probe) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let metrics: Vec<String> = p
        .metrics()
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace_level\": \"full\",\n  \
         \"spans\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        args.name,
        args.seed,
        spans_json(p.spans()),
        metrics.join(",\n")
    );
    std::fs::write(trace_path(&args.out_dir, &args.name), body)
}

pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}.trace.json"))
}
