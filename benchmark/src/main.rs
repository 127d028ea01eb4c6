//! Command line of the benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — what the benchmark
//!   driver runs: one workload, one JSON result as the last stdout line;
//! * no `--workload` — the whole ledger for people: every workload untraced
//!   and traced plus the ladder, every metric by name; `--aa` does it twice
//!   and compares the two sets against the benchmark's own bounds;
//! * `--child NAME` — what the two modes above re-execute: one measurement
//!   in a fresh process.

use std::path::PathBuf;
use std::process::ExitCode;

use hupc_benchmark::child::{self, ChildArgs, EXIT_USAGE};
use hupc_benchmark::harness::{
    default_out_dir, run_ladder, Launch, Traced, Untraced, MIN_CHILDREN,
};
use hupc_benchmark::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use hupc_benchmark::report::{print_aa, print_header, result_json, WorkloadReport};
use hupc_benchmark::workloads::{Level, Scale};

#[derive(Default)]
struct Args {
    child: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<String>,
    smoke: bool,
    aa: bool,
    print_json: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--child" => a.child = Some(value("a name")?),
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seconds takes a number".to_string())?,
                )
            }
            "--trace" => a.trace = Some(value("a level")?),
            "--out-dir" => a.out_dir = Some(PathBuf::from(value("a path")?)),
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--print-benchmark-json" => a.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.print_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let out_dir = args.out_dir.clone().unwrap_or_else(default_out_dir);

    if let Some(name) = &args.child {
        let level = match args.trace.as_deref() {
            None => None,
            Some("counters") => Some(Level::Counters),
            Some("full") => Some(Level::Full),
            Some(other) => {
                eprintln!("--child takes --trace counters|full, not {other:?}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        return ExitCode::from(child::run(&ChildArgs {
            name: name.clone(),
            seed: args.seed,
            level,
            scale,
            out_dir,
        }));
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find my own executable to re-execute: {e}");
            return ExitCode::FAILURE;
        }
    };
    let launch = Launch {
        exe,
        seed: args.seed,
        scale,
        out_dir,
    };
    let seconds = args.seconds.unwrap_or(match scale {
        Scale::Full => RUN_SECONDS as f64,
        Scale::Smoke => 0.0,
    });
    let outcome = match &args.workload {
        Some(w) => driver_run(&launch, w, seconds, args.trace.as_deref()),
        None => ledger(&launch, seconds, args.aa),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload, one JSON line: end-to-end metrics with `--trace 0`,
/// per-layer metrics with `--trace 1`.
fn driver_run(
    l: &Launch,
    workload: &str,
    seconds: f64,
    trace: Option<&str>,
) -> Result<bool, String> {
    let def = metrics::workload(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let traced = match trace {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let line = if traced {
        // One untraced child is the base the tracing overhead is taken against.
        let base = Untraced::run(l, def.name, 0.0, 1)?;
        let ladder = run_ladder(l)?;
        let t = Traced::run(l, def.name, &base, &ladder)?;
        let metrics: Vec<(String, f64, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), t.per_layer[m.name], m.unit))
            .collect();
        result_json(t.attempted, t.failed, &metrics)
    } else {
        let u = Untraced::run(l, def.name, seconds, MIN_CHILDREN)?;
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), u.end_to_end(m.name), m.unit))
            .collect();
        result_json(u.attempted(), u.failed(), &metrics)
    };
    println!("{line}");
    Ok(true)
}

/// One full set of runs: every workload untraced then traced, one ladder.
fn run_set(l: &Launch, seconds: f64) -> Result<Vec<WorkloadReport>, String> {
    let ladder = run_ladder(l)?;
    WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("running {} ...", w.name);
            let untraced = Untraced::run(l, w.name, seconds, MIN_CHILDREN)?;
            let traced = Traced::run(l, w.name, &untraced, &ladder)?;
            Ok(WorkloadReport {
                workload: w.name,
                untraced,
                traced,
            })
        })
        .collect()
}

fn ledger(l: &Launch, seconds: f64, aa: bool) -> Result<bool, String> {
    print_header(l.seed, if aa { "A/A ledger" } else { "ledger" });
    let first = run_set(l, seconds)?;
    for r in &first {
        r.print();
    }
    if !aa {
        return Ok(true);
    }
    let second = run_set(l, seconds)?;
    for r in &second {
        r.print();
    }
    Ok(print_aa(&first, &second))
}
