//! `hupc-check` CLI — explore runtime schedules, replay minimal failing
//! ones, and police the committed regression corpus.
//!
//! ```text
//! hupc-check list
//! hupc-check explore [--scenario NAME]... [--budget N] [--seed S]
//!                    [--min-distinct N] [--max-seconds S]
//!                    [--shrink-budget N] [--keep-going] [--out DIR]
//! hupc-check mutation [--budget N] [--out DIR]
//! hupc-check replay FILE...
//! hupc-check corpus [DIR]
//! ```
//!
//! Exit status is nonzero when any invariant is violated, a mutation goes
//! uncaught, a corpus entry stops reproducing, or a `--min-distinct` floor
//! is missed — so every subcommand is CI-gateable as-is.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use hupc_check::{
    all_scenarios, explore, find_scenario, Artifact, ExploreConfig, Scenario,
    ARTIFACT_EXT,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    let ok = match cmd {
        "list" => cmd_list(),
        "explore" => cmd_explore(&rest),
        "mutation" => cmd_mutation(&rest),
        "replay" => cmd_replay(&rest),
        "corpus" => cmd_corpus(&rest),
        "help" | "--help" | "-h" => {
            usage();
            true
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() {
    eprintln!(
        "hupc-check — bounded schedule exploration over the hupc runtime\n\
         \n\
         commands:\n\
         \x20 list                      show scenarios and their fault plans\n\
         \x20 explore [opts]            explore schedules, shrink + save any failure\n\
         \x20 mutation [opts]           require the seeded ordering bugs to be caught\n\
         \x20 replay FILE...            replay schedule artifacts\n\
         \x20 corpus [DIR]              replay every committed corpus entry\n\
         \n\
         explore options:\n\
         \x20 --scenario NAME    limit to one scenario (repeatable)\n\
         \x20 --budget N         schedules per scenario per fault plan (default 200)\n\
         \x20 --seed S           random-stage seed (default 0xC0FFEE)\n\
         \x20 --min-distinct N   fail unless >= N distinct schedules per scenario\n\
         \x20 --max-seconds S    wall-clock cap per scenario\n\
         \x20 --shrink-budget N  extra runs for shrinking a failure (default 400)\n\
         \x20 --keep-going       continue a scenario after its first failure\n\
         \x20 --out DIR          write failure artifacts here (default check_failures)"
    );
}

struct Opts {
    scenarios: Vec<String>,
    cfg: ExploreConfig,
    min_distinct: Option<usize>,
    out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        scenarios: Vec::new(),
        cfg: ExploreConfig::default(),
        min_distinct: None,
        out: PathBuf::from("check_failures"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scenario" => o.scenarios.push(val("--scenario")?.clone()),
            "--budget" => {
                o.cfg.budget = val("--budget")?
                    .parse()
                    .map_err(|_| "bad --budget".to_string())?
            }
            "--seed" => {
                o.cfg.seed = val("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--shrink-budget" => {
                o.cfg.shrink_budget = val("--shrink-budget")?
                    .parse()
                    .map_err(|_| "bad --shrink-budget".to_string())?
            }
            "--min-distinct" => {
                o.min_distinct = Some(
                    val("--min-distinct")?
                        .parse()
                        .map_err(|_| "bad --min-distinct".to_string())?,
                )
            }
            "--max-seconds" => {
                let s: u64 = val("--max-seconds")?
                    .parse()
                    .map_err(|_| "bad --max-seconds".to_string())?;
                o.cfg.max_wall = Some(Duration::from_secs(s));
            }
            "--keep-going" => o.cfg.stop_on_violation = false,
            "--out" => o.out = PathBuf::from(val("--out")?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn selected(names: &[String], mutations: bool) -> Result<Vec<Box<dyn Scenario>>, String> {
    if names.is_empty() {
        return Ok(all_scenarios()
            .into_iter()
            .filter(|s| s.is_mutation() == mutations)
            .collect());
    }
    names
        .iter()
        .map(|n| find_scenario(n).ok_or_else(|| format!("unknown scenario {n:?}")))
        .collect()
}

fn cmd_list() -> bool {
    println!("{:<16} {:<10} {:<18} description", "scenario", "kind", "fault plans");
    for s in all_scenarios() {
        println!(
            "{:<16} {:<10} {:<18} {}",
            s.name(),
            if s.is_mutation() { "mutation" } else { "invariant" },
            s.fault_labels().join(","),
            s.about()
        );
    }
    true
}

fn write_artifact(dir: &Path, art: &Artifact) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(art.file_name());
    std::fs::write(&path, art.serialize())?;
    Ok(path)
}

fn cmd_explore(args: &[String]) -> bool {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let scenarios = match selected(&o.scenarios, false) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let mut ok = true;
    for s in scenarios {
        let report = explore(s.as_ref(), &o.cfg);
        println!(
            "{:<16} runs={:<6} distinct={:<6} max-decisions={:<4} failures={}",
            report.scenario,
            report.runs,
            report.distinct,
            report.max_decisions,
            report.failures.len()
        );
        if let Some(min) = o.min_distinct {
            if report.distinct < min {
                eprintln!(
                    "FAIL {}: only {} distinct schedules (need >= {min})",
                    report.scenario, report.distinct
                );
                ok = false;
            }
        }
        for f in &report.failures {
            ok = false;
            eprintln!(
                "FAIL {} (fault {} {}): {} — {}",
                f.scenario,
                f.fault,
                f.fault_label,
                f.violation.kind.as_str(),
                f.violation.detail.lines().next().unwrap_or("")
            );
            eprintln!(
                "  found with prefix {:?}, shrunk to {:?} (replay {})",
                f.found,
                f.minimal,
                if f.replay_ok { "deterministic" } else { "UNSTABLE" }
            );
            let art = Artifact::from_failure(f);
            match write_artifact(&o.out, &art) {
                Ok(p) => eprintln!("  artifact: {}", p.display()),
                Err(e) => eprintln!("  could not write artifact: {e}"),
            }
        }
    }
    ok
}

fn cmd_mutation(args: &[String]) -> bool {
    let mut o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    if args.iter().all(|a| a != "--budget") {
        // Mutations are tiny; a small budget finds them in milliseconds.
        o.cfg.budget = 64;
    }
    let scenarios = match selected(&o.scenarios, true) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let mut ok = true;
    for s in scenarios {
        let name = s.name();
        let report = explore(s.as_ref(), &o.cfg);
        let caught = report
            .failures
            .iter()
            .find(|f| f.replay_ok && !f.minimal.is_empty());
        match caught {
            Some(f) => {
                println!(
                    "CAUGHT {name}: {} with minimal schedule {:?} after {} runs \
                     (shrunk from {} decisions)",
                    f.violation.kind.as_str(),
                    f.minimal,
                    report.runs,
                    f.found.len()
                );
                let art = Artifact::from_failure(f);
                if args.iter().any(|a| a == "--out") {
                    match write_artifact(&o.out, &art) {
                        Ok(p) => println!("  artifact: {}", p.display()),
                        Err(e) => {
                            eprintln!("  could not write artifact: {e}");
                            ok = false;
                        }
                    }
                }
            }
            None => {
                eprintln!(
                    "MISSED {name}: seeded ordering bug not caught \
                     ({} runs, {} distinct schedules) — the explorer has regressed",
                    report.runs, report.distinct
                );
                ok = false;
            }
        }
    }
    ok
}

fn replay_file(path: &Path) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL {}: {e}", path.display());
            return false;
        }
    };
    let art = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("FAIL {}: {e}", path.display());
            return false;
        }
    };
    match art.replay() {
        Ok(v) => {
            println!(
                "OK   {}: {} reproduces ({})",
                path.display(),
                v.kind.as_str(),
                v.detail.lines().next().unwrap_or("")
            );
            true
        }
        Err(e) => {
            eprintln!("FAIL {}: {e}", path.display());
            false
        }
    }
}

fn cmd_replay(args: &[String]) -> bool {
    if args.is_empty() {
        eprintln!("replay: need at least one artifact file");
        return false;
    }
    let mut ok = true;
    for a in args {
        ok &= replay_file(Path::new(a));
    }
    ok
}

fn cmd_corpus(args: &[String]) -> bool {
    let dir = match args.first() {
        Some(d) => PathBuf::from(d),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus"),
    };
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == ARTIFACT_EXT))
            .collect(),
        Err(e) => {
            eprintln!("corpus: cannot read {}: {e}", dir.display());
            return false;
        }
    };
    entries.sort();
    if entries.is_empty() {
        eprintln!("corpus: no .{ARTIFACT_EXT} entries in {}", dir.display());
        return false;
    }
    let mut ok = true;
    for p in &entries {
        ok &= replay_file(p);
    }
    println!("corpus: {} entries checked", entries.len());
    ok
}
