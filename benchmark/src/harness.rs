//! Parent side: re-execute this binary as fresh child processes, one at a
//! time, and turn what they print into the benchmark's metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::LADDER;
use crate::metrics::{Across, Kind, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::{Level, Scale};

/// Process-global knobs of the code under test. A value leaking in from the
/// caller's shell would silently change what every child measures.
pub const SCRUBBED_ENV: [&str; 4] = [
    "HUPC_SIM_BACKEND",
    "HUPC_ACTOR_BACKEND",
    "HUPC_COLL_PLAN",
    "HUPC_BLESS",
];

/// Untraced children per run: as many as fit in the time budget, within
/// these limits (an odd count in the middle keeps the median a real sample).
pub const MIN_CHILDREN: usize = 3;
pub const MAX_CHILDREN: usize = 9;

/// How children are launched.
#[derive(Clone, Debug)]
pub struct Launch {
    pub exe: PathBuf,
    pub seed: u64,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// What one child measured.
#[derive(Clone, Debug, Default)]
pub struct ChildOut {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Parse a child's stdout (`metric <name> <value>` / `ops <attempted>
/// <failed>` lines). Anything else is a protocol error.
pub fn parse_child_output(text: &str) -> Result<ChildOut, String> {
    let mut out = ChildOut::default();
    let mut saw_ops = false;
    for line in text.lines() {
        let f: Vec<&str> = line.split_ascii_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value] => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric value in {line:?}"))?;
                out.metrics.insert(name.to_string(), v);
            }
            ["ops", attempted, failed] => {
                out.attempted = attempted
                    .parse()
                    .map_err(|_| format!("bad count in {line:?}"))?;
                out.failed = failed
                    .parse()
                    .map_err(|_| format!("bad count in {line:?}"))?;
                saw_ops = true;
            }
            _ => return Err(format!("unexpected child output line {line:?}")),
        }
    }
    if !saw_ops {
        return Err("child printed no `ops` line".to_string());
    }
    Ok(out)
}

/// Run one child to completion. Its stderr passes through; a non-zero exit
/// (oracle mismatch, too-short run, crash) is an error.
pub fn spawn_child(l: &Launch, name: &str, level: Option<Level>) -> Result<ChildOut, String> {
    let mut cmd = Command::new(&l.exe);
    cmd.arg("--child").arg(name);
    cmd.arg("--seed").arg(l.seed.to_string());
    cmd.arg("--out-dir").arg(&l.out_dir);
    match level {
        None => {}
        Some(Level::Counters) => {
            cmd.args(["--trace", "counters"]);
        }
        Some(Level::Full) => {
            cmd.args(["--trace", "full"]);
        }
    }
    if l.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {name} failed: {}", out.status));
    }
    parse_child_output(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("child {name}: {e}"))
}

/// Every `Exact` metric two or more of `children` report must be the same
/// in all of them, bit for bit: virtual time and counts are a function of
/// (code, seed), whatever the host did and whether or not a tracer watched.
pub fn check_exact(children: &[&ChildOut]) -> Result<(), String> {
    for m in PER_LAYER.iter().filter(|m| m.kind == Kind::Exact) {
        let mut seen: Option<f64> = None;
        for c in children {
            let Some(&v) = c.metrics.get(m.name) else {
                continue;
            };
            match seen {
                Some(first) if first.to_bits() != v.to_bits() => {
                    return Err(format!(
                        "non-deterministic {}: {first} in one child, {v} in another",
                        m.name
                    ));
                }
                _ => seen = Some(v),
            }
        }
    }
    Ok(())
}

/// The untraced children of one workload run.
pub struct Untraced {
    pub children: Vec<ChildOut>,
}

impl Untraced {
    /// Spawn fresh untraced children one after another for about `seconds`
    /// of wall time (at least `min_children`), then check they agree on
    /// everything exact.
    pub fn run(
        l: &Launch,
        workload: &str,
        seconds: f64,
        min_children: usize,
    ) -> Result<Untraced, String> {
        let start = Instant::now();
        let mut children = Vec::new();
        loop {
            let t0 = Instant::now();
            let child = spawn_child(l, workload, None)?;
            let shown: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| Some(format!("{} {}", m.name, child.metrics.get(m.name)?)))
                .collect();
            eprintln!(
                "{workload} child {}: {}",
                children.len() + 1,
                shown.join(", ")
            );
            children.push(child);
            let last = t0.elapsed().as_secs_f64();
            let n = children.len();
            let another_fits = start.elapsed().as_secs_f64() + last <= seconds;
            if n >= MAX_CHILDREN || (n >= min_children && !another_fits) {
                break;
            }
        }
        check_exact(&children.iter().collect::<Vec<_>>())?;
        Ok(Untraced { children })
    }

    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.children
            .iter()
            .filter_map(|c| c.metrics.get(metric).copied())
            .collect()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(&self.samples(metric))
    }

    /// This run's value of one end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> f64 {
        let samples = self.samples(name);
        match END_TO_END.iter().find(|m| m.name == name).map(|m| m.across) {
            Some(Across::Lowest) => samples.iter().copied().fold(f64::INFINITY, f64::min),
            _ => median(&samples),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.children.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.children.iter().map(|c| c.failed).sum()
    }
}

/// The per-layer metrics of one workload: an untraced base, one `Counters`
/// child, one `Full` child, and the ladder.
pub struct Traced {
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run_ladder(l: &Launch) -> Result<ChildOut, String> {
    spawn_child(l, LADDER, None)
}

impl Traced {
    pub fn run(
        l: &Launch,
        workload: &str,
        base: &Untraced,
        ladder: &ChildOut,
    ) -> Result<Traced, String> {
        let counters = spawn_child(l, workload, Some(Level::Counters))?;
        let full = spawn_child(l, workload, Some(Level::Full))?;
        let mut all: Vec<&ChildOut> = base.children.iter().collect();
        all.extend([&counters, &full]);
        check_exact(&all)?;

        // Host-time numbers come from the untraced base (medians); exact ones
        // agree everywhere, so whichever child has them will do.
        let mut per_layer = BTreeMap::new();
        for m in PER_LAYER {
            let from_base = base.summary(m.name).map(|s| s.median);
            let v = from_base
                .or_else(|| counters.metrics.get(m.name).copied())
                .or_else(|| full.metrics.get(m.name).copied())
                .or_else(|| ladder.metrics.get(m.name).copied());
            per_layer.insert(m.name.to_string(), v.unwrap_or(0.0));
        }
        let base_cpu = median(&base.samples("host_cpu_s"));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut derive = |name: &str, v: f64| per_layer.insert(name.to_string(), v);
        let traced_cpu = |c: &ChildOut| c.metrics.get("host_cpu_s").copied().unwrap_or(0.0);
        derive(
            "trace.counters_overhead_ratio",
            ratio(traced_cpu(&counters), base_cpu),
        );
        derive(
            "trace.full_overhead_ratio",
            ratio(traced_cpu(&full), base_cpu),
        );
        let virt_s = median(&base.samples("virt_s"));
        derive("sim.virt_s_per_cpu_s", ratio(virt_s, base_cpu));
        let events = median(&base.samples("sim.events"));
        derive("sim.cpu_ns_per_event", ratio(base_cpu * 1e9, events));

        Ok(Traced {
            per_layer,
            attempted: counters.attempted + full.attempted + base.attempted(),
            failed: counters.failed + full.failed + base.failed(),
        })
    }
}

/// `benchmark/out` under the current directory: the driver runs the command
/// from the checkout's root, and may write only inside the checkout.
pub fn default_out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}
