//! What the command prints: the driver's one-line JSON result, the
//! human-readable ledger, the ladder-based host attribution, the A/A table.

use std::collections::BTreeMap;

use crate::harness::{Traced, Untraced};
use crate::metrics::{per_layer, Better, Kind, END_TO_END, PER_LAYER};
use crate::procfs::host_header;

/// The driver's result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Always `correct`: a run whose outputs failed verification exits non-zero
/// and prints no result at all.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn print_header(seed: u64, mode: &str) {
    println!("# hupc benchmark — {mode}, seed {seed}");
    for (k, v) in host_header() {
        println!("# {k}: {v}");
    }
}

/// Everything measured for one workload in one set of runs.
pub struct WorkloadReport {
    pub workload: &'static str,
    pub untraced: Untraced,
    pub traced: Traced,
}

impl WorkloadReport {
    pub fn print(&self) {
        println!("\n== {} ==", self.workload);
        println!("end-to-end (untraced children)");
        println!(
            "  {:<16} {:<6} {:>14} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}",
            "metric", "unit", "reported", "median", "q1", "q3", "n", "spread", "bound"
        );
        for m in END_TO_END {
            if let Some(s) = self.untraced.summary(m.name) {
                println!(
                    "  {:<16} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>7.2}% {:>6}",
                    m.name,
                    m.unit,
                    self.untraced.end_to_end(m.name),
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    100.0 * s.spread(),
                    m.bound
                );
            }
        }
        println!(
            "  ops: {} attempted, {} failed",
            self.untraced.attempted(),
            self.untraced.failed()
        );
        println!("per-layer (host: untraced medians, ladder and traced runs n=1; exact: all children agree)");
        for m in PER_LAYER {
            let v = self.traced.per_layer.get(m.name).copied().unwrap_or(0.0);
            let n = self.untraced.summary(m.name).map_or(1, |s| s.n);
            let kind = match m.kind {
                Kind::Host => "host",
                Kind::Exact => "exact",
            };
            println!(
                "  {:<36} {:<14} {:>18.6} {:>3} {kind}",
                m.name, m.unit, v, n
            );
        }
        self.print_attribution();
    }

    /// Host self-time per layer, estimated without touching the program: a
    /// layer's cost per operation is its ladder rung minus the rung below,
    /// multiplied by the exact operation counts of the traced run. What the
    /// ladder cannot see (scheduling between actors, app bookkeeping,
    /// allocation) stays in the residual, which is printed, not hidden.
    fn print_attribution(&self) {
        let g = |name: &str| self.traced.per_layer.get(name).copied().unwrap_or(0.0);
        let aux = |name: &str| crate::stats::median(&self.untraced.samples(name));
        let over = |hi: &str, lo: &str| (g(hi) - g(lo)).max(0.0);
        let (puts, gets) = (g("gasnet.puts"), g("gasnet.gets"));
        let comm = puts + gets;
        let sim_ns = if g("sim.handoffs") > 0.0 {
            // The engine reported its own counts: price them directly.
            g("sim.handoffs") * g("sim.handoff_1k_host_ns")
                + g("sim.fast_path_hits") * g("sim.simcall_host_ns")
        } else {
            comm * g("sim.simcall_host_ns")
        };
        let sha1_ns = 1e3 * aux("aux.uts_hashed_bytes") / g("uts.sha1_mb_s").max(1e-9);
        let fft_ns = 1e3 * aux("aux.fft_flops") / g("fft.kernel_mflops").max(1e-9);
        let rows = [
            ("sim", sim_ns),
            (
                "net",
                comm * over("net.inject_host_ns", "sim.simcall_host_ns"),
            ),
            (
                "gasnet",
                puts * over("gasnet.put8_host_ns", "net.inject_host_ns")
                    + gets * over("gasnet.get8_host_ns", "net.inject_host_ns")
                    + g("gasnet.put_bytes") / 65536.0
                        * over("gasnet.put64k_host_ns", "gasnet.put8_host_ns"),
            ),
            (
                "upc",
                comm * over("upc.memput8_host_ns", "gasnet.put8_host_ns")
                    + g("upc.locks") * g("upc.lock_host_ns")
                    + g("gasnet.barriers") * g("upc.barrier64_host_ns") / 64.0,
            ),
            ("app kernel (sha1 / fft)", sha1_ns + fft_ns),
        ];
        let total_s = self.untraced.end_to_end("host_cpu_s");
        println!(
            "host attribution (estimate: ladder self-cost x exact counts; total {total_s:.3} s)"
        );
        let mut explained = 0.0;
        for (layer, ns) in rows {
            let s = ns / 1e9;
            explained += s;
            println!("  {layer:<36} {s:>10.3} s {:>6.1}%", pct(s, total_s));
        }
        let residual = total_s - explained;
        println!(
            "  {:<36} {residual:>10.3} s {:>6.1}%",
            "residual (unexplained)",
            pct(residual, total_s)
        );
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Share by which `b` is worse than `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A: two sets of runs of the same build must agree within the
/// benchmark's own bounds, and on every exact number exactly.
pub fn print_aa(first: &[WorkloadReport], second: &[WorkloadReport]) -> bool {
    let mut pass = true;
    println!("\n== A/A: two sets of runs of the same build ==");
    println!(
        "  {:<12} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for m in END_TO_END {
            let (ma, mb) = (a.untraced.end_to_end(m.name), b.untraced.end_to_end(m.name));
            let diff = worsening(m.better, ma, mb).abs();
            let ok = diff <= m.bound;
            pass &= ok;
            println!(
                "  {:<12} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6}  {}",
                a.workload,
                m.name,
                ma,
                mb,
                100.0 * diff,
                m.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        let differing = exact_differences(&a.traced.per_layer, &b.traced.per_layer);
        pass &= differing.is_empty();
        println!(
            "  {:<12} exact per-layer metrics: {}",
            a.workload,
            if differing.is_empty() {
                "identical  PASS".to_string()
            } else {
                format!("DIFFER {differing:?}  FAIL")
            }
        );
    }
    println!("A/A verdict: {}", if pass { "PASS" } else { "FAIL" });
    pass
}

/// Names of the exact per-layer metrics on which two sets disagree.
pub fn exact_differences(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> Vec<String> {
    a.iter()
        .filter(|(name, _)| per_layer(name).is_some_and(|m| m.kind == Kind::Exact))
        .filter(|(name, v)| b.get(*name).map(|w| w.to_bits()) != Some(v.to_bits()))
        .map(|(name, _)| name.clone())
        .collect()
}
