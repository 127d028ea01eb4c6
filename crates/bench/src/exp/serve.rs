//! Serving-latency experiment: throughput-vs-offered-load knee curve and
//! fault-plan tail-latency deltas for the hupc-serve KV service.
//!
//! Everything here is measured in *virtual* time, so the numbers are a
//! deterministic function of the config — the committed baseline gates
//! semantic regressions in the serving path (a scheduling change that
//! doubles p99 fails CI on any host), not host speed.
//!
//! Three sections:
//! 1. **Knee curve** — the open-loop arrival rate sweeps from well under
//!    capacity to past it; achieved throughput flattens while p99/p999
//!    explode, locating the knee the ROADMAP's SLO scenarios care about.
//! 2. **Overload shedding** — the past-knee point rerun with the admission
//!    bound: served p999 collapses back down, demand is shed instead of
//!    queued.
//! 3. **Faults as tail experiments** — the sub-saturation point under a
//!    straggler plan (one node at 3x CPU slowdown): p999 degrades while
//!    p50 barely moves, the classic tail-at-scale signature.

use hupc::serve::{
    run_serve, ArrivalProcess, KeyDist, OpMix, ServeConfig, ServeResult, TrafficConfig,
};
use hupc::prelude::{time, FaultPlan, UpcConfig};

use crate::Table;

/// Gated + reported metrics, flat for `json_number` extraction.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    pub threads: f64,
    /// Knee sweep, lowest offered load first.
    pub offered_krps: [f64; 4],
    pub achieved_krps: [f64; 4],
    pub p50_us: [f64; 4],
    pub p99_us: [f64; 4],
    pub p999_us: [f64; 4],
    /// p99 at the sub-saturation point (gate: ≤ 2x committed baseline).
    pub sub_saturation_p99_us: f64,
    /// Best achieved throughput across the sweep (gate: ≥ baseline / 2).
    pub peak_krps: f64,
    /// Past-knee point rerun with the admission bound.
    pub shed_pct_overload: f64,
    pub shed_p999_us: f64,
    /// Straggler experiment at sub-saturation.
    pub fault_free_p50_us: f64,
    pub fault_free_p999_us: f64,
    pub straggler_p50_us: f64,
    pub straggler_p999_us: f64,
}

impl ServeMetrics {
    pub fn to_json(&self) -> String {
        let mut kv: Vec<(String, f64)> = vec![("threads".into(), self.threads)];
        for i in 0..4 {
            kv.push((format!("offered_krps_{}", i + 1), self.offered_krps[i]));
            kv.push((format!("achieved_krps_{}", i + 1), self.achieved_krps[i]));
            kv.push((format!("p50_us_{}", i + 1), self.p50_us[i]));
            kv.push((format!("p99_us_{}", i + 1), self.p99_us[i]));
            kv.push((format!("p999_us_{}", i + 1), self.p999_us[i]));
        }
        kv.push(("sub_saturation_p99_us".into(), self.sub_saturation_p99_us));
        kv.push(("peak_krps".into(), self.peak_krps));
        kv.push(("shed_pct_overload".into(), self.shed_pct_overload));
        kv.push(("shed_p999_us".into(), self.shed_p999_us));
        kv.push(("fault_free_p50_us".into(), self.fault_free_p50_us));
        kv.push(("fault_free_p999_us".into(), self.fault_free_p999_us));
        kv.push(("straggler_p50_us".into(), self.straggler_p50_us));
        kv.push(("straggler_p999_us".into(), self.straggler_p999_us));
        let body: Vec<String> = kv
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v:.3}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

const US: f64 = 1_000.0; // ns per µs

fn us(ns: u64) -> f64 {
    ns as f64 / US
}

fn base_cfg(quick: bool, mean_gap: hupc::sim::Time, seed: u64) -> ServeConfig {
    ServeConfig {
        upc: UpcConfig::test_default(16, 4),
        traffic: TrafficConfig {
            process: ArrivalProcess::Poisson { mean_gap },
            mix: OpMix::read_heavy(),
            requests_per_frontend: if quick { 120 } else { 400 },
            batch_len: 4,
            keys: KeyDist::Uniform,
            seed,
        },
        partitions_per_thread: 2,
        keys_per_partition: 64,
        epochs: 1,
        shed_after: None,
        apply_ns: 200,
        get_compute_ns: 100,
        poll_gap: time::us(1),
    }
}

fn krps(r: &ServeResult) -> f64 {
    r.throughput_rps() / 1_000.0
}

pub fn run(quick: bool) -> (Vec<Table>, ServeMetrics) {
    let mut m = ServeMetrics {
        threads: 16.0,
        ..Default::default()
    };

    // --- 1. Knee curve -----------------------------------------------------
    // Per-frontend mean inter-arrival gaps, sub-saturation → past the knee.
    let gaps = [time::us(16), time::us(8), time::us(4), time::us(2)];
    let mut knee = Table::new(
        "serve: throughput vs offered load (16 threads / 4 nodes, 70/20/10 GET/PUT/BATCH)",
        &[
            "offered krps",
            "achieved krps",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "shed %",
        ],
    );
    let mut last_result = None;
    for (i, gap) in gaps.iter().enumerate() {
        let r = run_serve(base_cfg(quick, *gap, 0xBE5E ^ i as u64));
        let offered = 16.0 / hupc::sim::time::as_secs_f64(*gap) / 1_000.0;
        m.offered_krps[i] = offered;
        m.achieved_krps[i] = krps(&r);
        m.p50_us[i] = us(r.hist.p50());
        m.p99_us[i] = us(r.hist.p99());
        m.p999_us[i] = us(r.hist.p999());
        knee.row(vec![
            format!("{offered:.0}"),
            format!("{:.0}", m.achieved_krps[i]),
            format!("{:.1}", m.p50_us[i]),
            format!("{:.1}", m.p99_us[i]),
            format!("{:.1}", m.p999_us[i]),
            format!("{:.1}", 100.0 * r.shed as f64 / r.generated as f64),
        ]);
        last_result = Some(r);
    }
    m.sub_saturation_p99_us = m.p99_us[0];
    m.peak_krps = m
        .achieved_krps
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);

    // --- 2. Overload shedding ---------------------------------------------
    let mut shed_cfg = base_cfg(quick, gaps[3], 0xBE5E ^ 3);
    shed_cfg.shed_after = Some(time::us(200));
    let shed_run = run_serve(shed_cfg);
    m.shed_pct_overload = 100.0 * shed_run.shed as f64 / shed_run.generated as f64;
    m.shed_p999_us = us(shed_run.hist.p999());
    let unbounded = last_result.expect("knee sweep ran");
    let mut shed_t = Table::new(
        "serve: past-knee point with / without the admission bound (200µs)",
        &["variant", "served p999 µs", "shed %"],
    );
    shed_t.row(vec![
        "unbounded queueing".into(),
        format!("{:.1}", us(unbounded.hist.p999())),
        "0.0".into(),
    ]);
    shed_t.row(vec![
        "shed_after = 200µs".into(),
        format!("{:.1}", m.shed_p999_us),
        format!("{:.1}", m.shed_pct_overload),
    ]);

    // --- 3. Straggler tail experiment -------------------------------------
    // Compute-heavy variant (apply cost dominates the wire RTT) at
    // sub-saturation: slowing one node's CPUs 3x queues requests behind its
    // shards' applies while the other three nodes are untouched — the tail
    // fattens, the median barely moves.
    let mut ff_cfg = base_cfg(quick, time::us(32), 0x51DE);
    ff_cfg.apply_ns = 4_000;
    ff_cfg.get_compute_ns = 2_000;
    let fault_free = run_serve(ff_cfg.clone());
    let mut strag_cfg = ff_cfg;
    strag_cfg.upc.gasnet.fault = Some(FaultPlan::new(0xAF).straggler(1, 3.0));
    let straggler = run_serve(strag_cfg);
    m.fault_free_p50_us = us(fault_free.hist.p50());
    m.fault_free_p999_us = us(fault_free.hist.p999());
    m.straggler_p50_us = us(straggler.hist.p50());
    m.straggler_p999_us = us(straggler.hist.p999());
    let mut fault_t = Table::new(
        "serve: straggler (node 1 at 3x slowdown) vs fault-free, sub-saturation",
        &["variant", "p50 µs", "p99 µs", "p999 µs"],
    );
    fault_t.row(vec![
        "fault-free".into(),
        format!("{:.1}", m.fault_free_p50_us),
        format!("{:.1}", us(fault_free.hist.p99())),
        format!("{:.1}", m.fault_free_p999_us),
    ]);
    fault_t.row(vec![
        "straggler".into(),
        format!("{:.1}", m.straggler_p50_us),
        format!("{:.1}", us(straggler.hist.p99())),
        format!("{:.1}", m.straggler_p999_us),
    ]);

    (vec![knee, shed_t, fault_t], m)
}
