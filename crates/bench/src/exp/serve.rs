//! Serving-latency experiment: throughput-vs-offered-load knee curve and
//! fault-plan tail-latency deltas for the hupc-serve KV service.
//!
//! Everything here is measured in *virtual* time, so the numbers are a
//! deterministic function of the config — the unit test below pins the
//! knee and the tail-at-scale shape against semantic regressions in the
//! serving path (a scheduling change that doubles p99 fails on any host),
//! not host speed.
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

/// Every run the three tables are built from.
struct Runs {
    /// Knee sweep, lowest offered load first: (offered krps, result).
    knee: Vec<(f64, ServeResult)>,
    /// The past-knee point rerun with the admission bound.
    shed: ServeResult,
    fault_free: ServeResult,
    straggler: ServeResult,
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

fn measure(quick: bool) -> Runs {
    // Knee curve: per-frontend mean inter-arrival gaps, sub-saturation →
    // past the knee.
    let gaps = [time::us(16), time::us(8), time::us(4), time::us(2)];
    let knee = gaps
        .iter()
        .enumerate()
        .map(|(i, gap)| {
            let offered = 16.0 / time::as_secs_f64(*gap) / 1_000.0;
            (offered, run_serve(base_cfg(quick, *gap, 0xBE5E ^ i as u64)))
        })
        .collect();

    // Overload shedding: the past-knee point with the admission bound.
    let mut shed_cfg = base_cfg(quick, gaps[3], 0xBE5E ^ 3);
    shed_cfg.shed_after = Some(time::us(200));
    let shed = run_serve(shed_cfg);

    // Straggler tail experiment. Compute-heavy variant (apply cost
    // dominates the wire RTT) at sub-saturation: slowing one node's CPUs 3x
    // queues requests behind its shards' applies while the other three
    // nodes are untouched — the tail fattens, the median barely moves.
    let mut ff_cfg = base_cfg(quick, time::us(32), 0x51DE);
    ff_cfg.apply_ns = 4_000;
    ff_cfg.get_compute_ns = 2_000;
    let fault_free = run_serve(ff_cfg.clone());
    let mut strag_cfg = ff_cfg;
    strag_cfg.upc.gasnet.fault = Some(FaultPlan::new(0xAF).straggler(1, 3.0));
    let straggler = run_serve(strag_cfg);

    Runs {
        knee,
        shed,
        fault_free,
        straggler,
    }
}

fn shed_pct(r: &ServeResult) -> f64 {
    100.0 * r.shed as f64 / r.generated as f64
}

pub fn run(quick: bool) -> Vec<Table> {
    let runs = measure(quick);

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
    for (offered, r) in &runs.knee {
        knee.row(vec![
            format!("{offered:.0}"),
            format!("{:.0}", krps(r)),
            format!("{:.1}", us(r.hist.p50())),
            format!("{:.1}", us(r.hist.p99())),
            format!("{:.1}", us(r.hist.p999())),
            format!("{:.1}", shed_pct(r)),
        ]);
    }

    let (_, unbounded) = runs.knee.last().expect("knee sweep ran");
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
        format!("{:.1}", us(runs.shed.hist.p999())),
        format!("{:.1}", shed_pct(&runs.shed)),
    ]);

    let mut fault_t = Table::new(
        "serve: straggler (node 1 at 3x slowdown) vs fault-free, sub-saturation",
        &["variant", "p50 µs", "p99 µs", "p999 µs"],
    );
    for (variant, r) in [
        ("fault-free", &runs.fault_free),
        ("straggler", &runs.straggler),
    ] {
        fault_t.row(vec![
            variant.into(),
            format!("{:.1}", us(r.hist.p50())),
            format!("{:.1}", us(r.hist.p99())),
            format!("{:.1}", us(r.hist.p999())),
        ]);
    }

    vec![knee, shed_t, fault_t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The knee and the tail-at-scale shape on the quick sweep (measured:
    /// sub-saturation p99 16.4 µs, peak 2721 krps, straggler p999 3.0x and
    /// p50 1.0x fault-free). The peak floor is a quarter of the full run's
    /// 3190.705 krps.
    #[test]
    fn quick_sweep_keeps_the_knee_and_the_straggler_tail() {
        let runs = measure(true);
        let sub_saturation_p99 = us(runs.knee[0].1.hist.p99());
        let peak = runs.knee.iter().map(|(_, r)| krps(r)).fold(0.0, f64::max);
        assert!(
            sub_saturation_p99 <= 200.0,
            "sub-saturation p99 {sub_saturation_p99} µs"
        );
        assert!(peak >= 3190.705 / 4.0, "peak {peak} krps");
        // The straggler fattens the tail without moving the median much —
        // the thesis' motivating asymmetry.
        let ratio =
            |q: fn(&ServeResult) -> u64| q(&runs.straggler) as f64 / q(&runs.fault_free) as f64;
        let p999 = ratio(|r| r.hist.p999());
        let p50 = ratio(|r| r.hist.p50());
        assert!(p999 >= 1.2, "straggler p999 ratio {p999}");
        assert!(p50 <= 1.5, "straggler p50 ratio {p50}");
    }
}
