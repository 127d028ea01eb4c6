//! Sequential→parallel equivalence pins: the conservative parallel engine
//! must be observationally identical to the sequential scheduler it
//! parallelizes. Single-LP simulations (every existing app) must be
//! *bit*-identical — same event log, same stats, same bypass decisions —
//! because one LP on one worker runs the exact same protocol. Multi-LP
//! simulations must agree on the committed `(t, seq)`-sorted event log and
//! every virtual-time observable; only host-side counters (bypass hits,
//! handoffs, heap ops) may differ.
//!
//! (A schedule policy forces the sequential dispatch loop whatever backend
//! is configured, so corpus replays and explored scenarios never reach the
//! parallel engine; that rule is pinned in `hupc-sim` by
//! `parallel_with_policy_falls_back_to_sequential_dispatch`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hupc_sim::{time, SimBackend, Simulation, Time, TraceEvent};
use proptest::prelude::*;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A randomized workload over `lps` logical processes: per-LP mutex and
/// resource contention (the intra-LP fast path), plus cross-LP
/// fire-and-forget spawns when partitioned (the lookahead-bounded slow
/// path). Returns every deterministic observable.
fn partitioned_run(
    seed: u64,
    lps: usize,
    backend: SimBackend,
) -> (Vec<TraceEvent>, Time, u64, u64, usize) {
    let mut sim = Simulation::new();
    sim.set_sim_backend(backend);
    sim.set_lp_count(lps);
    sim.set_lookahead(time::us(1));
    sim.kernel().record_event_log(true);
    // Order-independent end-state witness (atomic sum over all actors).
    let total = Arc::new(AtomicU64::new(0));
    for lp in 0..lps {
        let (m, res) = {
            let mut k = sim.kernel();
            (k.new_mutex(), k.new_resource(format!("r{lp}")))
        };
        let mut s = seed ^ (lp as u64).wrapping_mul(0xA5A5_A5A5);
        let n_actors = 2 + (splitmix(&mut s) % 2) as usize;
        for a in 0..n_actors {
            let total = Arc::clone(&total);
            let mut rng = splitmix(&mut s);
            sim.spawn_on(lp, format!("lp{lp}a{a}"), move |ctx| {
                for _ in 0..5 {
                    ctx.advance(time::ns(1 + splitmix(&mut rng) % 40));
                    ctx.mutex_lock(m);
                    ctx.advance(time::ns(1 + splitmix(&mut rng) % 5));
                    ctx.mutex_unlock(m);
                    ctx.acquire(res, time::ns(10 + splitmix(&mut rng) % 30));
                    total.fetch_add(1, Ordering::Relaxed);
                }
                if a == 0 && ctx.lp() + 1 < lps {
                    // Cross-LP child: starts at `now + lookahead`.
                    let t2 = Arc::clone(&total);
                    let mut r2 = splitmix(&mut rng);
                    ctx.spawn_on(ctx.lp() + 1, format!("x{lp}"), move |c| {
                        c.advance(time::ns(1 + splitmix(&mut r2) % 20));
                        t2.fetch_add(100, Ordering::Relaxed);
                    });
                }
            });
        }
    }
    let stats = sim.run_result().expect("workload cannot deadlock");
    let log = sim.kernel().take_event_log();
    (
        log,
        stats.end_time,
        stats.events,
        total.load(Ordering::Relaxed),
        stats.actors,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random partitioned workloads: Sequential and Parallel(1/2/4) agree
    /// on the sorted kernel event log, end time, event count, actor count
    /// and end state — for every partition width.
    #[test]
    fn parallel_backends_agree_on_partitioned_runs(
        seed in any::<u64>(),
        lps_raw in 1u64..5,
    ) {
        let lps = lps_raw as usize;
        let seq = partitioned_run(seed, lps, SimBackend::Sequential);
        for n in [1usize, 2, 4] {
            let par = partitioned_run(seed, lps, SimBackend::Parallel(n));
            prop_assert_eq!(
                &seq.0, &par.0,
                "event logs diverged: seed {} lps {} workers {}", seed, lps, n
            );
            prop_assert_eq!(seq.1, par.1, "end time diverged");
            prop_assert_eq!(seq.2, par.2, "event count diverged");
            prop_assert_eq!(seq.3, par.3, "end state diverged");
            prop_assert_eq!(seq.4, par.4, "actor count diverged");
        }
    }
}

/// Single-LP simulations under `Parallel(n)` run the full worker machinery
/// on one worker and must be *bit*-identical to sequential — stats and
/// bypass decisions included, which is what keeps the committed golden
/// JSONL traces backend-independent.
#[test]
fn single_lp_parallel_is_bit_identical_including_stats() {
    let run = |backend| {
        let mut sim = Simulation::new();
        sim.set_sim_backend(backend);
        sim.kernel().record_event_log(true);
        let bar = sim.kernel().new_barrier(3);
        for id in 0..3u64 {
            sim.spawn(format!("w{id}"), move |ctx| {
                for i in 0..8 {
                    ctx.advance(time::ns(7 + id * 3 + i));
                    ctx.barrier_wait(bar);
                }
            });
        }
        let stats = sim.run();
        let log = sim.kernel().take_event_log();
        (log, stats)
    };
    let seq = run(SimBackend::Sequential);
    for n in [1usize, 2, 4] {
        assert_eq!(seq, run(SimBackend::Parallel(n)), "Parallel({n}) diverged");
    }
}

/// The serving path end to end: same seed ⇒ byte-identical open-loop
/// arrival schedules, identical request logs, end state, and latency
/// histograms — across repeat runs and across `Sequential` vs
/// `Parallel(4)` dispatch (the PGAS job is single-LP, so the parallel
/// backend must leave it bit-identical).
#[test]
fn serving_runs_identically_under_parallel_dispatch() {
    use hupc_serve::{encode_schedule, run_serve_prepared, ServeConfig, ShardMap};

    let cfg = ServeConfig::small(0xD1CE);
    let shard = ShardMap::flat(8, cfg.partitions_per_thread, cfg.keys_per_partition);
    let schedules: Vec<Vec<u8>> = (0..8)
        .map(|f| encode_schedule(&cfg.traffic.schedule_for(f, &shard)))
        .collect();
    // The run regenerates the arrival schedule itself; pin that doing so
    // yields the pre-materialized bytes.
    for (f, bytes) in schedules.iter().enumerate() {
        assert_eq!(
            bytes,
            &encode_schedule(&cfg.traffic.schedule_for(f, &shard)),
            "frontend {f}: schedule bytes changed on regeneration"
        );
    }
    let run = |b| {
        let r = run_serve_prepared(cfg.clone(), |k| k.set_sim_backend(b))
            .expect("serving run failed");
        assert_eq!(r.completed + r.shed + r.failed, r.generated);
        (r.records, r.committed, r.hist, r.end_state, r.end_time)
    };
    let seq = run(SimBackend::Sequential);
    let rerun = run(SimBackend::Sequential);
    assert_eq!(seq, rerun, "sequential serving run not reproducible");
    let par = run(SimBackend::Parallel(4));
    assert_eq!(seq, par, "parallel backend changed the serving run");
}

/// The multi-LP serving model (one LP per node) must agree across
/// sequential and parallel backends on every virtual-time observable:
/// request log, latency histogram, counts, end time.
#[test]
fn serving_model_agrees_across_backends() {
    use hupc_serve::{run_model, ModelConfig};

    let base = run_model(ModelConfig::small(0xAB, SimBackend::Sequential));
    assert_eq!(base.completed, base.generated);
    for workers in [1usize, 2, 4] {
        let par = run_model(ModelConfig::small(0xAB, SimBackend::Parallel(workers)));
        assert_eq!(par.log, base.log, "{workers} workers: request log diverged");
        assert_eq!(par.hist, base.hist, "{workers} workers: histogram diverged");
        assert_eq!(par.end_time, base.end_time);
        assert_eq!(
            (par.generated, par.completed, par.shed),
            (base.generated, base.completed, base.shed)
        );
    }
}
