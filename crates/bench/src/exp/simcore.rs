//! Engine microbenchmark — host-speed cost of the simcall machinery.
//!
//! Not a thesis figure: this measures the *simulator itself*, pinning the
//! scheduler-bypass fast path's win. Three probes:
//!
//! 1. **simcall throughput** — one actor issuing back-to-back `advance`
//!    simcalls, fast path on vs off. With the bypass every advance resolves
//!    inline under the kernel lock; without it each one is a full
//!    park → scheduler → heap → wake round trip.
//! 2. **handoff latency** — two actors ping-ponging through a [`SimQueue`],
//!    which forces the scheduler onto the critical path of every hop; this
//!    prices the spin-then-park `Handoff` rendezvous. A second probe takes
//!    1024 actors round-robin, so every resume lands on a stack the host
//!    last touched 1023 switches ago: it prices the dispatch path's cache
//!    behaviour, which the two-actor case (everything stays in L1) cannot.
//! 3. **actor scale** — the coroutine-core headline: a flat spawn storm
//!    that registers a million actors (spawn rate + max live actor count)
//!    and a million-actor UTS-style dynamic spawn tree, one actor per tree
//!    node, that must complete on a default CI runner. Both run at the full
//!    million even under `--quick`; lazy context creation and the
//!    finished-stack pool are what make that cheap.
//!
//! The binary also writes `BENCH_simcore.json` and, with `--check <path>`,
//! fails when simcall throughput or handoff latency regressed more than 2x
//! against a previously committed baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hupc::sim::{time, SimQueue, Simulation};

use crate::Table;

/// The numbers `BENCH_simcore.json` records.
#[derive(Clone, Copy, Debug)]
pub struct SimcoreMetrics {
    pub simcalls_per_sec_fast: f64,
    pub simcalls_per_sec_slow: f64,
    pub simcall_speedup: f64,
    pub handoff_ns: f64,
    /// Host ns per scheduler handoff with 1024 actors taking turns.
    pub handoff_1k_ns: f64,
    pub spawn_rate_per_s: f64,
    pub max_actors: f64,
    pub tree_actors: f64,
    pub tree_host_s: f64,
}

impl SimcoreMetrics {
    /// Flat JSON object, one numeric field per metric.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"simcalls_per_sec_fast\": {:.0},\n  \"simcalls_per_sec_slow\": {:.0},\n  \
             \"simcall_speedup\": {:.2},\n  \"handoff_ns\": {:.0},\n  \
             \"handoff_1k_ns\": {:.0},\n  \
             \"spawn_rate_per_s\": {:.0},\n  \
             \"max_actors\": {:.0},\n  \"tree_actors\": {:.0},\n  \
             \"tree_host_s\": {:.3}\n}}\n",
            self.simcalls_per_sec_fast,
            self.simcalls_per_sec_slow,
            self.simcall_speedup,
            self.handoff_ns,
            self.handoff_1k_ns,
            self.spawn_rate_per_s,
            self.max_actors,
            self.tree_actors,
            self.tree_host_s,
        )
    }
}

/// Moved to the shared report module; re-exported so existing callers keep
/// working.
pub use crate::report::json_number;

/// One actor, `n` plain advances: the pure simcall path.
fn advance_storm(n: u64, fast: bool) -> (f64, u64) {
    let mut sim = Simulation::new();
    sim.set_fast_path(fast);
    sim.spawn("storm", move |ctx| {
        for _ in 0..n {
            ctx.advance(time::ns(10));
        }
    });
    let t0 = Instant::now();
    let stats = sim.run();
    let dt = t0.elapsed().as_secs_f64();
    (n as f64 / dt, stats.fast_path_hits)
}

/// Two actors ping-ponging one token through a pair of queues; every hop
/// crosses the scheduler, so host-time/hop prices the handoff rendezvous
/// (two `Handoff` round trips plus one heap event per hop).
fn pingpong(rounds: u64) -> f64 {
    let mut sim = Simulation::new();
    let ab = Arc::new(SimQueue::new(&mut sim.kernel()));
    let ba = Arc::new(SimQueue::new(&mut sim.kernel()));
    {
        let (ab, ba) = (Arc::clone(&ab), Arc::clone(&ba));
        sim.spawn("ping", move |ctx| {
            for i in 0..rounds {
                ab.push(ctx, i);
                ba.pop(ctx);
            }
        });
    }
    sim.spawn("pong", move |ctx| {
        for _ in 0..rounds {
            let v = ab.pop(ctx);
            ba.push(ctx, v);
        }
    });
    let t0 = Instant::now();
    sim.run();
    t0.elapsed().as_secs_f64() * 1e9 / (2.0 * rounds as f64)
}

/// `actors` actors advancing by the same step, offset by one tick each, so
/// every wake belongs to another actor than the one that just ran: no
/// advance can take the fast path and the scheduler resumes the actors in
/// round-robin order. Returns host ns per handoff.
fn round_robin(actors: u64, per_actor: u64) -> f64 {
    let mut sim = Simulation::new();
    for a in 0..actors {
        sim.spawn(format!("rr{a}"), move |ctx| {
            ctx.advance(time::ns(1 + a));
            for _ in 0..per_actor {
                ctx.advance(time::ns(actors));
            }
        });
    }
    let t0 = Instant::now();
    let stats = sim.run();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(stats.fast_path_hits, 0, "round robin must not bypass the scheduler");
    dt * 1e9 / stats.handoffs as f64
}

/// Flat spawn storm: register `n` trivial actors up front, then run them
/// all to completion. Registration is cheap by design (actor meta + one
/// wake event; no stack until first dispatch), so all `n` are live at once
/// when the run starts — this is the max-actor-count probe. Returns
/// (registrations/s, run host seconds).
fn spawn_storm(n: u64) -> (f64, f64) {
    let mut sim = Simulation::new();
    sim.set_stack_size(16 * 1024);
    let t0 = Instant::now();
    for i in 0..n {
        sim.spawn(format!("s{i}"), move |ctx| ctx.advance(time::ns(1 + (i & 7))));
    }
    let spawn_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stats = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    assert_eq!(stats.actors as u64, n, "storm lost actors");
    (n as f64 / spawn_s, run_s)
}

/// Million-actor UTS-style tree: one actor per tree node, children spawned
/// dynamically from running actors with a deterministic 2-or-3 branching
/// factor, capped by a shared budget at exactly `total` nodes. Parents
/// don't join — a finished node's stack goes back to the pool, so live
/// stacks track the dispatch frontier, not the tree size. Returns host
/// seconds for the whole simulation.
fn actor_tree(total: u64) -> f64 {
    fn node(ctx: &hupc::sim::Ctx, id: u64, budget: &Arc<AtomicU64>, seen: &Arc<AtomicU64>) {
        seen.fetch_add(1, Ordering::Relaxed);
        // splitmix-style hash: deterministic per-node work and branching.
        let h = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
        ctx.advance(time::ns(1 + (h & 15)));
        let kids = 2 + (h & 1);
        for c in 0..kids {
            if budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return;
            }
            let (b, s) = (Arc::clone(budget), Arc::clone(seen));
            ctx.spawn_with_stack(format!("n{id}.{c}"), 16 * 1024, move |cctx| {
                node(cctx, id.wrapping_mul(3).wrapping_add(c + 1), &b, &s)
            });
        }
    }
    let budget = Arc::new(AtomicU64::new(total - 1));
    let seen = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new();
    let (b, s) = (Arc::clone(&budget), Arc::clone(&seen));
    sim.spawn_with_stack("root", 16 * 1024, move |ctx| node(ctx, 1, &b, &s));
    let t0 = Instant::now();
    let stats = sim.run();
    let host = t0.elapsed().as_secs_f64();
    assert_eq!(seen.load(Ordering::Relaxed), total, "tree lost nodes");
    assert_eq!(stats.actors as u64, total);
    host
}

pub fn run(quick: bool) -> (Vec<Table>, SimcoreMetrics) {
    let n: u64 = if quick { 200_000 } else { 2_000_000 };
    let rounds: u64 = if quick { 20_000 } else { 200_000 };

    // Warm up the allocator / thread machinery once so the first timed run
    // isn't paying one-time costs.
    advance_storm(1_000, true);

    // A bypassed advance costs ~10 ns: time ten times as many of them, or
    // the quick run is a 2 ms sample that a single host hiccup halves.
    let (fast_tput, hits) = advance_storm(10 * n, true);
    let (slow_tput, _) = advance_storm(n, false);
    assert_eq!(hits, 10 * n, "every storm advance should take the bypass");
    let hop_ns = pingpong(rounds);
    let hop_1k_ns = round_robin(1024, 8 * rounds / 1024);
    // The scale probes run at the full million even under --quick: the CI
    // perf-smoke job is exactly where "a 1M-actor simulation completes on a
    // default runner" gets proven.
    let scale_n: u64 = 1_000_000;
    let (spawn_rate, _storm_run_s) = spawn_storm(scale_n);
    let tree_s = actor_tree(scale_n);

    let m = SimcoreMetrics {
        simcalls_per_sec_fast: fast_tput,
        simcalls_per_sec_slow: slow_tput,
        simcall_speedup: fast_tput / slow_tput,
        handoff_ns: hop_ns,
        handoff_1k_ns: hop_1k_ns,
        spawn_rate_per_s: spawn_rate,
        max_actors: scale_n as f64,
        tree_actors: scale_n as f64,
        tree_host_s: tree_s,
    };

    let mut t1 = Table::new(
        format!("Engine microbench — simcall throughput ({n} advances, 10× on the fast path, one actor)"),
        &["mode", "simcalls/s", "speedup"],
    );
    t1.row(vec![
        "scheduler round trip".into(),
        format!("{:.0}", m.simcalls_per_sec_slow),
        "1.00x".into(),
    ]);
    t1.row(vec![
        "bypass fast path".into(),
        format!("{:.0}", m.simcalls_per_sec_fast),
        format!("{:.2}x", m.simcall_speedup),
    ]);

    let mut t2 = Table::new(
        format!("Engine microbench — scheduler handoff ({rounds} ping-pong rounds)"),
        &["metric", "value"],
    );
    t2.row(vec!["host ns / hop".into(), format!("{:.0}", m.handoff_ns)]);
    t2.row(vec![
        "host ns / hop, 1024 actors round-robin".into(),
        format!("{:.0}", m.handoff_1k_ns),
    ]);

    let mut t3 = Table::new(
        format!("Actor scale — coroutine core, {scale_n} actors"),
        &["metric", "value"],
    );
    t3.row(vec![
        "spawn rate (actors/s)".into(),
        format!("{:.0}", m.spawn_rate_per_s),
    ]);
    t3.row(vec![
        "max live actors (flat storm)".into(),
        format!("{:.0}", m.max_actors),
    ]);
    t3.row(vec![
        "dynamic tree run (host s)".into(),
        format!("{:.3}", m.tree_host_s),
    ]);

    (vec![t1, t2, t3], m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_reads_back_what_to_json_writes() {
        let m = SimcoreMetrics {
            simcalls_per_sec_fast: 1_234_567.0,
            simcalls_per_sec_slow: 98_765.0,
            simcall_speedup: 12.5,
            handoff_ns: 840.0,
            handoff_1k_ns: 1310.0,
            spawn_rate_per_s: 2_500_000.0,
            max_actors: 1_000_000.0,
            tree_actors: 1_000_000.0,
            tree_host_s: 1.75,
        };
        let j = m.to_json();
        assert_eq!(json_number(&j, "simcalls_per_sec_fast"), Some(1_234_567.0));
        assert_eq!(json_number(&j, "simcall_speedup"), Some(12.5));
        assert_eq!(json_number(&j, "handoff_ns"), Some(840.0));
        assert_eq!(json_number(&j, "handoff_1k_ns"), Some(1310.0));
        assert_eq!(json_number(&j, "spawn_rate_per_s"), Some(2_500_000.0));
        assert_eq!(json_number(&j, "max_actors"), Some(1_000_000.0));
        assert_eq!(json_number(&j, "tree_host_s"), Some(1.75));
        assert_eq!(json_number(&j, "missing"), None);
    }
}
