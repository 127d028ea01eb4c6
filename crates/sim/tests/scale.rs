//! Actor-count scale smoke tests for the coroutine core.
//!
//! These are tier-1 (plain `cargo test`) pins on the scale properties the
//! lightweight-actor refactor exists for: a hundred thousand simultaneously
//! live actors spawn, synchronize, and tear down in a debug build without
//! exhausting memory or kernel limits (the old one-OS-thread-per-actor
//! engine capped out around a few thousand). The two million-actor probes
//! are `#[ignore]`d to keep tier-1 fast; CI's `scale` job runs them in
//! release with `cargo test --release -p hupc-sim --test scale --
//! --include-ignored`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hupc_sim::{time, Simulation};

/// 100k live actors arrive at one barrier, then all tear down. Exercises:
/// mass registration, lazy context creation at first dispatch, a
/// 100k-party release wave through the near bucket, and stack reclamation.
/// Also pins the mapping budget: with all 100k stacks live, the process
/// holds far fewer mappings than one per stack.
#[test]
fn hundred_thousand_actors_spawn_barrier_teardown() {
    let n: usize = 100_000;
    let arrived = Arc::new(AtomicUsize::new(0));
    let live_maps = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    // Small explicit stacks: the bodies below need a few KB, and 100k of
    // them must not dominate the test runner's memory.
    sim.set_stack_size(32 * 1024);
    let bar = sim.kernel().new_barrier(n);
    for i in 0..n {
        let (arrived, live_maps) = (Arc::clone(&arrived), Arc::clone(&live_maps));
        sim.spawn(format!("a{i}"), move |ctx| {
            ctx.advance(time::ns((i % 64) as u64));
            // The last arrival sees every other actor suspended at the
            // barrier: all n stacks are live.
            if arrived.fetch_add(1, Ordering::Relaxed) + 1 == n && cfg!(target_os = "linux") {
                let maps = std::fs::read_to_string("/proc/self/maps").expect("read maps");
                live_maps.store(maps.lines().count(), Ordering::Relaxed);
            }
            ctx.barrier_wait(bar);
            ctx.advance(time::ns(1));
        });
    }
    let stats = sim.run();
    assert_eq!(stats.actors, n);
    // Barrier releases at the max arrival (63ns); everyone then advances 1ns.
    assert_eq!(stats.end_time, time::ns(64));
    if cfg!(target_os = "linux") {
        let maps = live_maps.load(Ordering::Relaxed);
        assert!(
            (1..4096).contains(&maps),
            "{maps} mappings with {n} stacks live: stacks must share slabs"
        );
    }
}

/// A budget-driven dynamic spawn tree (the shape of an unbalanced tree
/// search): each actor claims work from a shared budget and spawns up to two
/// children while any remains. Exercises staged spawning from running
/// actors at depth and the reuse of finished actors' stacks (live stacks
/// stay bounded by the frontier, not the total actor count).
#[test]
fn fifty_thousand_actor_dynamic_spawn_tree() {
    const TOTAL: u64 = 50_000;
    let budget = Arc::new(AtomicU64::new(TOTAL - 1)); // root is actor 0
    let visited = Arc::new(AtomicU64::new(0));

    fn node(
        ctx: &hupc_sim::Ctx,
        depth: u64,
        budget: &Arc<AtomicU64>,
        visited: &Arc<AtomicU64>,
    ) {
        visited.fetch_add(1, Ordering::Relaxed);
        ctx.advance(time::ns(1 + depth % 7));
        let mut children = Vec::new();
        for c in 0..2 {
            // Serialized execution makes this claim order deterministic.
            if budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok()
            {
                let (b, v) = (Arc::clone(budget), Arc::clone(visited));
                children.push(ctx.spawn_with_stack(
                    format!("n{depth}.{c}"),
                    24 * 1024,
                    move |cctx| node(cctx, depth + 1, &b, &v),
                ));
            }
        }
        for ch in children {
            ctx.join(ch);
        }
    }

    let mut sim = Simulation::new();
    let (b, v) = (Arc::clone(&budget), Arc::clone(&visited));
    sim.spawn_with_stack("root", 64 * 1024, move |ctx| node(ctx, 0, &b, &v));
    let stats = sim.run();
    assert_eq!(visited.load(Ordering::Relaxed), TOTAL);
    assert_eq!(stats.actors as u64, TOTAL);
    assert_eq!(budget.load(Ordering::Relaxed), 0);
}

/// Flat spawn storm: a million trivial actors registered up front, so all
/// of them are live at once when the run starts — the max-actor-count
/// probe. Registration is cheap by design (actor meta + one wake event; no
/// stack until first dispatch).
#[test]
#[ignore = "million actors; run in release with --include-ignored"]
fn million_actor_spawn_storm() {
    let n: u64 = 1_000_000;
    let mut sim = Simulation::new();
    sim.set_stack_size(16 * 1024);
    for i in 0..n {
        sim.spawn(format!("s{i}"), move |ctx| {
            ctx.advance(time::ns(1 + (i & 7)))
        });
    }
    let stats = sim.run();
    assert_eq!(stats.actors as u64, n, "storm lost actors");
}

/// Million-actor UTS-style tree: one actor per tree node, children spawned
/// dynamically from running actors with a deterministic 2-or-3 branching
/// factor, capped by a shared budget at exactly a million nodes. Parents
/// don't join — a finished node's stack goes back to the simulation's free
/// list, so live stacks track the dispatch frontier, not the tree size.
#[test]
#[ignore = "million actors; run in release with --include-ignored"]
fn million_actor_dynamic_spawn_tree() {
    const TOTAL: u64 = 1_000_000;

    fn node(ctx: &hupc_sim::Ctx, id: u64, budget: &Arc<AtomicU64>, seen: &Arc<AtomicU64>) {
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

    let budget = Arc::new(AtomicU64::new(TOTAL - 1));
    let seen = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new();
    let (b, s) = (Arc::clone(&budget), Arc::clone(&seen));
    sim.spawn_with_stack("root", 16 * 1024, move |ctx| node(ctx, 1, &b, &s));
    let stats = sim.run();
    assert_eq!(seen.load(Ordering::Relaxed), TOTAL, "tree lost nodes");
    assert_eq!(stats.actors as u64, TOTAL);
}
