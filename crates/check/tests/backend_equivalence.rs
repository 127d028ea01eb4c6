//! Thread→coroutine equivalence pins: the coroutine actor core must be
//! observationally identical to the one-OS-thread-per-actor backend it
//! replaced. Same `(t, seq)` total order in the kernel event log, same
//! policy decision logs, same corpus `.schedule` replays — byte for byte.
//!
//! (The committed golden JSONL traces in `tests/golden/` are the other half
//! of this pin: they were blessed under the thread backend and must keep
//! passing under the coroutine default.)

use std::sync::Arc;

use hupc_check::{find_scenario, Artifact, Decision, PolicyHandle, ARTIFACT_EXT};
use hupc_sim::{time, ActorBackend, SimCell, Simulation, SimulationStats, TraceEvent};
use hupc_upc::{in_subthread_context, set_subthread_context, UpcConfig, UpcJob};
use proptest::prelude::*;

/// The tie-rich workload from `determinism.rs`, parameterized over the
/// actor backend.
fn tie_rich_run(
    seed: u64,
    backend: ActorBackend,
) -> (Vec<TraceEvent>, u64, u64, Vec<Decision>) {
    let mut sim = Simulation::new();
    sim.set_actor_backend(backend);
    let policy = PolicyHandle::random(seed);
    let m = {
        let mut k = sim.kernel();
        policy.install(&mut k);
        k.record_event_log(true);
        k.new_mutex()
    };
    let counter = Arc::new(SimCell::new(0u64));
    for a in 0..4 {
        let c = Arc::clone(&counter);
        sim.spawn(format!("worker{a}"), move |ctx| {
            for _ in 0..6 {
                ctx.advance(time::ns(10));
                ctx.mutex_lock(m);
                let v = c.get();
                ctx.advance(time::ns(2));
                c.set(v + 1);
                ctx.mutex_unlock(m);
            }
        });
    }
    let stats = sim.run_result().expect("workload cannot deadlock");
    let log = sim.kernel().take_event_log();
    (log, stats.end_time, counter.get(), policy.log())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same explored schedule on coroutines vs OS threads: byte-identical
    /// kernel event log, end time, end state, and decision log.
    #[test]
    fn backends_agree_on_explored_schedules(seed in any::<u64>()) {
        let coro = tie_rich_run(seed, ActorBackend::Coroutine);
        let os = tie_rich_run(seed, ActorBackend::OsThread);
        prop_assert_eq!(&coro.0, &os.0, "event logs diverged for seed {}", seed);
        prop_assert_eq!(coro.1, os.1, "end times diverged");
        prop_assert_eq!(coro.2, os.2, "counter diverged");
        prop_assert_eq!(coro.3, os.3, "decision logs diverged");
    }
}

/// 256 actors through skewed barrier rounds with a cond hand-off between
/// neighbours. After each release the queue head is the next actor's wake
/// (the hint the coroutine scheduler prefetches on is exact); in the
/// hand-off an odd actor's notify slips its neighbour's wake in front of
/// the one that was hinted (the hint is wrong).
fn barrier_storm(backend: ActorBackend) -> (Vec<TraceEvent>, SimulationStats) {
    const ACTORS: usize = 256;
    const ROUNDS: u64 = 6;
    let mut sim = Simulation::new();
    sim.set_actor_backend(backend);
    let (bar, conds) = {
        let mut k = sim.kernel();
        k.record_event_log(true);
        let bar = k.new_barrier(ACTORS);
        let conds: Vec<_> = (0..ACTORS / 2).map(|_| k.new_cond()).collect();
        (bar, conds)
    };
    for a in 0..ACTORS {
        let cond = conds[a / 2];
        sim.spawn(format!("a{a}"), move |ctx| {
            for round in 0..ROUNDS {
                // Skews repeat every 8 actors, so arrivals tie in bunches.
                ctx.advance(time::ns(20 + (a as u64 % 8) * 5 + round));
                ctx.barrier_wait_cost(bar, time::ns(700));
                if a % 2 == 0 {
                    ctx.cond_wait(cond);
                } else {
                    ctx.advance(time::ns(3 + (a as u64 % 5)));
                    ctx.cond_notify_one(cond);
                }
            }
        });
    }
    let stats = sim.run_result().expect("the storm cannot deadlock");
    let log = sim.kernel().take_event_log();
    (log, stats)
}

/// The coroutine scheduler prefetches the next actor's context from a peek
/// at the queue; the OS-thread scheduler has nothing to prefetch. The hint
/// must be unobservable: same kernel event log, same statistics.
#[test]
fn barrier_storm_event_log_is_backend_independent() {
    let (coro_log, coro_stats) = barrier_storm(ActorBackend::Coroutine);
    let (os_log, os_stats) = barrier_storm(ActorBackend::OsThread);
    assert!(coro_stats.handoffs > 256 * 6, "storm did not go through the scheduler");
    assert_eq!(coro_stats, os_stats, "statistics diverged");
    assert_eq!(coro_log.len(), os_log.len(), "event counts diverged");
    if let Some(i) = (0..coro_log.len()).find(|&i| coro_log[i] != os_log[i]) {
        panic!("event logs diverge at {i}: coroutine {:?} vs OS thread {:?}", coro_log[i], os_log[i]);
    }
}

/// Every committed corpus `.schedule` reproduces the *same* violation on
/// both backends: same kind, same detail string.
#[test]
fn corpus_replays_identically_on_both_backends() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != ARTIFACT_EXT) {
            continue;
        }
        let art = Artifact::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let replay = |b| {
            let v = art
                .replay_prepared(&|k| k.set_actor_backend(b))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            format!("{:?}", v)
        };
        assert_eq!(
            replay(ActorBackend::Coroutine),
            replay(ActorBackend::OsThread),
            "{}: backends disagree on the replayed violation",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 2, "corpus should hold the two mutation schedules");
}

/// Full-stack UPC scenarios, explored with the same policy seed on both
/// backends: identical end state, end time, and tie-break decisions.
#[test]
fn scenarios_agree_across_backends() {
    for name in ["split_barrier", "allreduce2", "retry_loss"] {
        let s = find_scenario(name).unwrap();
        for seed in [1u64, 7, 42] {
            let run = |b| {
                let p = PolicyHandle::random(seed);
                let out = s.run(&p, 0, &|k| k.set_actor_backend(b));
                assert!(
                    out.violation.is_none(),
                    "{name} seed {seed}: {:?}",
                    out.violation
                );
                (out.end_state, out.end_time, out.decisions)
            };
            assert_eq!(
                run(ActorBackend::Coroutine),
                run(ActorBackend::OsThread),
                "{name} seed {seed}: backend changed the run"
            );
        }
    }
}

/// What GUPS and FT add over UTS, in one UPC program: every round each
/// thread starts a non-blocking put to its neighbour, forks sub-threads
/// (mid-run spawns, tagged through `set_subthread_context`) that compute
/// while the put is in flight, joins them, then syncs the put and closes
/// the round with a barrier. Returns the kernel event log up to the last
/// barrier plus the run's statistics (which cover the tail).
fn forkjoin_overlap(backend: ActorBackend) -> (Vec<TraceEvent>, SimulationStats) {
    const THREADS: usize = 4;
    const SUBS: u64 = 3;
    const ROUNDS: u64 = 5;
    let job = UpcJob::new(UpcConfig::test_default(THREADS, 2));
    let off = job.runtime().alloc_words(THREADS);
    {
        let mut k = job.kernel();
        k.set_actor_backend(backend);
        k.record_event_log(true);
    }
    let log: Arc<SimCell<Vec<TraceEvent>>> = Arc::new(SimCell::default());
    let out = Arc::clone(&log);
    let stats = job.run(move |upc| {
        let me = upc.mythread();
        let ctx = upc.ctx();
        for round in 0..ROUNDS {
            let h = upc.memput_nb((me + 1) % THREADS, off + me, &[round << 8 | me as u64]);
            let subs: Vec<_> = (0..SUBS)
                .map(|s| {
                    ctx.spawn(format!("sub{me}.{s}"), move |c| {
                        set_subthread_context(c, true);
                        c.advance(time::ns(40 + 9 * s + 5 * me as u64 + round));
                        assert!(in_subthread_context(c));
                    })
                })
                .collect();
            // The tag is per actor: a child marking itself on the thread the
            // coroutine backend shares must not mark its parent.
            assert!(!in_subthread_context(ctx));
            for sub in subs {
                ctx.join(sub);
            }
            upc.wait_sync(h);
            upc.barrier();
            let mut got = [0u64];
            let left = (me + THREADS - 1) % THREADS;
            upc.memget(me, off + left, &mut got);
            assert_eq!(got[0], round << 8 | left as u64);
            upc.barrier();
        }
        if me == 0 {
            out.with_mut(|l| *l = ctx.with_kernel(|k| k.take_event_log()));
        }
    });
    (log.with_mut(std::mem::take), stats)
}

/// Sub-thread fork-join overlapped with non-blocking puts: identical kernel
/// event log and statistics on both actor backends.
#[test]
fn forkjoin_overlap_event_log_is_backend_independent() {
    let (coro_log, coro_stats) = forkjoin_overlap(ActorBackend::Coroutine);
    let (os_log, os_stats) = forkjoin_overlap(ActorBackend::OsThread);
    assert!(coro_log.len() > 4 * 5 * 3, "log too short to have seen the sub-threads");
    assert_eq!(coro_stats, os_stats, "statistics diverged");
    assert_eq!(coro_log, os_log, "event logs diverged");
}
