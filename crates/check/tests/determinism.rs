//! Schedule-perturbation determinism: the same `SchedulePolicy` seed yields
//! a byte-identical kernel event log, decision log, end state and end time —
//! a perturbed run is still a fully deterministic run, from the raw kernel
//! up to the full UPC stack.

use std::sync::Arc;

use hupc_check::{find_scenario, Decision, PolicyHandle};
use hupc_sim::{time, SimCell, Simulation, TraceEvent};
use proptest::prelude::*;

/// A tie-rich raw-sim workload: four workers advance in lockstep (every
/// wake ties) and fight over a mutex-protected counter. Returns the full
/// kernel event log, the end time, the counter, and the decision log.
fn tie_rich_run(seed: u64) -> (Vec<TraceEvent>, u64, u64, Vec<Decision>) {
    let mut sim = Simulation::new();
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed, two fresh simulations: byte-identical event logs.
    #[test]
    fn same_seed_same_trace(seed in any::<u64>()) {
        let a = tie_rich_run(seed);
        let b = tie_rich_run(seed);
        prop_assert_eq!(&a.0, &b.0, "event logs diverged for seed {}", seed);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.3, b.3);
    }

    /// The mutex keeps the counter exact on every explored schedule.
    #[test]
    fn mutex_counter_is_exact_under_perturbation(seed in any::<u64>()) {
        let (_, _, counter, _) = tie_rich_run(seed);
        prop_assert_eq!(counter, 24);
    }
}

/// Full-stack determinism: two explored runs of a UPC scenario with the
/// same policy seed pass its oracle and end in the same state, at the same
/// time, through the same tie-break decisions.
#[test]
fn scenarios_are_deterministic_per_seed() {
    for name in ["split_barrier", "allreduce2", "retry_loss"] {
        let s = find_scenario(name).unwrap();
        for seed in [1u64, 7, 42] {
            let run = || {
                let p = PolicyHandle::random(seed);
                let out = s.run(&p, 0);
                assert!(out.violation.is_none(), "{name} seed {seed}: {:?}", out.violation);
                (out.end_state, out.end_time, out.decisions)
            };
            assert_eq!(run(), run(), "{name} seed {seed}: the same seed changed the run");
        }
    }
}
