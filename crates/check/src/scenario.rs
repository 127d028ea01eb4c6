//! Checkable scenarios: small, tie-rich workloads over the runtime stack,
//! each paired with an invariant oracle.
//!
//! A scenario owns everything about one run: it builds the simulation (raw
//! `hupc-sim` actors, a `UpcJob`, or a full UTS run), installs the policy
//! handle into the kernel via the pre-run seam, selects a fault plan, and
//! evaluates its oracle over the end state. The explorer only sees
//! [`Outcome`]s, so adding a scenario is the whole integration surface.
//!
//! Two scenarios are *mutations* — deliberately seeded ordering bugs
//! (`lost_update`, `missed_notify`) whose default schedule passes but which
//! some perturbed tie order breaks. They keep the harness honest: `hupc-check
//! mutation` fails CI unless both are found, shrunk and replayed.

use std::sync::{Arc, Mutex};

use hupc_coll::{CollAlgo, CollDomain, CollPlan};
use hupc_gasnet::FaultPlan;
use hupc_sim::{time, SimCell, SimError, Simulation, Time};
use hupc_upc::{UpcConfig, UpcJob};
use hupc_uts::{sequential_traverse, run_uts_prepared, StealStrategy, UtsConfig};

use crate::policy::{Decision, PolicyHandle};
use crate::rng::Fnv64;

/// What kind of invariant a schedule broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// An oracle over application state failed (lost update, wrong
    /// collective result, node-count mismatch, …).
    State,
    /// The run deadlocked where no deadlock is permitted.
    Deadlock,
    /// An actor panicked under the perturbed schedule.
    Panic,
}

impl ViolationKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::State => "state",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Panic => "panic",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "state" => Some(ViolationKind::State),
            "deadlock" => Some(ViolationKind::Deadlock),
            "panic" => Some(ViolationKind::Panic),
            _ => None,
        }
    }
}

/// An invariant violation observed on one schedule.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub detail: String,
}

/// The result of running one schedule of one scenario.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Fingerprint of the application-visible end state (plus virtual end
    /// time). Two runs that agree here finished in the same state — used by
    /// the determinism tests. Zero when the run failed.
    pub end_state: u64,
    /// Virtual time when the simulation finished (or failed).
    pub end_time: Time,
    /// Tie-break decisions the policy was consulted for.
    pub decisions: Vec<Decision>,
    pub violation: Option<Violation>,
}

/// A workload + oracle that the explorer can drive through the
/// [`hupc_sim::SchedulePolicy`] seam.
pub trait Scenario: Send + Sync {
    /// Stable identifier (used in artifacts and on the CLI).
    fn name(&self) -> &'static str;

    /// One-line description for `hupc-check list`.
    fn about(&self) -> &'static str;

    /// True for deliberately seeded ordering bugs: the explorer *must* find
    /// a violation here, and a clean report is itself a harness failure.
    fn is_mutation(&self) -> bool {
        false
    }

    /// Labels for the fault plans this scenario is crossed with. Index 0 is
    /// always the fault-free run.
    fn fault_labels(&self) -> Vec<&'static str> {
        vec!["none"]
    }

    /// Run one schedule: install `policy` into the kernel, run under fault
    /// plan `fault` (an index into [`Scenario::fault_labels`]), and judge
    /// the oracle.
    fn run(&self, policy: &PolicyHandle, fault: usize) -> Outcome;
}

/// All registered scenarios, mutations last.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(UtsSteal),
        Box::new(SplitBarrier),
        Box::new(Allreduce { three_level: false }),
        Box::new(Allreduce { three_level: true }),
        Box::new(RetryLoss),
        Box::new(ServeKv),
        Box::new(LostUpdate),
        Box::new(MissedNotify),
    ]
}

/// Look a scenario up by name.
pub fn find_scenario(name: &str) -> Option<Box<dyn Scenario>> {
    all_scenarios().into_iter().find(|s| s.name() == name)
}

fn state_hash(parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

fn violation_from_err(e: &SimError) -> Violation {
    match e {
        SimError::Deadlock { .. } => Violation {
            kind: ViolationKind::Deadlock,
            detail: e.to_string(),
        },
        SimError::ActorPanic { .. } => Violation {
            kind: ViolationKind::Panic,
            detail: e.to_string(),
        },
    }
}

fn err_time(e: &SimError) -> Time {
    match e {
        SimError::Deadlock { time, .. } => *time,
        SimError::ActorPanic { .. } => 0,
    }
}

/// Shared accumulator for oracle failures observed inside actors. Actors
/// never panic on a bad value — a violation is data, not a crash — so the
/// run always drains and the decision log stays complete.
type ViolCell = Arc<Mutex<Option<String>>>;

fn note_viol(cell: &ViolCell, msg: String) {
    let mut v = cell.lock().unwrap();
    if v.is_none() {
        *v = Some(msg);
    }
}

fn outcome_from(
    result: hupc_sim::SimResult,
    policy: &PolicyHandle,
    viol: &ViolCell,
    state: impl FnOnce(Time) -> u64,
) -> Outcome {
    match result {
        Ok(stats) => {
            let violation = viol.lock().unwrap().take().map(|detail| Violation {
                kind: ViolationKind::State,
                detail,
            });
            let end_state = if violation.is_none() {
                state(stats.end_time)
            } else {
                0
            };
            Outcome {
                end_state,
                end_time: stats.end_time,
                decisions: policy.log(),
                violation,
            }
        }
        Err(e) => Outcome {
            end_state: 0,
            end_time: err_time(&e),
            decisions: policy.log(),
            violation: Some(violation_from_err(&e)),
        },
    }
}

// ---------------------------------------------------------------------------
// Serving: sharded KV under open-loop load
// ---------------------------------------------------------------------------

/// The hupc-serve PGAS key-value service, shrunk to exploration size:
/// 4 threads over 2 nodes serving a seeded open-loop request stream, with
/// the linearizability-lite oracle (dense per-key committed versions,
/// monotonic reads, no reads from the future, exact outcome accounting)
/// judged over the run's logs. Crossed with 10% loss and a straggler plan —
/// the serving path's retries, acks and epoch fan-in must stay correct no
/// matter how ties are broken or packets are dropped.
struct ServeKv;

impl Scenario for ServeKv {
    fn name(&self) -> &'static str {
        "serve_kv"
    }

    fn about(&self) -> &'static str {
        "sharded KV service, open-loop load: linearizability-lite oracle"
    }

    fn fault_labels(&self) -> Vec<&'static str> {
        vec!["none", "loss10", "loss10_straggler"]
    }

    fn run(&self, policy: &PolicyHandle, fault: usize) -> Outcome {
        let mut cfg = hupc_serve::ServeConfig::small(0x5E21);
        cfg.upc = UpcConfig::test_default(4, 2);
        cfg.traffic.requests_per_frontend = 24;
        cfg.upc.gasnet.fault = match fault {
            0 => None,
            1 => Some(FaultPlan::new(31).loss(0.10)),
            _ => Some(FaultPlan::new(37).loss(0.10).straggler(1, 3.0)),
        };
        let viol: ViolCell = Arc::new(Mutex::new(None));
        let result = hupc_serve::run_serve_prepared(cfg.clone(), |k| policy.install(k));
        match result {
            Ok(r) => {
                if let Err(msg) = hupc_serve::verify_linearizable_lite(&r, cfg.traffic.batch_len)
                {
                    note_viol(&viol, format!("serve_kv oracle: {msg}"));
                }
                if r.failed > 0 {
                    note_viol(
                        &viol,
                        format!("{} requests exhausted the transport retry budget", r.failed),
                    );
                }
                let violation = viol.lock().unwrap().take().map(|detail| Violation {
                    kind: ViolationKind::State,
                    detail,
                });
                let end_state = if violation.is_none() {
                    state_hash(&[
                        r.end_state,
                        r.completed,
                        r.shed,
                        r.hist.count,
                        r.hist.sum,
                        r.end_time,
                    ])
                } else {
                    0
                };
                Outcome {
                    end_state,
                    end_time: r.end_time,
                    decisions: policy.log(),
                    violation,
                }
            }
            Err(e) => Outcome {
                end_state: 0,
                end_time: err_time(&e),
                decisions: policy.log(),
                violation: Some(violation_from_err(&e)),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation: lost update
// ---------------------------------------------------------------------------

/// Seeded bug: two actors increment a shared cell with a read → advance →
/// write window. The default schedule serializes the windows back-to-back
/// (writer's wake carries the smaller seq at the t=10ns tie), but flipping
/// either tie lets the second actor read the counter *before* the first
/// one's write lands — a lost update. Oracle: counter == 2.
struct LostUpdate;

impl Scenario for LostUpdate {
    fn name(&self) -> &'static str {
        "lost_update"
    }

    fn about(&self) -> &'static str {
        "seeded read-advance-write race on a shared counter (mutation)"
    }

    fn is_mutation(&self) -> bool {
        true
    }

    fn run(&self, policy: &PolicyHandle, _fault: usize) -> Outcome {
        let mut sim = Simulation::new();
        policy.install(&mut sim.kernel());
        let counter: Arc<SimCell<u64>> = Arc::new(SimCell::new(0));

        // Actor A: window [0, 10ns).
        let c = Arc::clone(&counter);
        sim.spawn("rmw-a", move |ctx| {
            let v = c.get();
            ctx.advance(time::ns(10));
            c.set(v + 1);
        });
        // Actor B: window [10ns, 20ns) — starts exactly when A's write wake
        // fires, so the two wakes tie at t=10ns.
        let c = Arc::clone(&counter);
        sim.spawn("rmw-b", move |ctx| {
            ctx.advance(time::ns(10));
            let v = c.get();
            ctx.advance(time::ns(10));
            c.set(v + 1);
        });
        // Noise actor: touches nothing, but wakes at both boundaries so the
        // tie sets are wider than two and the explorer has more to chew on.
        sim.spawn("noise", move |ctx| {
            ctx.advance(time::ns(10));
            ctx.advance(time::ns(10));
        });

        let viol: ViolCell = Arc::new(Mutex::new(None));
        let result = sim.run_result();
        let got = counter.get();
        if result.is_ok() && got != 2 {
            note_viol(&viol, format!("lost update: counter is {got}, expected 2"));
        }
        outcome_from(result, policy, &viol, |end| state_hash(&[got, end]))
    }
}

// ---------------------------------------------------------------------------
// Mutation: missed notify
// ---------------------------------------------------------------------------

/// Seeded bug: a waiter parks on a condition without re-checking a flag
/// (the classic missed-wakeup shape) while a signaller fires `notify_one`
/// at the same virtual time. Default order parks the waiter first, so the
/// notify connects; perturbing either tie delivers the notify into thin air
/// and the waiter sleeps forever. Oracle: the run must not deadlock.
struct MissedNotify;

impl Scenario for MissedNotify {
    fn name(&self) -> &'static str {
        "missed_notify"
    }

    fn about(&self) -> &'static str {
        "seeded lost-wakeup: unconditional cond_wait racing notify_one (mutation)"
    }

    fn is_mutation(&self) -> bool {
        true
    }

    fn run(&self, policy: &PolicyHandle, _fault: usize) -> Outcome {
        let mut sim = Simulation::new();
        let cond = {
            let mut k = sim.kernel();
            policy.install(&mut k);
            k.new_cond()
        };
        sim.spawn("waiter", move |ctx| {
            ctx.advance(time::ns(10));
            // BUG: no state check before waiting — if the signal already
            // fired, this parks forever.
            ctx.cond_wait(cond);
        });
        sim.spawn("signaller", move |ctx| {
            ctx.advance(time::ns(10));
            ctx.cond_notify_one(cond);
        });

        let viol: ViolCell = Arc::new(Mutex::new(None));
        let result = sim.run_result();
        outcome_from(result, policy, &viol, |end| state_hash(&[end]))
    }
}

// ---------------------------------------------------------------------------
// UTS work stealing
// ---------------------------------------------------------------------------

/// Unbalanced Tree Search on 4 threads / 2 nodes: steals, releases and the
/// termination protocol all race at collective boundaries. Oracle: the node
/// count must equal the sequential traversal — no tree node may be lost or
/// double-counted under any tie order, including with packet loss rerouting
/// steals.
struct UtsSteal;

const UTS_SEED: u32 = 5;

impl UtsSteal {
    fn config(fault: usize) -> UtsConfig {
        let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirst, UTS_SEED);
        if fault == 1 {
            cfg.fault = Some(FaultPlan::new(11).loss(0.2));
        }
        cfg
    }
}

impl Scenario for UtsSteal {
    fn name(&self) -> &'static str {
        "uts_steal"
    }

    fn about(&self) -> &'static str {
        "UTS work stealing: node count == sequential traversal"
    }

    fn fault_labels(&self) -> Vec<&'static str> {
        vec!["none", "loss20"]
    }

    fn run(&self, policy: &PolicyHandle, fault: usize) -> Outcome {
        let cfg = Self::config(fault);
        let (want_total, _, want_leaves) = sequential_traverse(&cfg.tree);
        let p = policy.clone();
        let result = run_uts_prepared(cfg, move |k| p.install(k));
        match result {
            Ok(r) => {
                let violation = if r.total_nodes != want_total || r.leaves != want_leaves {
                    Some(Violation {
                        kind: ViolationKind::State,
                        detail: format!(
                            "UTS count mismatch: got {} nodes / {} leaves, expected {} / {}",
                            r.total_nodes, r.leaves, want_total, want_leaves
                        ),
                    })
                } else {
                    None
                };
                let end_time = time::from_secs_f64(r.seconds);
                let end_state = if violation.is_none() {
                    state_hash(&[r.total_nodes, r.max_depth, r.leaves])
                } else {
                    0
                };
                Outcome {
                    end_state,
                    end_time,
                    decisions: policy.log(),
                    violation,
                }
            }
            Err(e) => Outcome {
                end_state: 0,
                end_time: err_time(&e),
                decisions: policy.log(),
                violation: Some(violation_from_err(&e)),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Split-phase barrier
// ---------------------------------------------------------------------------

/// Split-phase barrier agreement on 6 threads / 2 nodes: every thread
/// publishes its round number, calls `upc_notify`, then after `upc_wait`
/// must see *every* other thread's publication. Oracle: no thread exits
/// `wait` before all notifies of the round are in.
struct SplitBarrier;

impl Scenario for SplitBarrier {
    fn name(&self) -> &'static str {
        "split_barrier"
    }

    fn about(&self) -> &'static str {
        "split-phase barrier: publications visible after wait, every round"
    }

    fn run(&self, policy: &PolicyHandle, _fault: usize) -> Outcome {
        const THREADS: usize = 6;
        const ROUNDS: u64 = 4;
        let job = UpcJob::new(UpcConfig::test_default(THREADS, 2));
        policy.install(&mut job.kernel());
        let slots: Arc<Vec<SimCell<u64>>> =
            Arc::new((0..THREADS).map(|_| SimCell::new(0)).collect());
        let viol: ViolCell = Arc::new(Mutex::new(None));

        let slots2 = Arc::clone(&slots);
        let viol2 = Arc::clone(&viol);
        let result = job.run_result(move |upc| {
            let me = upc.mythread();
            for r in 1..=ROUNDS {
                slots2[me].set(r);
                upc.notify();
                // Uniform local work between the phases keeps the notify
                // and wait wakes tied across threads.
                upc.ctx().advance(time::ns(200));
                upc.wait();
                for (t, slot) in slots2.iter().enumerate() {
                    let v = slot.get();
                    if v < r {
                        note_viol(
                            &viol2,
                            format!(
                                "thread {me} exited wait in round {r} but \
                                 thread {t} had only published {v}"
                            ),
                        );
                    }
                }
            }
        });
        let finals: Vec<u64> = slots.iter().map(|s| s.get()).collect();
        outcome_from(result, policy, &viol, |end| {
            let mut parts = finals;
            parts.push(end);
            state_hash(&parts)
        })
    }
}

// ---------------------------------------------------------------------------
// Hierarchical allreduce / broadcast
// ---------------------------------------------------------------------------

/// Hierarchical collectives on 8 threads / 2 nodes / 2 sockets: forced
/// two-level or three-level plans must produce the arithmetic answer on
/// every thread in every round, whatever order the group stages fire in.
struct Allreduce {
    three_level: bool,
}

impl Scenario for Allreduce {
    fn name(&self) -> &'static str {
        if self.three_level {
            "allreduce3"
        } else {
            "allreduce2"
        }
    }

    fn about(&self) -> &'static str {
        if self.three_level {
            "three-level allreduce/broadcast agreement on 2 nodes x 2 sockets"
        } else {
            "two-level allreduce/broadcast agreement on 2 nodes"
        }
    }

    fn run(&self, policy: &PolicyHandle, _fault: usize) -> Outcome {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 3;
        let mut cfg = UpcConfig::test_default(THREADS as usize, 2);
        cfg.gasnet.machine.sockets_per_node = 2;
        cfg.gasnet.machine.cores_per_socket = 2;
        let job = UpcJob::new(cfg);
        let algo = if self.three_level {
            CollAlgo::ThreeLevel
        } else {
            CollAlgo::TwoLevel
        };
        CollDomain::for_job(&job, CollPlan::Force(algo)).install(&job);
        policy.install(&mut job.kernel());
        let viol: ViolCell = Arc::new(Mutex::new(None));
        let viol2 = Arc::clone(&viol);
        let result = job.run_result(move |upc| {
            let me = upc.mythread() as u64;
            for r in 0..ROUNDS {
                let sum = upc.allreduce_sum_u64(3 * me + r + 1);
                let want_sum = 3 * (THREADS * (THREADS - 1) / 2) + THREADS * (r + 1);
                if sum != want_sum {
                    note_viol(
                        &viol2,
                        format!("round {r}: thread {me} allreduce_sum {sum} != {want_sum}"),
                    );
                }
                let max = upc.allreduce_max_u64(me + r);
                if max != THREADS - 1 + r {
                    note_viol(
                        &viol2,
                        format!("round {r}: thread {me} allreduce_max {max} != {}", THREADS - 1 + r),
                    );
                }
                let root = (r % THREADS) as usize;
                let word = upc.broadcast_word(root, 0xB0 + r);
                if word != 0xB0 + r {
                    note_viol(
                        &viol2,
                        format!("round {r}: thread {me} broadcast got {word:#x}"),
                    );
                }
            }
        });
        outcome_from(result, policy, &viol, |end| state_hash(&[end]))
    }
}

// ---------------------------------------------------------------------------
// Retry/backoff under loss
// ---------------------------------------------------------------------------

/// PGAS puts/gets under packet loss, with application-level retry/backoff
/// over the `try_*` operations (the same shape the UTS steal path uses to
/// reroute). Oracle: every retry loop terminates within its attempt cap,
/// each thread reads back exactly what it wrote into its neighbor's
/// segment, and the run completes (no deadlock, no panic) — on every
/// schedule, because the fault stream's draw order shifts with the
/// interleaving.
struct RetryLoss;

/// App-level retry cap; exceeding it is a termination violation.
const RETRY_CAP: usize = 300;

impl Scenario for RetryLoss {
    fn name(&self) -> &'static str {
        "retry_loss"
    }

    fn about(&self) -> &'static str {
        "try-puts/gets + barriers under 10% loss: exact data, bounded retries"
    }

    fn fault_labels(&self) -> Vec<&'static str> {
        vec!["loss10"]
    }

    fn run(&self, policy: &PolicyHandle, _fault: usize) -> Outcome {
        const THREADS: usize = 4;
        const ROUNDS: u64 = 3;
        let mut cfg = UpcConfig::test_default(THREADS, 2);
        cfg.gasnet.fault = Some(FaultPlan::new(23).loss(0.10));
        let job = UpcJob::new(cfg);
        let off = job.runtime().alloc_words(THREADS);
        policy.install(&mut job.kernel());
        let viol: ViolCell = Arc::new(Mutex::new(None));
        let viol2 = Arc::clone(&viol);
        let result = job.run_result(move |upc| {
            let me = upc.mythread();
            let n = upc.threads();
            let right = (me + 1) % n;
            // Retry with linear backoff until the op lands or the cap trips.
            let attempt = |what: &str, mut op: Box<dyn FnMut() -> bool + '_>| -> bool {
                for tries in 0..RETRY_CAP {
                    if op() {
                        return true;
                    }
                    upc.ctx().advance(time::ns(300 * (1 + tries as u64 / 8)));
                }
                note_viol(
                    &viol2,
                    format!("thread {me}: {what} did not land within {RETRY_CAP} attempts"),
                );
                false
            };
            for r in 0..ROUNDS {
                let val = 1000 * (r + 1) + me as u64;
                // Write into the right neighbor's segment, slot `me`.
                attempt(
                    "memput",
                    Box::new(|| upc.try_memput(right, off + me, &[val]).is_ok()),
                );
                upc.barrier();
                // Read it back across the wire and verify.
                let mut got = [0u64];
                if attempt(
                    "memget",
                    Box::new(|| upc.try_memget(right, off + me, &mut got).is_ok()),
                ) && got[0] != val
                {
                    note_viol(
                        &viol2,
                        format!(
                            "round {r}: thread {me} read {} from neighbor {right}, wrote {val}",
                            got[0]
                        ),
                    );
                }
                upc.barrier();
            }
        });
        outcome_from(result, policy, &viol, |end| state_hash(&[end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario's default schedule (empty prefix) must pass its own
    /// oracle — mutations included: the seeded bugs only fire when a tie is
    /// actually flipped.
    #[test]
    fn default_schedules_are_clean() {
        for s in all_scenarios() {
            for fault in 0..s.fault_labels().len() {
                let policy = PolicyHandle::prefix(&[]);
                let out = s.run(&policy, fault);
                assert!(
                    out.violation.is_none(),
                    "{} (fault {}) violated its oracle on the default schedule: {:?}",
                    s.name(),
                    fault,
                    out.violation
                );
            }
        }
    }

    /// The seeded lost-update fires when the first tie is flipped.
    #[test]
    fn lost_update_mutation_fires() {
        let s = LostUpdate;
        let policy = PolicyHandle::prefix(&[1]);
        let out = s.run(&policy, 0);
        let v = out.violation.expect("perturbed schedule must lose an update");
        assert_eq!(v.kind, ViolationKind::State);
    }

    /// The seeded missed-notify deadlocks when the first tie is flipped.
    #[test]
    fn missed_notify_mutation_fires() {
        let s = MissedNotify;
        let policy = PolicyHandle::prefix(&[1]);
        let out = s.run(&policy, 0);
        let v = out.violation.expect("perturbed schedule must deadlock");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    /// Scenario names are unique and stable (the corpus depends on them).
    #[test]
    fn scenario_names_are_unique() {
        let names: Vec<_> = all_scenarios().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate scenario names: {names:?}");
    }
}
