//! Bounded schedule exploration: systematic prefix branching with
//! visited-set pruning (sleep-set-lite), plus seeded random sampling.
//!
//! Every run is identified by its decision log — the sequence of tie-breaks
//! the policy made. The systematic stage replays a forced prefix and then
//! lets the kernel default (seq order) finish the run; each decision point
//! observed past the prefix spawns sibling prefixes for every alternative
//! choice. A visited set over prefix fingerprints prunes the re-exploration
//! a naive DFS would do after commuting choices — the lite version of a
//! sleep set: we cannot prove two tied events independent, but we never
//! schedule the same forced prefix twice.
//!
//! On a violation the failing prefix is shrunk (see [`crate::shrink`]) to a
//! 1-minimal schedule, replayed twice for determinism, and reported as a
//! [`ScheduleFailure`] ready to serialize into the corpus.

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use hupc_sim::rng::SplitMix64;

use crate::policy::{log_hash, prefix_hash, PolicyHandle};
use crate::scenario::{Outcome, Scenario, Violation};
use crate::shrink::shrink;

/// Exploration budget and knobs for one scenario.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Schedules to run per fault plan (systematic + random stages).
    pub budget: usize,
    /// Seed for the random-sampling stage.
    pub seed: u64,
    /// Extra runs the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Optional wall-clock cap across this scenario's exploration.
    pub max_wall: Option<Duration>,
    /// Stop exploring a scenario after its first (shrunk) failure.
    pub stop_on_violation: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 200,
            seed: 0xC0FFEE,
            shrink_budget: 400,
            max_wall: None,
            stop_on_violation: true,
        }
    }
}

/// A violation found by exploration, shrunk and replay-verified.
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    pub scenario: String,
    pub fault: usize,
    pub fault_label: String,
    pub violation: Violation,
    /// The prefix that first exposed the violation.
    pub found: Vec<u32>,
    /// The 1-minimal failing prefix after shrinking.
    pub minimal: Vec<u32>,
    /// Decision-log fingerprint of the minimal replay.
    pub log_hash: u64,
    /// Two fresh replays of `minimal` reproduced the same violation kind
    /// and identical decision logs.
    pub replay_ok: bool,
}

/// Summary of one scenario's exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    pub scenario: String,
    /// Total schedules executed (all fault plans, incl. shrink replays).
    pub runs: usize,
    /// Distinct schedules seen (unique decision-log fingerprints).
    pub distinct: usize,
    /// Longest decision log observed (tie depth of the scenario).
    pub max_decisions: usize,
    pub failures: Vec<ScheduleFailure>,
    /// Branch prefixes dropped because the frontier hit its cap — nonzero
    /// means the systematic stage did not exhaust the space (expected for
    /// anything nontrivial; the random stage keeps sampling it).
    pub dropped_prefixes: usize,
}

/// Explore one scenario under `cfg`, crossing every registered fault plan.
pub fn explore(s: &dyn Scenario, cfg: &ExploreConfig) -> ExploreReport {
    let start = Instant::now();
    let faults = s.fault_labels();
    let mut report = ExploreReport {
        scenario: s.name().to_string(),
        runs: 0,
        distinct: 0,
        max_decisions: 0,
        failures: Vec::new(),
        dropped_prefixes: 0,
    };
    let mut seen = HashSet::new();

    'faults: for (fault, label) in faults.iter().enumerate() {
        let over_wall = |r: &ExploreReport| {
            cfg.max_wall.is_some_and(|cap| start.elapsed() > cap) && r.runs > 0
        };

        // One schedule: force `prefix`, record what actually happened.
        let run_prefix = |prefix: &[u32], report: &mut ExploreReport| -> Outcome {
            let policy = PolicyHandle::prefix(prefix);
            let out = s.run(&policy, fault);
            report.runs += 1;
            report.max_decisions = report.max_decisions.max(out.decisions.len());
            out
        };
        let note_distinct = |out: &Outcome, seen: &mut HashSet<u64>, report: &mut ExploreReport| {
            let mut key = log_hash(&out.decisions);
            key ^= (fault as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if seen.insert(key) {
                report.distinct += 1;
            }
        };

        // The budget splits between a systematic stage (breadth-first over
        // branch prefixes) and a random stage; the systematic stage hands
        // unused budget to the random one when the space is small.
        let systematic_budget = cfg.budget / 2;
        let frontier_cap = cfg.budget.saturating_mul(4).max(64);

        let mut frontier: VecDeque<Vec<u32>> = VecDeque::new();
        frontier.push_back(Vec::new());
        let mut queued: HashSet<u64> = HashSet::new();
        queued.insert(prefix_hash(&[]));

        // Schedules sampled for this fault plan (shrink/replay runs are
        // accounted in `report.runs` but do not consume sampling budget).
        let mut sampled = 0usize;
        while let Some(prefix) = frontier.pop_front() {
            if sampled >= systematic_budget || over_wall(&report) {
                break;
            }
            let out = run_prefix(&prefix, &mut report);
            sampled += 1;
            note_distinct(&out, &mut seen, &mut report);
            if let Some(v) = &out.violation {
                let failing: Vec<u32> = out.decisions.iter().map(|d| d.choice).collect();
                handle_failure(
                    s, fault, label, cfg, v.clone(), failing, &mut report,
                );
                if cfg.stop_on_violation {
                    break 'faults;
                }
                continue;
            }
            // Branch: every untaken choice at every decision point past the
            // forced prefix becomes a new frontier entry (once).
            for i in prefix.len()..out.decisions.len() {
                let d = out.decisions[i];
                for c in 0..d.nready {
                    if c == d.choice {
                        continue;
                    }
                    let mut p2: Vec<u32> =
                        out.decisions[..i].iter().map(|x| x.choice).collect();
                    p2.push(c);
                    if !queued.insert(prefix_hash(&p2)) {
                        continue;
                    }
                    if frontier.len() >= frontier_cap {
                        report.dropped_prefixes += 1;
                    } else {
                        frontier.push_back(p2);
                    }
                }
            }
        }

        // Random stage: whatever sampling budget the systematic stage left.
        let mut rng = SplitMix64(
            cfg.seed ^ (fault as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        while sampled < cfg.budget {
            if over_wall(&report) {
                break;
            }
            let policy = PolicyHandle::random(rng.next_u64());
            let out = s.run(&policy, fault);
            report.runs += 1;
            sampled += 1;
            report.max_decisions = report.max_decisions.max(out.decisions.len());
            note_distinct(&out, &mut seen, &mut report);
            if let Some(v) = &out.violation {
                let failing: Vec<u32> = out.decisions.iter().map(|d| d.choice).collect();
                handle_failure(
                    s, fault, label, cfg, v.clone(), failing, &mut report,
                );
                if cfg.stop_on_violation {
                    break 'faults;
                }
            }
        }
    }
    report
}

fn handle_failure(
    s: &dyn Scenario,
    fault: usize,
    label: &str,
    cfg: &ExploreConfig,
    violation: Violation,
    failing: Vec<u32>,
    report: &mut ExploreReport,
) {
    let kind = violation.kind;
    let mut spent = 0usize;
    let minimal = {
        let mut fails = |p: &[u32]| -> bool {
            let policy = PolicyHandle::prefix(p);
            let out = s.run(&policy, fault);
            spent += 1;
            out.violation.as_ref().is_some_and(|v| v.kind == kind)
        };
        shrink(failing.clone(), cfg.shrink_budget, &mut fails)
    };
    report.runs += spent;

    // Replay the minimal schedule twice: same violation kind, identical
    // decision logs — the artifact is only worth committing if it is
    // deterministic.
    let replay = |p: &[u32]| {
        let policy = PolicyHandle::prefix(p);
        let out = s.run(&policy, fault);
        let h = log_hash(&out.decisions);
        (out, h)
    };
    let (out1, h1) = replay(&minimal);
    let (out2, h2) = replay(&minimal);
    report.runs += 2;
    let replay_ok = h1 == h2
        && out1.violation.as_ref().is_some_and(|v| v.kind == kind)
        && out2.violation.as_ref().is_some_and(|v| v.kind == kind);
    // Prefer the violation text the minimal schedule actually produces.
    let violation = out1.violation.clone().unwrap_or(violation);

    report.failures.push(ScheduleFailure {
        scenario: s.name().to_string(),
        fault,
        fault_label: label.to_string(),
        violation,
        found: failing,
        minimal,
        log_hash: h1,
        replay_ok,
    });
}
