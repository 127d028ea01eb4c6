//! Exploration policies: handles that plug into the sim kernel's
//! [`SchedulePolicy`] tie-break seam and record every decision they make.
//!
//! A policy decides which of the ready events *tied at the same virtual
//! time* dispatches first. Everything else about a run is deterministic, so
//! the decision log — `(choice, nready)` per consulted tie — is a complete,
//! replayable identity of the schedule.

use std::sync::{Arc, Mutex};

use hupc_sim::rng::SplitMix64;
use hupc_sim::{Kernel, ReadyEvent, SchedulePolicy};

use crate::rng::Fnv64;

/// One recorded tie-break: which index was chosen out of how many ready
/// events. `nready` is recorded so branching in the explorer knows the
/// sibling choices that existed at this point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    pub choice: u32,
    pub nready: u32,
}

enum Mode {
    /// Seeded random sampling: uniform over the ready set at every tie.
    Random(SplitMix64),
    /// Forced prefix: decision `k` takes `prefix[k]` (clamped to the ready
    /// set); past the end of the prefix, index 0 — the kernel's default
    /// seq order. The empty prefix therefore reproduces the default run.
    Prefix(Vec<u32>),
}

struct Core {
    mode: Mode,
    log: Vec<Decision>,
}

/// Shared handle to a recording policy. Cloneable so the driver keeps a
/// reference while a boxed forwarder lives inside the kernel.
#[derive(Clone)]
pub struct PolicyHandle {
    core: Arc<Mutex<Core>>,
}

impl PolicyHandle {
    pub fn random(seed: u64) -> Self {
        PolicyHandle {
            core: Arc::new(Mutex::new(Core {
                mode: Mode::Random(SplitMix64(seed)),
                log: Vec::new(),
            })),
        }
    }

    pub fn prefix(choices: &[u32]) -> Self {
        PolicyHandle {
            core: Arc::new(Mutex::new(Core {
                mode: Mode::Prefix(choices.to_vec()),
                log: Vec::new(),
            })),
        }
    }

    /// Install a forwarder for this handle into a kernel. Call before the
    /// simulation runs.
    pub fn install(&self, k: &mut Kernel) {
        k.set_schedule_policy(Some(Box::new(Forwarder {
            core: Arc::clone(&self.core),
        })));
    }

    /// The decisions recorded so far (drained runs leave the log in place;
    /// a handle is single-run — build a fresh one per run).
    pub fn log(&self) -> Vec<Decision> {
        self.core.lock().unwrap().log.clone()
    }

    /// Just the chosen indices, suitable for use as a replay prefix.
    pub fn choices(&self) -> Vec<u32> {
        self.core
            .lock()
            .unwrap()
            .log
            .iter()
            .map(|d| d.choice)
            .collect()
    }

    /// Stable fingerprint of the decision log. Two runs of the same
    /// scenario with equal hashes took the identical schedule.
    pub fn log_hash(&self) -> u64 {
        log_hash(&self.core.lock().unwrap().log)
    }
}

/// Fingerprint a decision log (FNV-1a over (choice, nready) pairs).
pub fn log_hash(log: &[Decision]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(log.len() as u64);
    for d in log {
        h.write_u64(((d.choice as u64) << 32) | d.nready as u64);
    }
    h.finish()
}

/// Fingerprint a forced prefix (used as the explorer's visited-set key).
pub fn prefix_hash(prefix: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(prefix.len() as u64);
    for &c in prefix {
        h.write_u64(c as u64);
    }
    h.finish()
}

struct Forwarder {
    core: Arc<Mutex<Core>>,
}

impl SchedulePolicy for Forwarder {
    fn choose(&mut self, ready: &[ReadyEvent]) -> usize {
        let mut core = self.core.lock().unwrap();
        let n = ready.len() as u32;
        let idx = core.log.len();
        let choice = match &mut core.mode {
            Mode::Random(rng) => (rng.next_u64() % n as u64) as u32,
            Mode::Prefix(p) => p.get(idx).copied().unwrap_or(0).min(n - 1),
        };
        core.log.push(Decision { choice, nready: n });
        choice as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_past_end_defaults_to_zero() {
        let h = PolicyHandle::prefix(&[1]);
        let mut fwd = Forwarder {
            core: Arc::clone(&h.core),
        };
        let ready = |n: usize| {
            (0..n)
                .map(|i| ReadyEvent {
                    time: hupc_sim::time::ns(5),
                    seq: i as u64,
                    kind: hupc_sim::ReadyEventKind::Wake { actor: i },
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fwd.choose(&ready(3)), 1);
        assert_eq!(fwd.choose(&ready(3)), 0);
        assert_eq!(
            h.log(),
            vec![
                Decision {
                    choice: 1,
                    nready: 3
                },
                Decision {
                    choice: 0,
                    nready: 3
                }
            ]
        );
    }

    #[test]
    fn out_of_range_prefix_is_clamped() {
        let h = PolicyHandle::prefix(&[9]);
        let mut fwd = Forwarder {
            core: Arc::clone(&h.core),
        };
        let ready: Vec<_> = (0..2)
            .map(|i| ReadyEvent {
                time: hupc_sim::time::ns(5),
                seq: i as u64,
                kind: hupc_sim::ReadyEventKind::Wake { actor: i },
            })
            .collect();
        assert_eq!(fwd.choose(&ready), 1);
    }

    #[test]
    fn log_hash_distinguishes_logs() {
        let a = log_hash(&[Decision {
            choice: 0,
            nready: 2,
        }]);
        let b = log_hash(&[Decision {
            choice: 1,
            nready: 2,
        }]);
        assert_ne!(a, b);
        assert_ne!(log_hash(&[]), a);
    }
}
