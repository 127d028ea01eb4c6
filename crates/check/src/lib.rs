//! `hupc-check` — bounded model checking of the runtime's schedule space.
//!
//! The deterministic sim kernel dispatches events in (time, seq) order; the
//! *only* nondeterminism a real machine would add is the order of events
//! tied at the same virtual time. The kernel exposes exactly that surface
//! through the [`hupc_sim::SchedulePolicy`] seam, and this crate drives it:
//!
//! - [`policy`] — recording tie-break policies (seeded random sampling and
//!   forced-prefix replay); a run's decision log is its complete identity.
//! - [`scenario`] — tie-rich workloads over the stack (UTS stealing,
//!   split-phase barriers, hierarchical collectives, retry-under-loss) with
//!   invariant oracles, plus two deliberately seeded ordering bugs the
//!   harness must catch (mutation testing of the checker itself).
//! - [`explore`] — bounded exploration: systematic prefix branching with
//!   visited-set (sleep-set-lite) pruning plus seeded random sampling.
//! - [`shrink`] — ddmin-style reduction of a failing schedule to a
//!   1-minimal decision prefix.
//! - [`artifact`] — replayable text artifacts; minimal failing schedules
//!   are committed under `crates/check/corpus/` and replayed in CI.
//!
//! The `hupc-check` binary wires these into `explore` / `mutation` /
//! `replay` / `corpus` subcommands (see `README.md`).

pub mod artifact;
pub mod explore;
pub mod policy;
pub mod rng;
pub mod scenario;
pub mod shrink;

pub use artifact::{Artifact, ARTIFACT_EXT, ARTIFACT_VERSION};
pub use explore::{explore, ExploreConfig, ExploreReport, ScheduleFailure};
pub use policy::{log_hash, prefix_hash, Decision, PolicyHandle};
pub use scenario::{
    all_scenarios, find_scenario, Outcome, Scenario, Violation, ViolationKind,
};
pub use shrink::shrink;
