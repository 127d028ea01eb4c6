//! End-to-end explorer tests: the seeded mutations must be caught, shrunk
//! to tiny deterministic schedules, and the committed corpus must replay;
//! the real runtime scenarios must hold their invariants under a modest
//! bounded exploration.

use hupc_check::{
    all_scenarios, explore, find_scenario, Artifact, ExploreConfig, PolicyHandle, ARTIFACT_EXT,
};

fn quick(budget: usize) -> ExploreConfig {
    ExploreConfig {
        budget,
        seed: 0xDECAF,
        shrink_budget: 200,
        ..ExploreConfig::default()
    }
}

/// Both seeded ordering bugs are found, shrink to at most two decisions,
/// and replay deterministically.
#[test]
fn mutations_are_caught_shrunk_and_replayable() {
    for s in all_scenarios().iter().filter(|s| s.is_mutation()) {
        let report = explore(s.as_ref(), &quick(64));
        assert_eq!(
            report.failures.len(),
            1,
            "{}: expected exactly one (stop-on-first) failure, got {:?}",
            s.name(),
            report.failures
        );
        let f = &report.failures[0];
        assert!(
            !f.minimal.is_empty() && f.minimal.len() <= 2,
            "{}: minimal schedule should be 1-2 decisions, got {:?}",
            s.name(),
            f.minimal
        );
        assert!(f.replay_ok, "{}: minimal schedule replay was unstable", s.name());

        // The serialized artifact round-trips and reproduces.
        let art = Artifact::from_failure(f);
        let reparsed = Artifact::parse(&art.serialize()).unwrap();
        assert_eq!(art, reparsed);
        let v = reparsed.replay().expect("artifact must reproduce");
        assert_eq!(v.kind, f.violation.kind);

        // Two independent replays of the minimal prefix are identical.
        let run = || {
            let p = PolicyHandle::prefix(&f.minimal);
            let out = s.run(&p, f.fault);
            (out.violation.map(|v| v.kind), hupc_check::log_hash(&out.decisions))
        };
        assert_eq!(run(), run(), "{}: replay is not deterministic", s.name());
    }
}

/// The real runtime scenarios hold their oracles over a bounded exploration
/// (systematic + random stages) and expose a genuinely branchy space.
#[test]
fn runtime_invariants_hold_under_exploration() {
    for s in all_scenarios().iter().filter(|s| !s.is_mutation()) {
        let report = explore(s.as_ref(), &quick(16));
        assert!(
            report.failures.is_empty(),
            "{}: schedule exploration found a violation: {:?}",
            s.name(),
            report.failures
        );
        assert!(
            report.distinct >= 8,
            "{}: only {} distinct schedules out of {} runs — the scenario \
             has lost its tie-richness",
            s.name(),
            report.distinct,
            report.runs
        );
    }
}

/// Every committed corpus entry still reproduces its recorded violation.
#[test]
fn corpus_entries_replay() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != ARTIFACT_EXT) {
            continue;
        }
        let art = Artifact::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        art.replay()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        checked += 1;
    }
    assert!(checked >= 2, "corpus should hold the two mutation schedules");
}

/// An explicitly perturbed UTS schedule still counts every tree node —
/// spot check that the policy seam reaches all the way into the benchmark.
#[test]
fn uts_perturbed_prefix_counts_exactly() {
    let s = find_scenario("uts_steal").unwrap();
    for prefix in [vec![1], vec![0, 2, 1], vec![3, 3, 3, 3]] {
        let p = PolicyHandle::prefix(&prefix);
        let out = s.run(&p, 0);
        assert!(
            out.violation.is_none(),
            "prefix {prefix:?} broke the UTS count: {:?}",
            out.violation
        );
    }
}
