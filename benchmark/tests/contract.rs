//! `BENCHMARK.json` and the metric tables say the same thing, and both stay
//! inside the limits the benchmark driver enforces before it runs anything.

use hupc_benchmark::metrics::{
    benchmark_json, Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    let starts_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn committed_benchmark_json_is_generated_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(is_name(n), "bad name {n:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(is_unit(unit), "bad unit {unit:?}");
    }
}

#[test]
fn tables_are_inside_the_driver_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(!w.why.contains('"') && !w.why.contains('\\'), "{}", w.name);
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("the contract requires a setup_s metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s gets the largest bound");
}
