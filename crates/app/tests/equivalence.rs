//! Migration-safety pins: each adapter must produce results bit-identical
//! to the direct (pre-SDK) driver invoked with the same configuration.

use hupc_app::adapters::{
    ft_config, gups_config, stream_config, uts_config, FtWorkload, GupsWorkload, StreamWorkload,
    UtsWorkload,
};
use hupc_app::{Params, Workload};

fn bits(v: f64) -> u64 {
    v.to_bits()
}

#[test]
fn uts_adapter_matches_direct_driver() {
    let w = UtsWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_uts::run_uts(uts_config(&env, &params).unwrap());
    let v = w.run(&env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(v.metric("total_nodes").unwrap() as u64, direct.total_nodes);
    assert_eq!(v.metric("max_depth").unwrap() as u64, direct.max_depth);
    assert_eq!(v.metric("leaves").unwrap() as u64, direct.leaves);
    assert_eq!(bits(v.metric("mnodes_per_sec").unwrap()), bits(direct.mnodes_per_sec));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

#[test]
fn ft_adapter_matches_direct_driver() {
    let w = FtWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_fft::run_ft_upc(ft_config(&env, &params).unwrap());
    let v = w.run(&env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(bits(v.metric("gflops").unwrap()), bits(direct.gflops));
    assert_eq!(bits(v.metric("comm_seconds").unwrap()), bits(direct.comm_seconds));
    assert_eq!(bits(v.end_seconds), bits(direct.total_seconds));
}

#[test]
fn gups_adapter_matches_direct_driver() {
    let w = GupsWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_gups::run_gups(gups_config(&env, &params).unwrap());
    let v = w.run(&env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(v.metric("errors").unwrap() as u64, direct.errors);
    assert_eq!(v.metric("total_updates").unwrap() as u64, direct.total_updates);
    assert_eq!(bits(v.metric("gups").unwrap()), bits(direct.gups));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

#[test]
fn stream_adapter_matches_direct_driver() {
    let w = StreamWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_stream::run_twisted_triad(stream_config(&env, &params).unwrap());
    let v = w.run(&env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(bits(v.metric("gbps").unwrap()), bits(direct.gbps));
    assert_eq!(bits(v.metric("max_error").unwrap()), bits(direct.max_error));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

/// Each adapter re-parses params per call; defaults must round-trip with
/// the explicit spelling of those defaults.
#[test]
fn explicit_defaults_equal_empty_params() {
    let w = UtsWorkload;
    let env = w.default_env();
    let a = w.run(&env, &Params::empty()).unwrap();
    let p = Params::parse(&["seed=5", "strategy=local"]).unwrap();
    let b = w.run(&env, &p).unwrap();
    assert_eq!(bits(a.end_seconds), bits(b.end_seconds));
    assert_eq!(a.metric("total_nodes"), b.metric("total_nodes"));
}
