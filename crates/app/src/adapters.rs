//! Adapters migrating the four thesis apps onto the [`Workload`] trait.
//!
//! The kernels stay in their own crates; each adapter is just param
//! parsing, env plumbing, and oracle mapping. Equivalence with the direct
//! drivers is pinned in `tests/equivalence.rs`.

use hupc_fft::{run_ft_upc, FtConfig};
use hupc_gups::{run_gups, GupsConfig, Routing};
use hupc_stream::{run_twisted_triad, TriadVariant, TwistedConfig};
use hupc_uts::{run_uts, sequential_traverse, StealStrategy, UtsConfig};

use crate::params::Params;
use crate::workload::{AppError, RunEnv, Verified, Workload};

// ---------------------------------------------------------------------------
// UTS
// ---------------------------------------------------------------------------

/// Unbalanced Tree Search: hierarchical work stealing over the steal-stack.
pub struct UtsWorkload;

/// Build the UtsConfig an `(env, params)` pair denotes. Shared with the
/// equivalence tests, so "the adapter runs the same config" is checkable.
pub fn uts_config(env: &RunEnv, params: &Params) -> Result<UtsConfig, AppError> {
    let mut r = params.reader();
    let seed = r.u32_or("seed", 5)?;
    let strategy = match r.choice_or("strategy", &["random", "local", "rapid"], "local")? {
        "random" => StealStrategy::Random,
        "local" => StealStrategy::LocalFirst,
        _ => StealStrategy::LocalFirstRapid,
    };
    r.finish()?;
    env.check_layout()?;
    let mut cfg = UtsConfig::small(env.threads, env.nodes_used, strategy, seed);
    cfg.machine = env.machine.clone();
    cfg.conduit = env.conduit.clone();
    cfg.fault = env.fault.clone();
    Ok(cfg)
}

impl Workload for UtsWorkload {
    fn name(&self) -> &'static str {
        "uts"
    }

    fn description(&self) -> &'static str {
        "unbalanced tree search: hierarchical work stealing (thesis Fig 3.3)"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("seed", "5".into(), "tree root seed (u32)"),
            ("strategy", "local".into(), "victim policy: random|local|rapid"),
        ]
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let cfg = uts_config(env, params)?;
        let (want_nodes, want_depth, want_leaves) = sequential_traverse(&cfg.tree);
        let r = run_uts(cfg);
        let passed = r.total_nodes == want_nodes
            && r.max_depth == want_depth as u64
            && r.leaves == want_leaves;
        Ok(Verified {
            passed,
            oracle: format!(
                "traversed {} nodes (want {}), depth {} (want {}), leaves {} (want {})",
                r.total_nodes, want_nodes, r.max_depth, want_depth, r.leaves, want_leaves
            ),
            metrics: vec![
                ("total_nodes".into(), r.total_nodes as f64),
                ("max_depth".into(), r.max_depth as f64),
                ("leaves".into(), r.leaves as f64),
                ("mnodes_per_sec".into(), r.mnodes_per_sec),
                ("local_steal_ratio".into(), r.local_steal_ratio()),
                ("comm_failures".into(), r.comm_failures as f64),
            ],
            end_seconds: r.seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// NAS FT
// ---------------------------------------------------------------------------

/// NAS FT: distributed 3-D FFT with an all-to-all exchange.
pub struct FtWorkload;

pub fn ft_config(env: &RunEnv, params: &Params) -> Result<FtConfig, AppError> {
    let mut r = params.reader();
    let nx = r.usize_or("nx", 8)?;
    let ny = r.usize_or("ny", 8)?;
    let nz = r.usize_or("nz", 16)?;
    let iters = r.usize_or("iters", 2)?;
    let exchange = match r.choice_or("exchange", &["split", "overlap", "hier"], "split")? {
        "split" => hupc_fft::ExchangeKind::SplitPhase,
        "overlap" => hupc_fft::ExchangeKind::Overlap,
        _ => hupc_fft::ExchangeKind::Hierarchical,
    };
    r.finish()?;
    env.check_layout()?;
    for (name, n) in [("nx", nx), ("ny", ny), ("nz", nz)] {
        if !n.is_power_of_two() {
            return Err(AppError::Unsupported(format!(
                "ft: {name} = {n} is not a power of two"
            )));
        }
    }
    // No iteration computes no checksum, so the oracle would compare none.
    if iters == 0 {
        return Err(AppError::Unsupported(
            "ft: iters = 0 computes no checksum to verify".into(),
        ));
    }
    let p = env.threads;
    if ny % p != 0 || nz % p != 0 {
        return Err(AppError::Unsupported(format!(
            "ft: {p} threads must divide ny ({ny}) and nz ({nz})"
        )));
    }
    let mut cfg = FtConfig::test_custom(nx, ny, nz, iters, env.threads, env.nodes_used);
    cfg.machine = env.machine.clone();
    cfg.conduit = env.conduit.clone();
    cfg.exchange = exchange;
    cfg.fault = env.fault.clone();
    Ok(cfg)
}

impl Workload for FtWorkload {
    fn name(&self) -> &'static str {
        "ft"
    }

    fn description(&self) -> &'static str {
        "NAS FT: 3-D FFT with all-to-all exchange, checksum-verified"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("nx", "8".into(), "grid x (power of two)"),
            ("ny", "8".into(), "grid y (power of two, divisible by threads)"),
            ("nz", "16".into(), "grid z (power of two, divisible by threads)"),
            ("iters", "2".into(), "evolve iterations"),
            ("exchange", "split".into(), "exchange schedule: split|overlap|hier"),
        ]
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let cfg = ft_config(env, params)?;
        let class = cfg.class;
        let want = hupc_fft::seq_checksums(class);
        let r = run_ft_upc(cfg);
        let mut worst = 0.0f64;
        let mut passed = r.checksums.len() == want.len();
        for ((re, im), c) in r.checksums.iter().zip(&want) {
            let scale = c.re.abs().max(c.im.abs()).max(1.0);
            let err = ((re - c.re).abs() / scale).max((im - c.im).abs() / scale);
            worst = worst.max(err);
            passed &= err < 1e-9;
        }
        Ok(Verified {
            passed,
            oracle: format!(
                "{} checksums vs sequential FT, worst relative error {worst:.3e} (tol 1e-9)",
                r.checksums.len()
            ),
            metrics: vec![
                ("gflops".into(), r.gflops),
                ("comm_seconds".into(), r.comm_seconds),
                ("fft2d_seconds".into(), r.fft2d_seconds),
                ("checksum_worst_rel_err".into(), worst),
            ],
            end_seconds: r.total_seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// GUPS
// ---------------------------------------------------------------------------

/// HPCC RandomAccess with routed update aggregation.
pub struct GupsWorkload;

pub fn gups_config(env: &RunEnv, params: &Params) -> Result<GupsConfig, AppError> {
    let mut r = params.reader();
    let routing = match r.choice_or("routing", &["direct", "perthread", "hier"], "hier")? {
        "direct" => Routing::Direct,
        "perthread" => Routing::PerThread,
        _ => Routing::Hierarchical,
    };
    let updates = r.usize_or("updates", 300)?;
    let seed = r.u64_or("seed", 0xD00D)?;
    r.finish()?;
    env.check_layout()?;
    // With no updates the oracle has nothing to compare: `direct` fails
    // `0 < 1 % of 0`, the aggregated routings pass on zero table words.
    if updates == 0 {
        return Err(AppError::Unsupported("gups: updates must be at least 1".into()));
    }
    let mut cfg = GupsConfig::small(env.threads, env.nodes_used, routing);
    cfg.machine = env.machine.clone();
    cfg.conduit = env.conduit.clone();
    cfg.updates_per_thread = updates;
    cfg.seed = seed;
    cfg.fault = env.fault.clone();
    Ok(cfg)
}

impl Workload for GupsWorkload {
    fn name(&self) -> &'static str {
        "gups"
    }

    fn description(&self) -> &'static str {
        "HPCC RandomAccess: routed update aggregation, verified vs serial table"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("routing", "hier".into(), "update routing: direct|perthread|hier"),
            ("updates", "300".into(), "updates per thread"),
            ("seed", "53261".into(), "update-stream seed (u64)"),
        ]
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let cfg = gups_config(env, params)?;
        let routing = cfg.routing;
        let r = run_gups(cfg);
        // HPCC tolerates 1% lost updates for the racy direct routing; the
        // aggregated routings are conflict-free and must be exact.
        let passed = match routing {
            Routing::Direct => (r.errors as f64) < 0.01 * r.total_updates as f64,
            _ => r.errors == 0,
        };
        Ok(Verified {
            passed,
            oracle: format!(
                "{} of {} table words diverge from the serial reference ({:?})",
                r.errors, r.total_updates, routing
            ),
            metrics: vec![
                ("gups".into(), r.gups),
                ("total_updates".into(), r.total_updates as f64),
                ("errors".into(), r.errors as f64),
                ("exchange_seconds".into(), r.exchange_seconds),
            ],
            end_seconds: r.seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// STREAM (twisted triad)
// ---------------------------------------------------------------------------

/// The twisted STREAM triad (thesis Table 3.1).
pub struct StreamWorkload;

pub fn stream_config(env: &RunEnv, params: &Params) -> Result<TwistedConfig, AppError> {
    let mut r = params.reader();
    let variant = match r.choice_or(
        "variant",
        &["baseline", "relocalize", "cast", "openmp"],
        "cast",
    )? {
        "baseline" => TriadVariant::UpcBaseline,
        "relocalize" => TriadVariant::UpcRelocalize,
        "cast" => TriadVariant::UpcCast,
        _ => TriadVariant::OpenMpAnalog,
    };
    let elems = r.usize_or("elems", 1 << 12)?;
    let iters = r.usize_or("iters", 2)?;
    r.finish()?;
    // The triad always runs on one node, whatever `nodes_used` says.
    RunEnv {
        nodes_used: 1,
        ..env.clone()
    }
    .check_layout()?;
    if !env.threads.is_multiple_of(2) {
        return Err(AppError::Unsupported(
            "stream: twisting pairs threads odd/even (threads must be even)".into(),
        ));
    }
    // No element allocates no array; no iteration writes no `a`, so the
    // oracle would compare zeros against `b + s*c`.
    for (name, n) in [("elems", elems), ("iters", iters)] {
        if n == 0 {
            return Err(AppError::Unsupported(format!(
                "stream: {name} must be at least 1"
            )));
        }
    }
    let mut cfg = TwistedConfig::small(variant);
    cfg.machine = env.machine.clone();
    cfg.threads = env.threads;
    cfg.elems_per_thread = elems;
    cfg.iters = iters;
    cfg.fault = env.fault.clone();
    Ok(cfg)
}

impl Workload for StreamWorkload {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn description(&self) -> &'static str {
        "twisted STREAM triad: privatization cost ablation (thesis Table 3.1)"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            (
                "variant",
                "cast".into(),
                "triad variant: baseline|relocalize|cast|openmp",
            ),
            ("elems", "4096".into(), "array elements per thread"),
            ("iters", "2".into(), "triad iterations"),
        ]
    }

    fn default_env(&self) -> RunEnv {
        // The triad is a single-node kernel with odd/even thread pairing.
        RunEnv::small(4, 1)
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let cfg = stream_config(env, params)?;
        let r = run_twisted_triad(cfg);
        Ok(Verified {
            passed: r.max_error == 0.0,
            oracle: format!(
                "max |a - (b + s*c)| = {:.3e} (must be exactly 0)",
                r.max_error
            ),
            metrics: vec![("gbps".into(), r.gbps), ("max_error".into(), r.max_error)],
            end_seconds: r.seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ft_rejects_shapes_it_cannot_run() {
        let unsupported = |env: RunEnv, params: &[&str]| {
            let params = Params::parse(params).unwrap();
            matches!(FtWorkload.run(&env, &params), Err(AppError::Unsupported(_)))
        };
        // 3 threads divide neither the default ny = 8 nor nz = 16.
        assert!(unsupported(RunEnv::small(3, 1), &[]));
        // 4 threads divide nz = 16 but not ny = 2.
        assert!(unsupported(RunEnv::small(4, 2), &["ny=2"]));
        assert!(unsupported(RunEnv::small(4, 2), &["nx=12"]));
        assert!(unsupported(RunEnv::small(4, 2), &["nz=0"]));
    }

    #[test]
    fn ft_rejects_runs_without_checksums() {
        let env = RunEnv::small(4, 2);
        let params = Params::parse(&["iters=0"]).unwrap();
        let got = FtWorkload.run(&env, &params);
        assert!(matches!(got, Err(AppError::Unsupported(_))), "{got:?}");
        // One iteration is one checksum, and it verifies.
        let params = Params::parse(&["iters=1"]).unwrap();
        assert!(FtWorkload.run(&env, &params).unwrap().passed);
    }

    #[test]
    fn stream_rejects_empty_runs() {
        let env = RunEnv::small(2, 1);
        for params in [["elems=0"], ["iters=0"]] {
            let params = Params::parse(&params).unwrap();
            let got = StreamWorkload.run(&env, &params);
            assert!(
                matches!(got, Err(AppError::Unsupported(_))),
                "{params:?}: {got:?}"
            );
        }
        // The smallest run that writes `a` still verifies.
        let params = Params::parse(&["elems=1", "iters=1"]).unwrap();
        assert!(StreamWorkload.run(&env, &params).unwrap().passed);
    }

    #[test]
    fn gups_rejects_empty_runs() {
        let env = RunEnv::small(2, 1);
        for routing in ["direct", "perthread", "hier"] {
            let params = Params::parse(&[&format!("routing={routing}"), "updates=0"]).unwrap();
            let got = GupsWorkload.run(&env, &params);
            assert!(
                matches!(got, Err(AppError::Unsupported(_))),
                "{routing}: {got:?}"
            );
            // The smallest run that updates the table still verifies.
            let params = Params::parse(&[&format!("routing={routing}"), "updates=1"]).unwrap();
            assert!(GupsWorkload.run(&env, &params).unwrap().passed, "{routing}");
        }
    }

    #[test]
    fn unplaceable_layouts_are_unsupported_not_panics() {
        // Each `(threads, nodes)` breaks one of `Placement::build`'s
        // asserts on the small-test machine (4 PUs per node).
        let layouts = [(3, 2), (5, 2), (2, 3), (1, 4), (0, 1), (4, 0), (64, 1)];
        for w in crate::registry::Registry::builtin().iter() {
            for (threads, nodes) in layouts {
                // STREAM runs on one node whatever `nodes_used` says, so
                // these two layouts are placeable for it.
                let runs = w.name() == "stream" && matches!((threads, nodes), (2, 3) | (4, 0));
                match w.run(&RunEnv::small(threads, nodes), &Params::empty()) {
                    Err(AppError::Unsupported(_)) if !runs => {}
                    Ok(v) if runs && v.passed => {}
                    other => panic!("{} on ({threads}, {nodes}): {other:?}", w.name()),
                }
            }
        }
    }
}
