//! Observability-layer conformance: golden-trace replay, observational
//! freedom (tracing never perturbs virtual time), and merged-trace ordering.
//!
//! Golden files live in `tests/golden/*.jsonl`. To re-bless after an
//! intentional change to the event taxonomy or the simulated platform:
//!
//! ```text
//! HUPC_BLESS=1 cargo test --test integration_trace
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use hupc::gups::{run_gups, GupsConfig, Routing};
use hupc::fft::{run_ft_upc, FtConfig};
use hupc::prelude::*;
use hupc::trace::{to_chrome_trace, to_jsonl, Event, EventKind, TraceLevel, Tracer};
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

/// Small per-actor rings so the committed goldens stay a few hundred KB.
/// Eviction is deterministic, so bounded traces are still byte-identical.
/// UTS needs a deeper ring: its reporting epilogue (nine allreduces) alone
/// emits a few hundred kernel events per actor, and the steal activity that
/// makes the golden interesting must survive it.
const GOLDEN_RING: usize = 256;
const GOLDEN_RING_UTS: usize = 2048;
/// FT's epilogue (checksum + phase-maximum reductions) now runs through the
/// staged collective provider, whose per-phase events would evict the FT
/// spans from a 256-entry ring.
const GOLDEN_RING_FT: usize = 1024;

/// Every test here that runs a simulation holds this for its whole body.
///
/// A `Simulation` adopts whatever tracer is process-global at the instant
/// it is built. `Tracer::install` serialises the *traced* runs among
/// themselves, but an untraced baseline built while a sibling test's tracer
/// is installed would record into that tracer. One guard around traced runs
/// and untraced baselines alike keeps the tests of this binary out of each
/// other's tracer — the only process-global a run still reads. (It is
/// always taken before `Tracer::install`, never inside it.)
fn serialise_simulations() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding the guard protects nothing worth
    // poisoning the others over.
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compare `got` against the committed golden (or overwrite it under
/// `HUPC_BLESS=1`), reporting the first mismatching line instead of dumping
/// two multi-thousand-line strings.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("HUPC_BLESS").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run with HUPC_BLESS=1 to create it")
    });
    if got == want {
        return;
    }
    let (mut line, mut g, mut w) = (0, "<eof>", "<eof>");
    for (i, pair) in got.lines().zip(want.lines()).enumerate() {
        if pair.0 != pair.1 {
            (line, g, w) = (i + 1, pair.0, pair.1);
            break;
        }
    }
    if line == 0 {
        line = got.lines().count().min(want.lines().count()) + 1;
        g = got.lines().nth(line - 1).unwrap_or("<eof>");
        w = want.lines().nth(line - 1).unwrap_or("<eof>");
    }
    panic!(
        "golden {name} diverged at line {line} \
         ({} got vs {} want lines)\n  got:  {g}\n  want: {w}",
        got.lines().count(),
        want.lines().count(),
    );
}

/// Run `work` twice under a fresh Full tracer and return the (byte-identical)
/// JSONL export. The double run IS the replay test: any nondeterminism in
/// event recording or the split near/far queue shows up as a diff here
/// before it can reach the goldens.
fn traced_jsonl(ring: usize, work: impl Fn()) -> String {
    let run_once = || {
        let t = Arc::new(Tracer::with_capacity(TraceLevel::Full, ring));
        let g = t.install();
        work();
        drop(g);
        to_jsonl(&t.merge())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "trace replay is not byte-identical across runs");
    a
}

/// The UTS golden's input: a few-hundred-node tree, big enough to force
/// steals, small enough that the bounded rings keep the interesting middle
/// of the run.
fn golden_uts_config() -> UtsConfig {
    let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirst, 7);
    cfg.tree = hupc::uts::TreeParams::Binomial {
        b0: 30,
        m: 4,
        q: 0.2,
        seed: 7,
    };
    cfg
}

#[test]
fn golden_trace_uts() {
    let _sims = serialise_simulations();
    let jsonl = traced_jsonl(GOLDEN_RING_UTS, || {
        let r = run_uts(golden_uts_config());
        assert!(r.total_nodes > 0);
    });
    assert!(jsonl.contains("\"k\":\"steal_try\""), "no steal attempts traced");
    assert!(jsonl.contains("\"k\":\"lock\""), "no lock events traced");
    check_golden("uts_small.jsonl", &jsonl);
}

#[test]
fn golden_trace_ft() {
    let _sims = serialise_simulations();
    let jsonl = traced_jsonl(GOLDEN_RING_FT, || {
        let r = run_ft_upc(FtConfig::test_custom(8, 8, 8, 1, 2, 2));
        assert!(r.total_seconds > 0.0);
    });
    assert!(jsonl.contains("\"k\":\"span_begin\""), "no FT spans traced");
    assert!(jsonl.contains("\"k\":\"put\""), "no puts traced");
    check_golden("ft_small.jsonl", &jsonl);
}

#[test]
fn golden_trace_gups() {
    let _sims = serialise_simulations();
    let jsonl = traced_jsonl(GOLDEN_RING, || {
        let r = run_gups(GupsConfig::small(4, 2, Routing::PerThread));
        assert_eq!(r.errors, 0);
    });
    assert!(jsonl.contains("\"k\":\"span_begin\""), "no GUPS spans traced");
    check_golden("gups_small.jsonl", &jsonl);
}

/// The coll golden's job: a hierarchical allreduce on 2 nodes.
fn golden_coll_allreduce() {
    let job = UpcJob::new(UpcConfig::test_default(8, 2));
    CollDomain::install_auto(&job);
    job.run(|upc| {
        let me = upc.mythread() as u64;
        let mut v: Vec<u64> = (0..24).map(|i| me + i).collect();
        upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
        assert_eq!(v[0], 28);
        let s = upc.allreduce_sum_f64(me as f64);
        assert_eq!(s, 28.0);
    });
}

#[test]
fn golden_trace_coll_allreduce() {
    let _sims = serialise_simulations();
    // The golden pins the CollBegin/CollEnd taxonomy (op | algo | phase
    // payload packing) and the staged intra/inter phase structure of the
    // provider.
    let jsonl = traced_jsonl(GOLDEN_RING, golden_coll_allreduce);
    assert!(jsonl.contains("\"k\":\"coll_begin\""), "no coll events traced");
    assert!(jsonl.contains("\"k\":\"coll_end\""), "unbalanced coll events");
    check_golden("coll_allreduce_small.jsonl", &jsonl);
}

/// The chrome exporter must stay valid JSON with balanced span begin/ends
/// for a real workload (viewers silently drop malformed records).
#[test]
fn chrome_export_balances_spans() {
    let _sims = serialise_simulations();
    let t = Arc::new(Tracer::new(TraceLevel::Full));
    let g = t.install();
    run_gups(GupsConfig::small(4, 2, Routing::Hierarchical));
    drop(g);
    let merged = t.merge();
    let begins = merged.iter().filter(|e| e.kind == EventKind::SpanBegin).count();
    let ends = merged.iter().filter(|e| e.kind == EventKind::SpanEnd).count();
    assert!(begins > 0);
    assert_eq!(begins, ends, "unbalanced spans");
    let chrome = to_chrome_trace(&merged);
    assert_eq!(chrome.matches("\"ph\":\"B\"").count(), begins);
    assert_eq!(chrome.matches("\"ph\":\"E\"").count(), ends);
    assert!(chrome.starts_with('{') && chrome.trim_end().ends_with('}'));
}

/// Steal metrics land in the registry keyed by topology location, and the
/// distance histogram sees every successful steal.
#[test]
fn uts_steal_metrics_are_recorded() {
    let _sims = serialise_simulations();
    let t = Arc::new(Tracer::new(TraceLevel::Counters));
    let g = t.install();
    let r = run_uts(UtsConfig::small(4, 2, StealStrategy::LocalFirst, 11));
    drop(g);
    let steals = r.local_steals + r.remote_steals;
    assert!(steals > 0, "workload produced no steals");
    assert_eq!(t.metrics().counter_total("uts.steals"), steals);
    assert_eq!(t.metrics().counter_total("uts.steals_local"), r.local_steals);
    assert_eq!(t.metrics().counter_total("uts.steals_remote"), r.remote_steals);
    // Counters level records metrics only — no events, no seqs.
    assert_eq!(t.events_recorded(), 0);
}

fn assert_totally_ordered(m: &[Event]) {
    for w in m.windows(2) {
        assert!(
            (w[0].time, w[0].seq) < (w[1].time, w[1].seq),
            "merged trace not strictly ordered: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    let mut seqs: Vec<u64> = m.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    let n = seqs.len();
    seqs.dedup();
    assert_eq!(seqs.len(), n, "duplicate trace seqs across actors");
}

proptest! {
    // Simulation-heavy properties: few cases, strong assertions.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Observational freedom under fault injection: for random `FaultPlan`
    /// seeds, a run with no tracer, a run with a tracer attached at `Off`,
    /// a run at `Counters`, and a run at `Full` are bit-identical in end
    /// time, event counts, fast-path hits, and the application's own
    /// results. An attached `Off` tracer takes the traced branch of every
    /// instrumented site and still records nothing.
    #[test]
    fn tracing_is_observationally_free_under_faults(
        plan_seed in any::<u64>(),
        tree_seed in 1u32..50,
    ) {
        let _sims = serialise_simulations();
        fn uts_run(plan_seed: u64, tree_seed: u32, level: Option<TraceLevel>) -> (f64, u64, u64, u64, u64) {
            let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirst, tree_seed);
            cfg.conduit = Conduit::gige();
            cfg.fault = Some(
                FaultPlan::new(plan_seed)
                    .loss(0.03)
                    .jitter(Jitter::Uniform { max: hupc::sim::time::us(2) }),
            );
            let tracer = level.map(|l| Arc::new(Tracer::new(l)));
            let guard = tracer.as_ref().map(|t| t.install());
            let r = run_uts(cfg);
            drop(guard);
            match (level, tracer) {
                (Some(TraceLevel::Full), Some(t)) => {
                    assert!(t.events_recorded() > 0, "Full tracer saw no events");
                }
                (Some(TraceLevel::Off), Some(t)) => {
                    assert_eq!(t.events_recorded(), 0, "Off tracer recorded events");
                    assert!(t.metrics().snapshot().entries.is_empty(), "Off tracer counted");
                }
                _ => {}
            }
            (r.seconds, r.total_nodes, r.local_steals, r.remote_steals, r.comm_failures)
        }
        let bare = uts_run(plan_seed, tree_seed, None);
        let off = uts_run(plan_seed, tree_seed, Some(TraceLevel::Off));
        let counters = uts_run(plan_seed, tree_seed, Some(TraceLevel::Counters));
        let full = uts_run(plan_seed, tree_seed, Some(TraceLevel::Full));
        prop_assert_eq!(bare, off);
        prop_assert_eq!(bare, counters);
        prop_assert_eq!(bare, full);
    }

    /// Observational freedom at the kernel-stats level: identical
    /// `SimulationStats` (end_time, events, fast_path_hits, handoffs,
    /// heap_ops) with tracing off vs Full, for random put/get sizes under a
    /// random fault plan seed.
    #[test]
    fn tracing_leaves_kernel_stats_bit_identical(
        plan_seed in any::<u64>(),
        len in 1usize..120,
    ) {
        let _sims = serialise_simulations();
        fn run(plan_seed: u64, len: usize, traced: bool) -> (Time, u64, u64, u64, u64) {
            let mut cfg = UpcConfig::test_default(4, 2);
            cfg.gasnet.fault = Some(FaultPlan::new(plan_seed).loss(0.02));
            let tracer = traced.then(|| Arc::new(Tracer::new(TraceLevel::Full)));
            let guard = tracer.as_ref().map(|t| t.install());
            let job = UpcJob::new(cfg);
            let off = job.runtime().alloc_words(len);
            let lock = job.alloc_lock();
            let stats = job.run(move |upc| {
                let me = upc.mythread();
                let data = vec![me as u64 + 1; len];
                upc.memput((me + 1) % 4, off, &data);
                upc.barrier();
                let mut back = vec![0u64; len];
                upc.memget((me + 3) % 4, off, &mut back);
                lock.lock(&upc);
                lock.unlock(&upc);
                let _ = upc.allreduce_sum_u64(back[0]);
            });
            drop(guard);
            (stats.end_time, stats.events, stats.fast_path_hits, stats.handoffs, stats.heap_ops)
        }
        let off = run(plan_seed, len, false);
        let on = run(plan_seed, len, true);
        prop_assert_eq!(off, on);
    }

    /// The merged trace is totally ordered by `(time, seq)` with no
    /// duplicate seqs across actors — including fast-path-bypass events,
    /// whose count must equal the kernel's own `fast_path_hits` counter
    /// when nothing was evicted.
    #[test]
    fn merged_trace_totally_ordered_including_bypass(ops in prop::collection::vec(0u8..4, 4..24)) {
        let _sims = serialise_simulations();
        let t = Arc::new(Tracer::new(TraceLevel::Full));
        let g = t.install();
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        let res = sim.kernel().new_resource("r");
        for a in 0..2u64 {
            let ops = ops.clone();
            sim.spawn(format!("a{a}"), move |ctx| {
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        0 => ctx.advance(hupc::sim::time::ns(40 + a * 11 + i as u64)),
                        1 => ctx.acquire(res, hupc::sim::time::ns(90)),
                        2 => ctx.barrier_wait(bar),
                        _ => ctx.advance(0),
                    }
                }
                // Rendezvous, then actor 0 advances alone: with actor 1
                // terminated these resolve on the bypass fast path.
                ctx.barrier_wait(bar);
                if a == 0 {
                    for k in 0..4 {
                        ctx.advance(hupc::sim::time::us(1 + k));
                    }
                }
            });
        }
        let stats = sim.run();
        drop(g);
        let m = t.merge();
        prop_assert!(!m.is_empty());
        assert_totally_ordered(&m);
        prop_assert_eq!(t.events_dropped(), 0);
        let bypasses = m.iter().filter(|e| e.kind == EventKind::FastPathBypass).count() as u64;
        prop_assert!(bypasses > 0, "scenario never hit the fast path");
        prop_assert_eq!(bypasses, stats.fast_path_hits);
    }

    /// Application traces obey the same total order (the app emits interleave
    /// with kernel emits through the same seq counter).
    #[test]
    fn uts_trace_totally_ordered(tree_seed in 1u32..40, gran in 1usize..6) {
        let _sims = serialise_simulations();
        let t = Arc::new(Tracer::new(TraceLevel::Full));
        let g = t.install();
        let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, tree_seed);
        cfg.steal_granularity = gran;
        run_uts(cfg);
        drop(g);
        let m = t.merge();
        prop_assert!(!m.is_empty());
        assert_totally_ordered(&m);
    }
}
