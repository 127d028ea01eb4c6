//! Every call into `hupc` lives in this file: the four workloads, their
//! oracles, the traced-run tap and the layer ladder.
//!
//! Load-bearing API (what a refactor of `crates/` must keep for the
//! benchmark to build): `hupc::uts::{run_uts, UtsConfig,
//! StealStrategy, sequential_traverse, sha1_children}`, `hupc::fft::{run_ft_upc,
//! FtConfig, FtClass, ExchangeKind, ComputeMode, SubthreadSpec,
//! seq_checksums, FftPlan, Complex, Direction}`, `hupc::serve::{run_serve,
//! ServeConfig, TrafficConfig, ArrivalProcess, OpMix, KeyDist, ShardMap,
//! Outcome, verify_linearizable_lite}`, `hupc::prelude` and `hupc::trace`.
//! Deliberately *not* used: `set_actor_backend*`, `set_sim_backend*`,
//! `set_fast_path`, `SimBackend::Parallel` and the `HUPC_*` environment
//! overrides (the harness strips those from every child). The `hupc-app`
//! registry is not used either: it cannot reach the paper-scale inputs (`uts`
//! is pinned to `UtsConfig::small`, `ft` has no sub-thread parameter).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use hupc::fft::{
    run_ft_upc, seq_checksums, Complex, ComputeMode, Direction, ExchangeKind, FftPlan, FtClass,
    FtConfig, SubthreadSpec,
};
use hupc::prelude::*;
use hupc::serve::{
    run_serve, verify_linearizable_lite, ArrivalProcess, KeyDist, OpMix, Outcome, ServeConfig,
    ServeResult, ShardMap, TrafficConfig,
};
use hupc::trace::{coll as coll_tag, EventKind, Installed, TraceLevel, Tracer};
use hupc::uts::{run_uts, sequential_traverse, sha1_children, StealStrategy, UtsConfig};

use crate::probe::Probe;
use crate::procfs::cpu_ns;

/// Paper-scale inputs, or tiny ones that drive the same code in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How much the traced child records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    Counters,
    Full,
}

/// Node count of the thesis tree (`TreeParams::thesis_binomial`, root seed
/// 34). `uts_steal` runs this one tree whatever `--seed` says: thesis-shape
/// trees are critical (m·q = 0.999), and even the 15 root seeds in 0..6000
/// whose trees are within 0.8 % of this size differ by 21-49 MiB of peak RSS
/// and 0.138-0.187 virtual seconds, so no two of them can share a bound.
const THESIS_TREE_NODES: u64 = 4_065_321;

const STRATEGIES: [StealStrategy; 3] = [
    StealStrategy::Random,
    StealStrategy::LocalFirst,
    StealStrategy::LocalFirstRapid,
];

/// Run one workload inside `p`: build inputs and the oracle's reference
/// (set-up), run the timed section, verify, record metrics.
pub fn run_workload(
    name: &str,
    seed: u64,
    scale: Scale,
    level: Option<Level>,
    p: &mut Probe,
) -> Result<(), String> {
    let mut tap = level.map(TraceTap::install);
    match name {
        "uts_steal" => uts_steal(seed, scale, &mut tap, p),
        "ft_hybrid" => ft_hybrid(scale, &mut tap, p),
        "coll_1k" => coll_1k(seed, scale, &mut tap, p),
        "serve_mix" => serve_mix(seed, scale, &mut tap, p),
        other => return Err(format!("unknown workload {other:?}")),
    }
    if let Some(tap) = tap {
        tap.report(p);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// traced run
// ---------------------------------------------------------------------------

const COUNTERS: [&str; 7] = [
    "gasnet.puts",
    "gasnet.gets",
    "gasnet.put_bytes",
    "gasnet.get_bytes",
    "gasnet.barriers",
    "gasnet.retries",
    "upc.locks",
];

/// Per-actor ring capacity of the `Full` child. Bounds its memory at 192 KiB
/// per actor; older events are dropped (and counted), which makes the two
/// virtual-time shares sampled rather than exact.
const RING_EVENTS: usize = 4096;

/// The process-global tracer of a traced child. One simulation's events are
/// harvested (and the rings cleared) before the next one starts, because
/// every simulation restarts virtual time and actor ids at zero.
struct TraceTap {
    tracer: Arc<Tracer>,
    _installed: Installed,
    level: Level,
    counters: BTreeMap<&'static str, u64>,
    dropped: u64,
    barrier_wait_ns: u64,
    coll_ns: u64,
    covered_ns: u64,
}

impl TraceTap {
    fn install(level: Level) -> TraceTap {
        let tracer = Arc::new(match level {
            Level::Counters => Tracer::new(TraceLevel::Counters),
            Level::Full => Tracer::with_capacity(TraceLevel::Full, RING_EVENTS),
        });
        let installed = tracer.install();
        TraceTap {
            tracer,
            _installed: installed,
            level,
            counters: BTreeMap::new(),
            dropped: 0,
            barrier_wait_ns: 0,
            coll_ns: 0,
            covered_ns: 0,
        }
    }

    /// Fold the simulation that just finished into the totals.
    fn harvest(&mut self) {
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += self.tracer.metrics().counter_total(name);
        }
        if self.level == Level::Full {
            self.dropped += self.tracer.events_dropped();
            self.fold_events();
        }
        self.tracer.clear();
    }

    /// Per actor, from whatever its ring still holds: time between a
    /// `BarrierEnter` and its `BarrierExit`, time inside whole-op
    /// collectives, and the interval the ring covers (the denominator).
    fn fold_events(&mut self) {
        #[derive(Default)]
        struct Actor {
            first: Option<u64>,
            last: u64,
            barrier_since: Option<u64>,
            coll_depth: u32,
            coll_since: u64,
        }
        let mut actors: BTreeMap<u32, Actor> = BTreeMap::new();
        for ev in self.tracer.merge() {
            if ev.actor == u32::MAX {
                continue; // the engine's own sentinel actor
            }
            let a = actors.entry(ev.actor).or_default();
            a.first.get_or_insert(ev.time);
            a.last = ev.time;
            let whole_op = coll_tag::phase_of(ev.a) == coll_tag::PHASE_OP;
            match ev.kind {
                EventKind::BarrierEnter => a.barrier_since = Some(ev.time),
                EventKind::BarrierExit => {
                    if let Some(t0) = a.barrier_since.take() {
                        self.barrier_wait_ns += ev.time - t0;
                    }
                }
                EventKind::CollBegin if whole_op => {
                    if a.coll_depth == 0 {
                        a.coll_since = ev.time;
                    }
                    a.coll_depth += 1;
                }
                EventKind::CollEnd if whole_op && a.coll_depth > 0 => {
                    a.coll_depth -= 1;
                    if a.coll_depth == 0 {
                        self.coll_ns += ev.time - a.coll_since;
                    }
                }
                _ => {}
            }
        }
        self.covered_ns += actors
            .values()
            .map(|a| a.last - a.first.unwrap_or(a.last))
            .sum::<u64>();
    }

    fn report(self, p: &mut Probe) {
        for (name, v) in &self.counters {
            p.put(name, *v as f64);
        }
        if self.level == Level::Full {
            let share = |ns: u64| {
                if self.covered_ns == 0 {
                    0.0
                } else {
                    ns as f64 / self.covered_ns as f64
                }
            };
            p.put("sim.trace_events", self.tracer.events_recorded() as f64);
            p.put("trace.events_dropped", self.dropped as f64);
            p.put(
                "gasnet.barrier_wait_virt_share",
                share(self.barrier_wait_ns),
            );
            p.put("coll.virt_share", share(self.coll_ns));
        }
    }
}

/// Harvest outside the timed section's account: folding the trace is the
/// benchmark's work, not the traced program's.
fn harvest(tap: &mut Option<TraceTap>, p: &mut Probe) {
    if let Some(tap) = tap {
        p.untimed(|| tap.harvest());
    }
}

// ---------------------------------------------------------------------------
// uts_steal
// ---------------------------------------------------------------------------

fn uts_steal(seed: u64, scale: Scale, tap: &mut Option<TraceTap>, p: &mut Probe) {
    let cfg = |strategy: StealStrategy| match scale {
        Scale::Full => UtsConfig::thesis(64, Conduit::ib_ddr(), strategy),
        Scale::Smoke => UtsConfig::small(8, 2, strategy, seed as u32),
    };
    let tree = cfg(STRATEGIES[0]).tree;
    let (nodes, depth, leaves) =
        p.span("setup.sequential_traverse", |_| sequential_traverse(&tree));
    if scale == Scale::Full {
        p.check(nodes == THESIS_TREE_NODES, || {
            format!("uts: the thesis tree has {nodes} nodes, not {THESIS_TREE_NODES}")
        });
    }

    let results = p.timed(|p| {
        STRATEGIES.map(|s| {
            let r = p.span(&format!("run_uts.{s:?}"), |p| {
                let r = run_uts(cfg(s));
                p.virt(r.seconds);
                r
            });
            harvest(tap, p);
            r
        })
    });

    let (mut virt_s, mut local, mut remote, mut probes) = (0.0, 0, 0, 0);
    for (s, r) in STRATEGIES.iter().zip(&results) {
        p.check(r.total_nodes == nodes, || {
            format!(
                "uts {s:?}: {} nodes, sequential traverse {nodes}",
                r.total_nodes
            )
        });
        p.check(r.max_depth == depth as u64, || {
            format!("uts {s:?}: depth {}, sequential {depth}", r.max_depth)
        });
        p.check(r.leaves == leaves, || {
            format!("uts {s:?}: {} leaves, sequential {leaves}", r.leaves)
        });
        virt_s += r.seconds;
        local += r.local_steals;
        remote += r.remote_steals;
        probes += r.local_probes + r.remote_probes;
    }
    p.put("virt_s", virt_s);
    p.put("aux.uts_hashed_bytes", 3.0 * 24.0 * nodes as f64);
    p.put("uts.steals", (local + remote) as f64);
    p.put("uts.steal_attempts", probes as f64);
    p.put("uts.mnodes_per_virt_s", 3.0 * nodes as f64 / 1e6 / virt_s);
    p.put(
        "groups.local_steal_ratio",
        local as f64 / (local + remote).max(1) as f64,
    );
}

// ---------------------------------------------------------------------------
// ft_hybrid
// ---------------------------------------------------------------------------

fn ft_hybrid(scale: Scale, tap: &mut Option<TraceTap>, p: &mut Probe) {
    let hybrid = |n| {
        Some(SubthreadSpec {
            n,
            model: SubthreadModel::OpenMp,
        })
    };
    let cfg = match scale {
        // NAS class A grid, 3 of its 6 iterations; one UPC thread per socket
        // with the socket's four cores as OpenMP-profile sub-threads.
        Scale::Full => FtConfig {
            class: FtClass::Custom {
                nx: 256,
                ny: 256,
                nz: 128,
                iters: 3,
            },
            machine: MachineSpec::lehman().with_nodes(8),
            threads: 16,
            nodes_used: 8,
            conduit: Conduit::ib_qdr(),
            backend: Backend::processes_pshm(),
            bind: BindPolicy::RoundRobinSockets,
            exchange: ExchangeKind::Overlap,
            subthreads: hybrid(4),
            mode: ComputeMode::Execute,
            iters_override: None,
            overheads: None,
            fault: None,
        },
        Scale::Smoke => FtConfig {
            bind: BindPolicy::RoundRobinSockets,
            exchange: ExchangeKind::Overlap,
            subthreads: hybrid(2),
            ..FtConfig::test_custom(32, 32, 32, 2, 4, 2)
        },
    };
    let want = p.span("setup.seq_checksums", |_| seq_checksums(cfg.class));

    let r = p.timed(|p| {
        let r = p.span("run_ft_upc", |p| {
            let r = run_ft_upc(cfg.clone());
            p.virt(r.total_seconds);
            r
        });
        harvest(tap, p);
        r
    });

    p.check(r.checksums.len() == want.len(), || {
        format!("ft: {} checksums, want {}", r.checksums.len(), want.len())
    });
    for (i, ((re, im), c)) in r.checksums.iter().zip(&want).enumerate() {
        let scale = c.re.abs().max(c.im.abs()).max(1.0);
        let err = ((re - c.re).abs() / scale).max((im - c.im).abs() / scale);
        p.check(err < 1e-9, || {
            format!("ft: checksum {i} off by {err:.3e} relative (tolerance 1e-9)")
        });
    }
    // One forward 3-D FFT, then an inverse one per iteration, at 5·N·log2 N.
    let (nx, ny, nz) = cfg.class.dims();
    let points = (nx * ny * nz) as f64;
    p.put(
        "aux.fft_flops",
        5.0 * points * points.log2() * (1 + want.len()) as f64,
    );
    p.put("virt_s", r.total_seconds);
    p.put("fft.comm_virt_s", r.comm_seconds);
    p.put("fft.fft2d_virt_s", r.fft2d_seconds);
}

// ---------------------------------------------------------------------------
// coll_1k
// ---------------------------------------------------------------------------

const BCAST_WORDS: usize = 4096;
const REDUCE_WORDS: usize = 64;
const GATHER_WORDS: usize = 16;
const BARRIERS: usize = 8;
/// Broadcast, allreduce, allgather, the run of staged barriers.
const COLL_OPS: [&str; 4] = ["bcast", "allreduce", "allgather", "barrier"];

/// SplitMix64 finaliser over three inputs: the collective payloads.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Payloads and the closed-form results every thread must end up with.
struct CollInput {
    seed: u64,
    threads: usize,
    root: usize,
    bcast: Vec<u64>,
    reduced: Vec<u64>,
    gathered: Vec<u64>,
}

impl CollInput {
    fn new(seed: u64, threads: usize) -> CollInput {
        let reduce_word = |me: usize, i: usize| mix(seed, me as u64, i as u64);
        CollInput {
            seed,
            threads,
            root: seed as usize % threads,
            bcast: (0..BCAST_WORDS).map(|i| mix(!seed, 0, i as u64)).collect(),
            reduced: (0..REDUCE_WORDS)
                .map(|i| (0..threads).fold(0u64, |s, me| s.wrapping_add(reduce_word(me, i))))
                .collect(),
            gathered: (0..threads * GATHER_WORDS)
                .map(|k| {
                    mix(
                        seed ^ 0xA11,
                        (k / GATHER_WORDS) as u64,
                        (k % GATHER_WORDS) as u64,
                    )
                })
                .collect(),
        }
    }
}

/// The window one collective occupies: from the first thread entering it to
/// the last thread leaving it, on the virtual clock and both host clocks.
#[derive(Clone, Copy, Default)]
struct Window {
    entered: usize,
    left: usize,
    virt: (u64, u64),
    wall_ns: (u64, u64),
    cpu_ns: (u64, u64),
}

/// What the actor bodies write (actors run one at a time, so a `SimCell`).
#[derive(Default)]
struct CollLog {
    windows: Vec<Window>,
    arrivals: Vec<usize>,
    checks: u64,
    mismatches: u64,
}

fn coll_1k(seed: u64, scale: Scale, tap: &mut Option<TraceTap>, p: &mut Probe) {
    let (threads, nodes, rounds) = match scale {
        Scale::Full => (1024, 128, 2),
        Scale::Smoke => (64, 8, 1),
    };
    let input = Arc::new(p.span("setup.closed_forms", |_| CollInput::new(seed, threads)));
    let log = Arc::new(SimCell::new(CollLog {
        windows: vec![Window::default(); rounds * COLL_OPS.len()],
        arrivals: vec![0; rounds * BARRIERS],
        ..CollLog::default()
    }));

    let origin = p.origin();
    let stats = p.timed(|p| {
        let job = p.span("job_build", |_| {
            UpcJob::new(UpcConfig::standard(
                MachineSpec::pyramid().with_nodes(nodes),
                threads,
                nodes,
                Conduit::ib_ddr(),
                1 << 12,
                None,
            ))
        });
        p.span("coll_install", |_| {
            CollDomain::for_job(&job, CollPlan::Auto).install(&job)
        });
        let stats = p.span("run", |p| {
            let (input, log) = (Arc::clone(&input), Arc::clone(&log));
            let stats = job.run(move |upc| coll_body(&upc, &input, &log, rounds, origin));
            p.virt(time::as_secs_f64(stats.end_time));
            stats
        });
        harvest(tap, p);
        stats
    });

    let log = log.with(|l| (l.windows.clone(), l.checks, l.mismatches));
    let (windows, checks, mismatches) = log;
    p.tally(
        checks,
        mismatches,
        "coll_1k: collective results vs closed forms",
    );
    for (k, op) in COLL_OPS.iter().enumerate() {
        let mut virt_ns = 0;
        for r in 0..rounds {
            let w = windows[r * COLL_OPS.len() + k];
            p.check(w.entered == threads && w.left == threads, || {
                format!("coll_1k: {op} round {r} saw {}/{} threads", w.left, threads)
            });
            virt_ns += w.virt.1 - w.virt.0;
            p.push_span(
                &format!("coll.{op}.r{r}"),
                "run",
                w.wall_ns,
                w.cpu_ns,
                time::as_secs_f64(w.virt.1 - w.virt.0),
            );
        }
        let per_op = if *op == "barrier" { BARRIERS } else { 1 } * rounds;
        p.put(
            &format!("coll.{op}_virt_us"),
            virt_ns as f64 / 1e3 / per_op as f64,
        );
    }
    p.put("virt_s", time::as_secs_f64(stats.end_time));
    p.put("sim.events", stats.events as f64);
    p.put("sim.handoffs", stats.handoffs as f64);
    p.put("sim.fast_path_hits", stats.fast_path_hits as f64);
    p.put("sim.heap_ops", stats.heap_ops as f64);
}

fn coll_body(
    upc: &Upc<'_>,
    input: &CollInput,
    log: &SimCell<CollLog>,
    rounds: usize,
    origin: std::time::Instant,
) {
    let me = upc.mythread();
    let threads = input.threads;
    let host_now = || (origin.elapsed().as_nanos() as u64, cpu_ns());
    let enter = |slot: usize| {
        log.with_mut(|l| {
            let w = &mut l.windows[slot];
            if w.entered == 0 {
                let (wall, cpu) = host_now();
                (w.virt.0, w.wall_ns.0, w.cpu_ns.0) = (upc.now(), wall, cpu);
            }
            w.entered += 1;
        })
    };
    let leave = |slot: usize, ok: bool| {
        log.with_mut(|l| {
            l.checks += 1;
            l.mismatches += !ok as u64;
            let w = &mut l.windows[slot];
            w.left += 1;
            w.virt.1 = w.virt.1.max(upc.now());
            if w.left == threads {
                let (wall, cpu) = host_now();
                (w.wall_ns.1, w.cpu_ns.1) = (wall, cpu);
            }
        })
    };
    for round in 0..rounds {
        let slot = round * COLL_OPS.len();

        let mut words = if me == input.root {
            input.bcast.clone()
        } else {
            vec![0; BCAST_WORDS]
        };
        enter(slot);
        upc.broadcast_words(input.root, &mut words);
        leave(slot, words == input.bcast);

        let mut vals: Vec<u64> = (0..REDUCE_WORDS)
            .map(|i| mix(input.seed, me as u64, i as u64))
            .collect();
        enter(slot + 1);
        upc.allreduce_word_vec(&mut vals, &|a, b| a.wrapping_add(b));
        leave(slot + 1, vals == input.reduced);

        let mine = &input.gathered[me * GATHER_WORDS..(me + 1) * GATHER_WORDS];
        let mut all = vec![0; threads * GATHER_WORDS];
        enter(slot + 2);
        upc.allgather_words(mine, &mut all);
        leave(slot + 2, all == input.gathered);

        // A barrier has no value to check; what it promises is that nobody
        // leaves before everybody has arrived.
        enter(slot + 3);
        let mut all_arrived = true;
        for b in 0..BARRIERS {
            let k = round * BARRIERS + b;
            log.with_mut(|l| l.arrivals[k] += 1);
            upc.staged_barrier();
            all_arrived &= log.with(|l| l.arrivals[k]) == threads;
        }
        leave(slot + 3, all_arrived);
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// The four sub-runs: offered load in krps over 16 frontends, and whether the
/// network loses 1 % of messages.
const SERVE_RUNS: [(&str, u64, bool); 4] = [
    ("r1000", 1000, false),
    ("r2000", 2000, false),
    ("r4000", 4000, false),
    ("loss", 1000, true),
];
const SERVE_THREADS: usize = 16;
const SERVE_BATCH: usize = 4;
/// The latency limit `serve.max_rate_krps` is judged against.
const SERVE_P99_LIMIT_NS: u64 = 50_000;

fn serve_cfg(seed: u64, scale: Scale, run: usize) -> ServeConfig {
    let (_, krps, lossy) = SERVE_RUNS[run];
    let per_frontend_rps = krps * 1000 / SERVE_THREADS as u64;
    let mut upc = UpcConfig::test_default(SERVE_THREADS, 4);
    if lossy {
        upc.gasnet.fault = Some(FaultPlan::new(seed).loss(0.01));
    }
    ServeConfig {
        upc,
        traffic: TrafficConfig {
            process: ArrivalProcess::Poisson {
                mean_gap: time::ns(1_000_000_000 / per_frontend_rps),
            },
            mix: OpMix::read_heavy(),
            requests_per_frontend: match scale {
                Scale::Full => 6000,
                Scale::Smoke => 60,
            },
            batch_len: SERVE_BATCH,
            keys: KeyDist::Uniform,
            seed: seed
                .wrapping_mul(SERVE_RUNS.len() as u64)
                .wrapping_add(run as u64),
        },
        partitions_per_thread: 2,
        keys_per_partition: 64,
        epochs: 1,
        shed_after: None,
        apply_ns: 200,
        get_compute_ns: 100,
        poll_gap: time::us(1),
    }
}

/// Nearest-rank quantile of sorted latencies, in virtual µs.
fn quantile_us(sorted: &[u64], num: usize, den: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * num).div_ceil(den).max(1);
    sorted[rank - 1] as f64 / 1e3
}

fn serve_mix(seed: u64, scale: Scale, tap: &mut Option<TraceTap>, p: &mut Probe) {
    let cfgs: Vec<ServeConfig> = (0..SERVE_RUNS.len())
        .map(|run| serve_cfg(seed, scale, run))
        .collect();
    // The service generates its schedules itself; generating them here too is
    // what prices the generator (and is this workload's set-up).
    p.span("setup.schedules", |p| {
        let t0 = cpu_ns();
        let mut requests = 0;
        for cfg in &cfgs {
            let shard = ShardMap::flat(
                SERVE_THREADS,
                cfg.partitions_per_thread,
                cfg.keys_per_partition,
            );
            for frontend in 0..SERVE_THREADS {
                requests += black_box(cfg.traffic.schedule_for(frontend, &shard)).len();
            }
        }
        p.put(
            "serve.gen_host_ns_per_req",
            (cpu_ns() - t0) as f64 / requests as f64,
        );
    });

    // Each result is verified and boiled down to a digest as soon as its
    // sub-run ends (off the timed section's account), then dropped: four
    // live results would make peak RSS their sum, which moves with the seed.
    let digests: Vec<ServeDigest> = p.timed(|p| {
        cfgs.iter()
            .zip(SERVE_RUNS)
            .map(|(cfg, (tag, _, _))| {
                let r = p.span(&format!("run_serve.{tag}"), |p| {
                    let r = run_serve(cfg.clone());
                    p.virt(time::as_secs_f64(r.end_time));
                    r
                });
                harvest(tap, p);
                p.untimed(move || ServeDigest::of(r))
            })
            .collect()
    });

    let (mut virt_ns, mut generated, mut shed, mut failed) = (0, 0, 0, 0);
    let mut max_rate = 0;
    for (d, (tag, krps, lossy)) in digests.iter().zip(SERVE_RUNS) {
        p.check(d.linearizable.is_ok(), || {
            format!("serve {tag}: not linearizable: {:?}", d.linearizable)
        });
        p.check(d.generated == d.completed + d.shed + d.failed, || {
            format!(
                "serve {tag}: {} generated != {} completed + {} shed + {} failed",
                d.generated, d.completed, d.shed, d.failed
            )
        });
        p.requests(d.generated, d.shed + d.failed);
        virt_ns += d.end_time;
        generated += d.generated;
        shed += d.shed;
        failed += d.failed;

        let [p50, p99, p999] = d.latency_us;
        p.put(&format!("serve.virt_p50_us.{tag}"), p50);
        p.put(&format!("serve.virt_p99_us.{tag}"), p99);
        p.put(&format!("serve.virt_p999_us.{tag}"), p999);
        if tag == "r4000" {
            p.put("serve.goodput_krps.r4000", d.goodput_krps);
        }
        let within_limit = p99 * 1e3 <= SERVE_P99_LIMIT_NS as f64;
        if !lossy && within_limit && d.goodput_krps >= 0.95 * krps as f64 {
            max_rate = max_rate.max(krps);
        }
    }
    p.put("virt_s", time::as_secs_f64(virt_ns));
    p.put("serve.max_rate_krps", max_rate as f64);
    p.put("serve.requests", generated as f64);
    p.put("serve.shed", shed as f64);
    p.put("serve.failed", failed as f64);
}

/// What the benchmark keeps of one serving sub-run.
struct ServeDigest {
    linearizable: Result<(), String>,
    generated: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    end_time: Time,
    /// p50, p99, p99.9 over every completed request, virtual µs.
    latency_us: [f64; 3],
    goodput_krps: f64,
}

impl ServeDigest {
    fn of(r: ServeResult) -> ServeDigest {
        let mut lat: Vec<u64> = r
            .records
            .iter()
            .flatten()
            .filter(|rec| rec.outcome == Outcome::Done)
            .map(|rec| rec.complete - rec.arrival)
            .collect();
        lat.sort_unstable();
        ServeDigest {
            linearizable: verify_linearizable_lite(&r, SERVE_BATCH),
            generated: r.generated,
            completed: r.completed,
            shed: r.shed,
            failed: r.failed,
            end_time: r.end_time,
            latency_us: [
                quantile_us(&lat, 50, 100),
                quantile_us(&lat, 99, 100),
                quantile_us(&lat, 999, 1000),
            ],
            goodput_krps: r.throughput_rps() / 1e3,
        }
    }
}

// ---------------------------------------------------------------------------
// the layer ladder
// ---------------------------------------------------------------------------

/// Host CPU ns and virtual ns per operation of one rung.
#[derive(Clone, Copy, Default)]
struct PerOp {
    host_ns: f64,
    virt_ns: f64,
}

/// Time `ops` repetitions of `op` from inside an actor, on both clocks.
fn rung(ctx: &Ctx, ops: usize, mut op: impl FnMut(usize)) -> PerOp {
    let (c0, v0) = (cpu_ns(), ctx.now());
    for i in 0..ops {
        op(i);
    }
    PerOp {
        host_ns: (cpu_ns() - c0) as f64 / ops as f64,
        virt_ns: (ctx.now() - v0) as f64 / ops as f64,
    }
}

/// Run the whole ladder; every number it produces goes into `p`.
pub fn run_ladder(scale: Scale, p: &mut Probe) {
    // Smoke shrinks every rung by this factor (and the 1024-thread jobs to 64).
    let div = match scale {
        Scale::Full => 1,
        Scale::Smoke => 800,
    };
    p.timed(|p| {
        p.span("ladder.write8", |p| ladder_write8(div, p));
        p.span("ladder.sim", |p| ladder_sim(div, p));
        p.span("ladder.barrier64", |p| ladder_barrier64(div, p));
        p.span("ladder.coll", |p| ladder_coll(scale, p));
        p.span("ladder.subthreads", |p| ladder_subthreads(div, p));
        p.span("ladder.kernels", |p| ladder_kernels(div, p));
    });
}

/// The same logical operation — one 8-byte write to a thread on another
/// node — issued one layer higher at each rung, plus the neighbouring
/// fine-grained operations of the same layers. Four threads on two nodes:
/// thread 0 measures, thread 1 shares its node, threads 2 and 3 are remote.
fn ladder_write8(div: usize, p: &mut Probe) {
    const REMOTE: usize = 2;
    const TWIN: usize = 1;
    let n = 400_000 / div;
    let job = UpcJob::new(UpcConfig::standard(
        MachineSpec::pyramid().with_nodes(2),
        4,
        2,
        Conduit::ib_ddr(),
        1 << 14,
        None,
    ));
    let word = job.runtime().alloc_words(1);
    let bulk = job.runtime().alloc_words(8192);
    let arr = job.alloc_shared::<u64>(4 * 4096, 4096);
    let lock = job.alloc_lock_at(REMOTE);
    let gasnet = Arc::clone(job.gasnet());
    let conn = gasnet
        .fabric()
        .open_connection(&mut job.kernel(), gasnet.thread_node(0))
        .expect("node 0 exists");
    let out: Arc<SimCell<Vec<(&'static str, PerOp)>>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&out);
    job.run(move |upc| {
        if upc.mythread() != 0 {
            upc.barrier();
            return;
        }
        let ctx = upc.ctx();
        let g = upc.gasnet();
        let mut rungs = Vec::new();

        let put8 = rung(ctx, n, |i| g.put(ctx, 0, REMOTE, word, &[i as u64]));
        rungs.push(("gasnet.put8", put8));
        // Rungs below gasnet charge the virtual duration a put8 takes.
        let d = put8.virt_ns as u64;
        rungs.push(("sim.simcall", rung(ctx, n, |_| ctx.advance(d))));
        let dst = g.thread_node(REMOTE);
        let inject = rung(ctx, n, |_| {
            let (_, remote) = ctx
                .with_kernel(|k| g.fabric().inject(k, conn, dst, 8))
                .expect("both nodes exist")
                .expect_delivered();
            ctx.advance(remote - ctx.now());
        });
        rungs.push(("net.inject", inject));
        rungs.push((
            "upc.memput8",
            rung(ctx, n, |i| upc.memput(REMOTE, word, &[i as u64])),
        ));
        let remote_elem = REMOTE * 4096;
        rungs.push((
            "upc.shared_put8",
            rung(ctx, n, |i| arr.put(&upc, remote_elem, i as u64)),
        ));
        let mut got = [0u64];
        rungs.push((
            "gasnet.get8",
            rung(ctx, n, |_| g.get(ctx, 0, REMOTE, word, &mut got)),
        ));
        let block = vec![7u64; 8192];
        rungs.push((
            "gasnet.put64k",
            rung(ctx, n / 8, |_| g.put(ctx, 0, REMOTE, bulk, &block)),
        ));
        rungs.push((
            "upc.lock",
            rung(ctx, n / 2, |_| {
                lock.lock(&upc);
                lock.unlock(&upc);
            }),
        ));

        // The privatisation gap of Table 3.1: the same-node twin's block read
        // element by element through pointers-to-shared, then through a cast
        // local pointer (the caller charges the memory traffic itself).
        let twin_elem = TWIN * 4096;
        let sweeps = (n / 4096).max(1);
        let mut sum = 0u64;
        let shared_get = rung(ctx, sweeps, |_| {
            for k in 0..4096 {
                sum = sum.wrapping_add(arr.get(&upc, twin_elem + k));
            }
            upc.flush_access_costs();
        });
        let cast_get = rung(ctx, sweeps, |_| {
            arr.with_cast_words(&upc, TWIN, |w| {
                for x in w.iter() {
                    sum = sum.wrapping_add(*x);
                }
            });
            upc.note_socket_traffic(upc.segment_home(TWIN), 8 * 4096);
            upc.flush_access_costs();
        });
        black_box(sum);
        let per_elem = |r: PerOp| PerOp {
            host_ns: r.host_ns / 4096.0,
            virt_ns: r.virt_ns / 4096.0,
        };
        rungs.push(("upc.shared_get", per_elem(shared_get)));
        rungs.push(("upc.cast_get", per_elem(cast_get)));

        sink.with_mut(|s| *s = rungs);
        upc.barrier();
    });
    for (name, r) in out.with(|o| o.clone()) {
        p.put(&format!("{name}_host_ns"), r.host_ns);
        p.put(&format!("{name}_virt_ns"), r.virt_ns);
    }
}

/// The engine alone: a context switch between two actors, the same round
/// robin over 1024 stacks, and spawn-to-exit of an actor that never blocks.
fn ladder_sim(div: usize, p: &mut Probe) {
    // `actors` advance by the same step, offset by one tick each, so every
    // wake belongs to another actor than the one that just ran: no advance
    // can take the fast path, each one is a full scheduler handoff.
    let handoff_ns = |actors: u64, per_actor: u64| {
        let mut sim = Simulation::new();
        for a in 0..actors {
            sim.spawn(format!("a{a}"), move |ctx| {
                ctx.advance(time::ns(1 + a));
                for _ in 0..per_actor {
                    ctx.advance(time::ns(actors));
                }
            });
        }
        let c0 = cpu_ns();
        let stats = sim.run();
        (cpu_ns() - c0) as f64 / stats.handoffs.max(1) as f64
    };
    let n = 2_000_000 / div as u64;
    p.put("sim.handoff_host_ns", handoff_ns(2, n / 2));
    p.put("sim.handoff_1k_host_ns", handoff_ns(1024, n / 2 / 1024 + 1));

    let spawned = 100_000 / div as u64;
    let mut sim = Simulation::new();
    let c0 = cpu_ns();
    for i in 0..spawned {
        sim.spawn(format!("s{i}"), move |_| {
            black_box(i);
        });
    }
    sim.run();
    p.put("sim.spawn_host_ns", (cpu_ns() - c0) as f64 / spawned as f64);
}

/// Whole-job host cost of one `upc_barrier` at the UTS job shape (64 threads
/// on 16 nodes).
fn ladder_barrier64(div: usize, p: &mut Probe) {
    let n = 6000 / div + 1;
    let job = UpcJob::new(UpcConfig::standard(
        MachineSpec::pyramid().with_nodes(16),
        64,
        16,
        Conduit::ib_ddr(),
        1 << 12,
        None,
    ));
    let cost: Arc<SimCell<f64>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&cost);
    job.run(move |upc| {
        upc.barrier();
        let c0 = cpu_ns();
        for _ in 0..n {
            upc.barrier();
        }
        if upc.mythread() == 0 {
            sink.with_mut(|c| *c = (cpu_ns() - c0) as f64 / n as f64);
        }
    });
    p.put("upc.barrier64_host_ns", cost.get());
}

/// Virtual µs per collective under one plan, plus (for `Auto`) the host cost
/// of an allreduce and of building the node groups.
fn coll_plan_probe(plan: CollPlan, threads: usize, nodes: usize, p: &mut Probe) -> [f64; 4] {
    let job = UpcJob::new(UpcConfig::standard(
        MachineSpec::pyramid().with_nodes(nodes),
        threads,
        nodes,
        Conduit::ib_ddr(),
        1 << 12,
        None,
    ));
    if plan == CollPlan::Auto {
        let c0 = cpu_ns();
        black_box(GroupSet::partition(
            &mut job.kernel(),
            job.runtime(),
            GroupLevel::Node,
        ));
        p.put("groups.build_host_us", (cpu_ns() - c0) as f64 / 1e3);
    }
    CollDomain::for_job(&job, plan).install(&job);
    // [op] -> (first start, last end) on the virtual clock.
    let spans: Arc<SimCell<[(u64, u64); 4]>> = Arc::new(SimCell::new([(u64::MAX, 0); 4]));
    let host_ms: Arc<SimCell<f64>> = Arc::new(SimCell::default());
    let (sink, host_sink) = (Arc::clone(&spans), Arc::clone(&host_ms));
    // Only `Auto`'s allreduce is timed on the host; a forced plan runs it
    // once (flat allreduce at 1024 threads costs seconds of host time).
    let reps_allreduce = if plan == CollPlan::Auto { 4 } else { 1 };
    job.run(move |upc| {
        let me = upc.mythread() as u64;
        let timed = |k: usize, op: &mut dyn FnMut()| {
            let t0 = upc.now();
            op();
            let t1 = upc.now();
            sink.with_mut(|s| s[k] = (s[k].0.min(t0), s[k].1.max(t1)));
        };
        let mut words = vec![me; BCAST_WORDS];
        timed(0, &mut || upc.broadcast_words(0, &mut words));
        let mut vals = vec![me; REDUCE_WORDS];
        let c0 = cpu_ns();
        timed(1, &mut || {
            for _ in 0..reps_allreduce {
                upc.allreduce_word_vec(&mut vals, &|a, b| a.wrapping_add(b));
            }
        });
        if me == 0 {
            host_sink.with_mut(|h| *h = (cpu_ns() - c0) as f64 / 1e6 / reps_allreduce as f64);
        }
        let mine = [me; GATHER_WORDS];
        let mut all = vec![0; upc.threads() * GATHER_WORDS];
        timed(2, &mut || upc.allgather_words(&mine, &mut all));
        timed(3, &mut || {
            for _ in 0..BARRIERS {
                upc.staged_barrier();
            }
        });
    });
    if plan == CollPlan::Auto {
        p.put("coll.allreduce1k_host_ms", host_ms.get());
    }
    let reps = [1, reps_allreduce, 1, BARRIERS];
    let s = spans.get();
    std::array::from_fn(|k| (s[k].1 - s[k].0) as f64 / 1e3 / reps[k] as f64)
}

/// Does the plan selector ever lose? Worst ratio, over the four collectives,
/// of `Auto`'s virtual time to the best forced plan's.
fn ladder_coll(scale: Scale, p: &mut Probe) {
    let (threads, nodes) = match scale {
        Scale::Full => (1024, 128),
        Scale::Smoke => (64, 8),
    };
    let auto = coll_plan_probe(CollPlan::Auto, threads, nodes, p);
    let mut best = [f64::INFINITY; 4];
    for algo in [CollAlgo::Flat, CollAlgo::TwoLevel, CollAlgo::ThreeLevel] {
        let forced = coll_plan_probe(CollPlan::Force(algo), threads, nodes, p);
        for k in 0..4 {
            best[k] = best[k].min(forced[k]);
        }
    }
    let worst = (0..4).map(|k| auto[k] / best[k]).fold(0.0, f64::max);
    p.put("coll.auto_over_best", worst);
}

/// One empty fork-join over four sub-threads under each runtime profile.
fn ladder_subthreads(div: usize, p: &mut Probe) {
    let n = 60_000 / div + 1;
    for (tag, model) in [
        ("openmp", SubthreadModel::OpenMp),
        ("pool", SubthreadModel::Pool),
        ("cilk", SubthreadModel::Cilk),
    ] {
        let mut cfg = UpcConfig::test_default(1, 1);
        cfg.gasnet.machine = MachineSpec::lehman().with_nodes(1);
        let job = UpcJob::new(cfg);
        let out: Arc<SimCell<PerOp>> = Arc::new(SimCell::default());
        let sink = Arc::clone(&out);
        job.run(move |upc| {
            let ctx = upc.ctx();
            let pool = SubPool::spawn(&upc, 4, model);
            let r = rung(ctx, n, |_| pool.parallel_for(ctx, 4, |_, _| {}));
            pool.shutdown(ctx);
            sink.with_mut(|s| *s = r);
        });
        let r = out.get();
        p.put(&format!("subthreads.forkjoin_host_ns.{tag}"), r.host_ns);
        p.put(&format!("subthreads.forkjoin_virt_ns.{tag}"), r.virt_ns);
    }
}

/// The two application kernels, with no simulator under them.
fn ladder_kernels(div: usize, p: &mut Probe) {
    // UTS derives a node's children in one batch: a 20-byte parent digest
    // plus a 4-byte child index each, m = 8 children per interior node.
    let batches = 1_000_000 / div;
    let mut parent = [0u8; 20];
    let c0 = cpu_ns();
    for _ in 0..batches {
        let mut last = parent;
        sha1_children(black_box(&parent), 0..8, |_, d| last = d);
        parent = last;
    }
    black_box(parent);
    let secs = (cpu_ns() - c0) as f64 / 1e9;
    p.put("uts.sha1_mb_s", (batches * 8 * 24) as f64 / 1e6 / secs);

    // FT's x-pencils: 256-point complex transforms.
    let plan = FftPlan::new(256);
    let mut data: Vec<Complex> = (0..256)
        .map(|i| Complex::new(i as f64, -(i as f64)))
        .collect();
    let transforms = 100_000 / div;
    let c0 = cpu_ns();
    for i in 0..transforms {
        let dir = if i % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        plan.transform(black_box(&mut data), dir);
    }
    let secs = (cpu_ns() - c0) as f64 / 1e9;
    p.put(
        "fft.kernel_mflops",
        plan.flops() * transforms as f64 / 1e6 / secs,
    );
}
