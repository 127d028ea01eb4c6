//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is generated from these tables (`--print-benchmark-json`) and a test
//! holds the two together, so a later performance claim can name a metric
//! and a workload and find exactly one definition.
//!
//! Units say which clock a number is on: `s`/`ms`/`us`/`ns` are *host* time,
//! `virt_s`/`virt_us`/`virt_ns` are *simulated* time.

/// Seconds one `--workload` run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 30;

/// One input set. `why` is the one-line reason it is in the set.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "uts_steal",
        why: "Ch.3 headline: thesis-size binomial tree, 64 threads/16 nodes, 3 steal strategies; SHA-1 plus millions of fine-grained gets and upc locks; groups decides virt_s",
    },
    WorkloadDef {
        name: "ft_hybrid",
        why: "Ch.4 headline: NAS FT class A grid, 16 UPC x 4 OpenMP sub-threads, overlap exchange; real FFT kernel and bulk puts, few events; shows memory footprint",
    },
    WorkloadDef {
        name: "coll_1k",
        why: "sim-bound: 1024 threads/128 nodes running broadcast, allreduce, allgather, staged barriers; 1024 coroutine stacks, almost no fast path; coll plan decides virt_s",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "open-loop Poisson KV serving at 1000/2000/4000 krps and 1000 krps with 1% loss; one-sided reads beside mailbox writes, try_* ops and the retry/backoff path",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How one run's value is taken from its children's samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Across {
    Median,
    /// For a set-up of a few milliseconds of deterministic work, where all
    /// the noise is interference that only ever adds (a cold start after the
    /// previous child tore down 500 MiB): over two passes of ten runs the
    /// median of the children's medians moved 25 %, of their minima 4 %.
    Lowest,
}

/// A metric a user of the simulator sees; gated by `bound` (the share of the
/// parent's median by which it may worsen).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub across: Across,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        across: Across::Median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        across: Across::Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        across: Across::Lowest,
    },
];

/// How a per-layer number behaves between two runs of the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or something derived from it: varies run to run.
    Host,
    /// A count or a virtual time: a pure function of (code, seed). Children
    /// of one run must agree on it bit for bit, traced or not.
    Exact,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Host,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Exact,
    }
}

const fn higher(m: PerLayer) -> PerLayer {
    PerLayer {
        better: Better::Higher,
        ..m
    }
}

/// Per-layer metrics, prefix = crate. A metric that does not apply to a
/// workload (a `serve.*` percentile on `uts_steal`) reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // The two end-to-end quantities the driver's spread-over-seeds rule
    // cannot hold (exact per seed, so either constant or seed-dependent).
    exact("virt_s", "virt_s"),
    exact("ops_failed_ratio", "ratio"),
    // host (process)
    host("host.wall_s", "s"),
    host("host.user_s", "s"),
    host("host.sys_s", "s"),
    host("host.minor_faults", "count"),
    // sim
    exact("sim.events", "count"),
    exact("sim.handoffs", "count"),
    higher(exact("sim.fast_path_hits", "count")),
    exact("sim.heap_ops", "count"),
    exact("sim.trace_events", "count"),
    host("sim.cpu_ns_per_event", "ns"),
    higher(host("sim.virt_s_per_cpu_s", "ratio")),
    host("sim.simcall_host_ns", "ns"),
    host("sim.handoff_host_ns", "ns"),
    host("sim.handoff_1k_host_ns", "ns"),
    host("sim.spawn_host_ns", "ns"),
    // net
    host("net.inject_host_ns", "ns"),
    exact("net.inject_virt_ns", "virt_ns"),
    // gasnet
    exact("gasnet.puts", "count"),
    exact("gasnet.gets", "count"),
    exact("gasnet.put_bytes", "B"),
    exact("gasnet.get_bytes", "B"),
    exact("gasnet.barriers", "count"),
    exact("gasnet.retries", "count"),
    exact("gasnet.barrier_wait_virt_share", "ratio"),
    host("gasnet.put8_host_ns", "ns"),
    host("gasnet.get8_host_ns", "ns"),
    host("gasnet.put64k_host_ns", "ns"),
    exact("gasnet.put8_virt_ns", "virt_ns"),
    exact("gasnet.get8_virt_ns", "virt_ns"),
    // upc
    exact("upc.locks", "count"),
    host("upc.memput8_host_ns", "ns"),
    host("upc.shared_put8_host_ns", "ns"),
    host("upc.shared_get_host_ns", "ns"),
    host("upc.cast_get_host_ns", "ns"),
    exact("upc.shared_get_virt_ns", "virt_ns"),
    exact("upc.cast_get_virt_ns", "virt_ns"),
    host("upc.lock_host_ns", "ns"),
    host("upc.barrier64_host_ns", "ns"),
    // coll
    exact("coll.bcast_virt_us", "virt_us"),
    exact("coll.allreduce_virt_us", "virt_us"),
    exact("coll.allgather_virt_us", "virt_us"),
    exact("coll.barrier_virt_us", "virt_us"),
    exact("coll.virt_share", "ratio"),
    exact("coll.auto_over_best", "ratio"),
    host("coll.allreduce1k_host_ms", "ms"),
    // groups
    higher(exact("groups.local_steal_ratio", "ratio")),
    host("groups.build_host_us", "us"),
    // subthreads
    host("subthreads.forkjoin_host_ns.openmp", "ns"),
    host("subthreads.forkjoin_host_ns.pool", "ns"),
    host("subthreads.forkjoin_host_ns.cilk", "ns"),
    exact("subthreads.forkjoin_virt_ns.openmp", "virt_ns"),
    exact("subthreads.forkjoin_virt_ns.pool", "virt_ns"),
    exact("subthreads.forkjoin_virt_ns.cilk", "virt_ns"),
    // uts
    exact("uts.steals", "count"),
    exact("uts.steal_attempts", "count"),
    higher(exact("uts.mnodes_per_virt_s", "Mnodes/virt_s")),
    higher(host("uts.sha1_mb_s", "MB/s")),
    // fft
    exact("fft.comm_virt_s", "virt_s"),
    exact("fft.fft2d_virt_s", "virt_s"),
    higher(host("fft.kernel_mflops", "Mflop/s")),
    // serve (virtual, exact)
    exact("serve.virt_p50_us.r1000", "virt_us"),
    exact("serve.virt_p99_us.r1000", "virt_us"),
    exact("serve.virt_p999_us.r1000", "virt_us"),
    exact("serve.virt_p50_us.r2000", "virt_us"),
    exact("serve.virt_p99_us.r2000", "virt_us"),
    exact("serve.virt_p999_us.r2000", "virt_us"),
    exact("serve.virt_p50_us.r4000", "virt_us"),
    exact("serve.virt_p99_us.r4000", "virt_us"),
    exact("serve.virt_p999_us.r4000", "virt_us"),
    exact("serve.virt_p50_us.loss", "virt_us"),
    exact("serve.virt_p99_us.loss", "virt_us"),
    exact("serve.virt_p999_us.loss", "virt_us"),
    higher(exact("serve.goodput_krps.r4000", "krps")),
    higher(exact("serve.max_rate_krps", "krps")),
    exact("serve.requests", "count"),
    exact("serve.shed", "count"),
    exact("serve.failed", "count"),
    host("serve.gen_host_ns_per_req", "ns"),
    // trace
    host("trace.counters_overhead_ratio", "ratio"),
    host("trace.full_overhead_ratio", "ratio"),
    exact("trace.events_dropped", "count"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}
