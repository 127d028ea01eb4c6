//! The parallel UTS driver: depth-first work on a private stack, work
//! release to the shared steal-stack, hierarchical stealing, and distributed
//! termination — the state machine of thesis Fig 3.2.

use std::collections::VecDeque;
use std::sync::Arc;

use hupc_groups::{GroupLevel, GroupSet};
use hupc_sim::{time, SimCell, Time};
use hupc_topo::MachineSpec;
use hupc_upc::{Conduit, FaultPlan, Upc, UpcConfig, UpcJob, UpcLock};

use crate::stealstack::StealStacks;
use crate::tree::{Node, TreeParams};

/// Victim-selection / transfer policy (the three curves of Fig 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealStrategy {
    /// Uniform random victims (the original UTS scheme).
    Random,
    /// Probe the local (intra-node) group first; go remote only when the
    /// group is dry (§3.3.2.1).
    LocalFirst,
    /// Local-first plus rapid diffusion: steal half the victim's available
    /// work when it is plentiful.
    LocalFirstRapid,
}

impl StealStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            StealStrategy::Random => "Baseline",
            StealStrategy::LocalFirst => "Local-stealing",
            StealStrategy::LocalFirstRapid => "Local-stealing + Rapid-diffusion",
        }
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct UtsConfig {
    pub tree: TreeParams,
    pub machine: MachineSpec,
    pub threads: usize,
    pub nodes_used: usize,
    pub conduit: Conduit,
    pub strategy: StealStrategy,
    /// Nodes transferred per steal (thesis: 8 on InfiniBand, 20 on GigE).
    pub steal_granularity: usize,
    /// Modeled CPU time to process one tree node (SHA-1 + bookkeeping).
    pub node_work: Time,
    /// Nodes processed between scheduler interactions.
    pub batch: usize,
    /// Capacity of each thread's stealable region, in nodes.
    pub region_cap: usize,
    /// Optional fault plan (packet loss, jitter, stragglers). Steals that
    /// exhaust the retry budget are rerouted to another victim.
    pub fault: Option<FaultPlan>,
}

impl UtsConfig {
    /// The Fig 3.3 setup on `threads` cores of 16 Pyramid nodes.
    pub fn thesis(threads: usize, conduit: Conduit, strategy: StealStrategy) -> Self {
        let gran = match conduit.kind {
            hupc_net::ConduitKind::GigE => 20,
            _ => 8,
        };
        UtsConfig {
            tree: TreeParams::thesis_binomial(),
            machine: MachineSpec::pyramid().with_nodes(16),
            threads,
            nodes_used: 16,
            conduit,
            strategy,
            steal_granularity: gran,
            node_work: time::ns(350),
            batch: 64,
            region_cap: 512,
            fault: None,
        }
    }

    /// Small setup for tests.
    pub fn small(threads: usize, nodes: usize, strategy: StealStrategy, seed: u32) -> Self {
        UtsConfig {
            tree: TreeParams::small_binomial(seed),
            machine: MachineSpec::small_test(nodes),
            threads,
            nodes_used: nodes,
            conduit: Conduit::ib_qdr(),
            strategy,
            steal_granularity: 4,
            node_work: time::ns(450),
            batch: 16,
            region_cap: 64,
            fault: None,
        }
    }
}

/// Aggregated results + profiling counters (Table 3.2's inputs).
#[derive(Clone, Debug, Default)]
pub struct UtsResult {
    pub total_nodes: u64,
    pub max_depth: u64,
    pub leaves: u64,
    pub seconds: f64,
    pub mnodes_per_sec: f64,
    pub local_steals: u64,
    pub remote_steals: u64,
    pub local_probes: u64,
    pub remote_probes: u64,
    pub failed_steals: u64,
    pub releases: u64,
    /// Steal-path operations abandoned after the retry budget ran out
    /// (the thief moved on to another victim).
    pub comm_failures: u64,
}

impl UtsResult {
    /// Fraction of successful steals served within the thief's node group.
    pub fn local_steal_ratio(&self) -> f64 {
        let total = self.local_steals + self.remote_steals;
        if total == 0 {
            0.0
        } else {
            self.local_steals as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Stats {
    nodes: u64,
    max_depth: u64,
    leaves: u64,
    local_steals: u64,
    remote_steals: u64,
    local_probes: u64,
    remote_probes: u64,
    failed_steals: u64,
    releases: u64,
    comm_failures: u64,
}

/// xorshift64* — deterministic per-thread victim selection.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Run the parallel UTS; returns aggregated results (identical
/// `total_nodes` to [`crate::tree::sequential_traverse`] by construction).
pub fn run_uts(cfg: UtsConfig) -> UtsResult {
    run_uts_prepared(cfg, |_| {}).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_uts`], but calls `prepare` on the simulation kernel before
/// spawning the UPC threads (for installing a schedule-exploration policy or
/// an event log — see the `hupc-check` crate) and returns failures as typed
/// values: a perturbed interleaving that deadlocks or panics becomes an
/// `Err(SimError)` instead of aborting the caller.
pub fn run_uts_prepared(
    cfg: UtsConfig,
    prepare: impl FnOnce(&mut hupc_sim::Kernel),
) -> Result<UtsResult, hupc_sim::SimError> {
    let job = UpcJob::new(UpcConfig::standard(
        cfg.machine.clone(),
        cfg.threads,
        cfg.nodes_used,
        cfg.conduit.clone(),
        1 << 12,
        cfg.fault.clone(),
    ));
    let (stacks, locks) = StealStacks::allocate(&job, cfg.region_cap);
    // Termination words live on thread 0: [idle_count, done].
    let term_off = job.runtime().alloc_words(2);
    let term_lock = job.alloc_lock_at(0);
    let groups = Arc::new(GroupSet::partition(
        &mut job.kernel(),
        job.runtime(),
        GroupLevel::Node,
    ));
    // Termination stats and the start barrier go through the hierarchical
    // collective layer (group-staged allreduce/barrier on multi-node runs).
    hupc_coll::CollDomain::install_auto(&job);
    prepare(&mut job.kernel());

    let out: Arc<SimCell<UtsResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);
    let cfg = Arc::new(cfg);
    let cfg2 = Arc::clone(&cfg);

    job.run_result(move |upc| {
        let me = upc.mythread();
        let mut stats = Stats::default();
        let mut local: VecDeque<Node> = VecDeque::new();
        if me == 0 {
            local.push_back(cfg2.tree.root());
        }
        upc.staged_barrier();
        let t0 = upc.now();
        let mut rng = Rng::new((me as u64) << 32 | 0xC0FFEE);

        'outer: loop {
            if !local.is_empty() {
                work_batch(&upc, &cfg2, &mut local, &mut stats);
                maybe_release(&upc, &cfg2, &stacks, &locks, &mut local, &mut stats);
                continue;
            }
            // Private stack dry: reclaim our own shared region first.
            let own = locks[me];
            own.lock(&upc);
            let mut back = Vec::new();
            stacks.reacquire(&upc, &mut back);
            own.unlock(&upc);
            if !back.is_empty() {
                local.extend(back);
                continue;
            }
            // Optimistic sweep first: most dry spells end at the first
            // discovery round, without touching the global termination
            // state (whose lock lives on thread 0 and would serialize).
            let stolen = attempt_steal(
                &upc, &cfg2, &stacks, &locks, &groups, &mut rng, &mut stats,
            );
            if !stolen.is_empty() {
                local.extend(stolen);
                continue;
            }
            // Enter the idle protocol (Fig 3.2's discovery/stealing states).
            enter_idle(&upc, term_off, term_lock, cfg2.threads);
            loop {
                if is_done(&upc, term_off) {
                    break 'outer;
                }
                let stolen = attempt_steal(
                    &upc, &cfg2, &stacks, &locks, &groups, &mut rng, &mut stats,
                );
                if !stolen.is_empty() {
                    leave_idle(&upc, term_off, term_lock);
                    local.extend(stolen);
                    continue 'outer;
                }
                // Lazy polling backoff: consecutive empty probes coalesce
                // into one advance at the next steal attempt's kernel call.
                upc.ctx().advance_lazy(time::us(5));
            }
        }
        let dt = upc.now() - t0;

        // Aggregate (untimed reporting).
        let total = upc.allreduce_sum_u64(stats.nodes);
        let depth = upc.allreduce_max_u64(stats.max_depth);
        let leaves = upc.allreduce_sum_u64(stats.leaves);
        let ls = upc.allreduce_sum_u64(stats.local_steals);
        let rs = upc.allreduce_sum_u64(stats.remote_steals);
        let lp = upc.allreduce_sum_u64(stats.local_probes);
        let rp = upc.allreduce_sum_u64(stats.remote_probes);
        let fs = upc.allreduce_sum_u64(stats.failed_steals);
        let rel = upc.allreduce_sum_u64(stats.releases);
        let cf = upc.allreduce_sum_u64(stats.comm_failures);
        let dt_max = upc.allreduce_max_u64(dt);
        if me == 0 {
            let seconds = time::as_secs_f64(dt_max);
            out2.with_mut(|r| {
                *r = UtsResult {
                    total_nodes: total,
                    max_depth: depth,
                    leaves,
                    seconds,
                    mnodes_per_sec: total as f64 / seconds / 1e6,
                    local_steals: ls,
                    remote_steals: rs,
                    local_probes: lp,
                    remote_probes: rp,
                    failed_steals: fs,
                    releases: rel,
                    comm_failures: cf,
                }
            });
        }
    })?;
    Ok(Arc::try_unwrap(out).expect("result still shared").into_inner())
}

/// Process up to `batch` nodes depth-first; charge their compute once.
fn work_batch(
    upc: &Upc<'_>,
    cfg: &UtsConfig,
    local: &mut VecDeque<Node>,
    stats: &mut Stats,
) {
    let n = cfg.batch.min(local.len());
    for _ in 0..n {
        let node = local.pop_back().expect("checked non-empty");
        stats.nodes += 1;
        stats.max_depth = stats.max_depth.max(node.depth as u64);
        if cfg.tree.expand(&node, |kid| local.push_back(kid)) == 0 {
            stats.leaves += 1;
        }
    }
    upc.compute(cfg.node_work * n as u64);
}

/// Move surplus work (oldest nodes — the largest subtrees) to the shared
/// region when the private stack runs deep: everything beyond a 2-chunk
/// private reserve, as far as the region has room. Aggressive release is
/// what keeps thieves fed (the reference UTS releases on every interval).
fn maybe_release(
    upc: &Upc<'_>,
    cfg: &UtsConfig,
    stacks: &StealStacks,
    locks: &[UpcLock],
    local: &mut VecDeque<Node>,
    stats: &mut Stats,
) {
    let chunk = cfg.steal_granularity.max(4);
    if local.len() <= 2 * chunk {
        return;
    }
    let me = upc.mythread();
    let avail = stacks.my_avail(upc);
    let room = stacks.cap().saturating_sub(avail);
    let surplus = local.len() - 2 * chunk;
    let n = surplus.min(room);
    if n == 0 {
        return;
    }
    locks[me].lock(upc);
    let placed = stacks.release(upc, local.range(..n));
    locks[me].unlock(upc);
    stats.releases += 1;
    // Anything that did not fit stays at the private stack's bottom.
    local.drain(..placed);
}

/// One steal round per the configured strategy. Empty result = round failed.
fn attempt_steal(
    upc: &Upc<'_>,
    cfg: &UtsConfig,
    stacks: &StealStacks,
    locks: &[UpcLock],
    groups: &GroupSet,
    rng: &mut Rng,
    stats: &mut Stats,
) -> Vec<Node> {
    let me = upc.mythread();
    match cfg.strategy {
        StealStrategy::Random => {
            // The reference UTS discovery: one full sweep of the peers,
            // linearly from MYTHREAD+1 (which is what gives the baseline its
            // residual intra-node steal ratio on blocked placements).
            for d in 1..cfg.threads {
                let victim = (me + d) % cfg.threads;
                if let Some(n) = try_victim(upc, cfg, stacks, locks, victim, false, stats) {
                    return n;
                }
            }
            Vec::new()
        }
        StealStrategy::LocalFirst | StealStrategy::LocalFirstRapid => {
            let rapid = cfg.strategy == StealStrategy::LocalFirstRapid;
            // Local work discovery: sweep the node group first (Fig 3.2).
            let group = groups.group_of(me);
            let peers = group.peers_of(me);
            let start = if peers.is_empty() { 0 } else { rng.pick(peers.len()) };
            for k in 0..peers.len() {
                let victim = peers[(start + k) % peers.len()];
                if let Some(n) = try_victim(upc, cfg, stacks, locks, victim, rapid, stats) {
                    return n;
                }
            }
            // Remote work discovery: sweep outsiders from a random start.
            let outsiders = groups.outsiders_of(me);
            if outsiders.is_empty() {
                return Vec::new();
            }
            let start = rng.pick(outsiders.len());
            for k in 0..outsiders.len() {
                let victim = outsiders[(start + k) % outsiders.len()];
                if let Some(n) = try_victim(upc, cfg, stacks, locks, victim, rapid, stats) {
                    return n;
                }
            }
            Vec::new()
        }
    }
}

/// Probe one victim; lock and transfer on success. A probe or transfer
/// that exhausts its retry budget (dead link, hopeless straggler) is
/// counted in `comm_failures` and treated as a failed round — the caller's
/// sweep simply moves on to the next victim.
fn try_victim(
    upc: &Upc<'_>,
    cfg: &UtsConfig,
    stacks: &StealStacks,
    locks: &[UpcLock],
    victim: usize,
    rapid: bool,
    stats: &mut Stats,
) -> Option<Vec<Node>> {
    let me = upc.mythread();
    let local_victim = upc.gasnet().castable(me, victim);
    // Group distance in node hops (0 = same node, further apart = larger),
    // computed only for a traced run.
    let distance = upc.ctx().tracing().then(|| {
        let g = upc.gasnet();
        (g.thread_node(me).0 as i64 - g.thread_node(victim).0 as i64).unsigned_abs()
    });
    if let Some(distance) = distance {
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::StealAttempt, victim as u64, distance);
        upc.trace_count("uts.steal_attempts", 1);
        upc.trace_observe("uts.probe_distance", distance);
    }
    if local_victim {
        stats.local_probes += 1;
    } else {
        stats.remote_probes += 1;
    }
    let avail = match stacks.try_probe(upc, victim) {
        Ok(n) => n,
        Err(_) => {
            stats.comm_failures += 1;
            return None;
        }
    };
    if avail == 0 {
        return None;
    }
    let want = if rapid && avail >= 2 * cfg.steal_granularity {
        avail / 2
    } else {
        cfg.steal_granularity.min(avail)
    };
    locks[victim].lock(upc);
    let stolen = stacks.try_steal_locked(upc, victim, want);
    locks[victim].unlock(upc);
    let stolen = match stolen {
        Ok(s) => s,
        Err(_) => {
            stats.comm_failures += 1;
            stats.failed_steals += 1;
            return None;
        }
    };
    if stolen.is_empty() {
        stats.failed_steals += 1;
        return None;
    }
    if local_victim {
        stats.local_steals += 1;
    } else {
        stats.remote_steals += 1;
    }
    if let Some(distance) = distance {
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::StealSuccess, victim as u64, distance);
        upc.trace_count("uts.steals", 1);
        upc.trace_count(
            if distance == 0 { "uts.steals_local" } else { "uts.steals_remote" },
            1,
        );
        upc.trace_observe("uts.steal_distance", distance);
        upc.trace_observe("uts.steal_size", stolen.len() as u64);
    }
    Some(stolen)
}

// ----- distributed termination (idle counting on thread 0) -----------------

fn enter_idle(upc: &Upc<'_>, term_off: usize, term_lock: UpcLock, threads: usize) {
    term_lock.lock(upc);
    let mut w = [0u64];
    upc.memget(0, term_off, &mut w);
    let idle = w[0] + 1;
    upc.memput(0, term_off, &[idle]);
    if idle as usize == threads {
        upc.memput(0, term_off + 1, &[1]);
    }
    term_lock.unlock(upc);
}

fn leave_idle(upc: &Upc<'_>, term_off: usize, term_lock: UpcLock) {
    term_lock.lock(upc);
    let mut w = [0u64];
    upc.memget(0, term_off, &mut w);
    upc.memput(0, term_off, &[w[0] - 1]);
    term_lock.unlock(upc);
}

fn is_done(upc: &Upc<'_>, term_off: usize) -> bool {
    let mut w = [0u64];
    upc.memget(0, term_off + 1, &mut w);
    w[0] == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::sequential_traverse;

    #[test]
    fn parallel_count_matches_sequential() {
        let seq = sequential_traverse(&TreeParams::small_binomial(5));
        for strategy in [
            StealStrategy::Random,
            StealStrategy::LocalFirst,
            StealStrategy::LocalFirstRapid,
        ] {
            let r = run_uts(UtsConfig::small(4, 2, strategy, 5));
            assert_eq!(r.total_nodes, seq.0, "{strategy:?}");
            assert_eq!(r.max_depth, seq.1 as u64, "{strategy:?}");
            assert_eq!(r.leaves, seq.2, "{strategy:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_tree() {
        let seq = sequential_traverse(&TreeParams::small_binomial(8));
        for threads in [1, 2, 6] {
            let nodes = if threads == 1 { 1 } else { 2 };
            let r = run_uts(UtsConfig::small(threads, nodes, StealStrategy::LocalFirst, 8));
            assert_eq!(r.total_nodes, seq.0, "threads={threads}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_uts(UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 6));
        let b = run_uts(UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 6));
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.local_steals, b.local_steals);
        assert_eq!(a.remote_steals, b.remote_steals);
    }

    #[test]
    fn local_first_raises_local_ratio() {
        let base = run_uts(UtsConfig::small(8, 2, StealStrategy::Random, 12));
        let opt = run_uts(UtsConfig::small(8, 2, StealStrategy::LocalFirst, 12));
        assert!(
            opt.local_steal_ratio() >= base.local_steal_ratio(),
            "opt {:.2} vs base {:.2}",
            opt.local_steal_ratio(),
            base.local_steal_ratio()
        );
    }

    #[test]
    fn lossy_gige_still_counts_the_whole_tree() {
        // The ISSUE acceptance scenario: UTS on GigE with 2% injected
        // packet loss completes with the correct tree-node count.
        let seq = sequential_traverse(&TreeParams::small_binomial(5));
        let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirst, 5);
        cfg.conduit = Conduit::gige();
        cfg.fault = Some(FaultPlan::new(0xFA17).loss(0.02));
        let r = run_uts(cfg);
        assert_eq!(r.total_nodes, seq.0);
        assert_eq!(r.max_depth, seq.1 as u64);
        assert_eq!(r.leaves, seq.2);
    }

    #[test]
    fn identity_fault_plan_is_byte_identical() {
        let base = run_uts(UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 6));
        let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 6);
        cfg.fault = Some(FaultPlan::new(99));
        let r = run_uts(cfg);
        assert_eq!(r.seconds, base.seconds);
        assert_eq!(r.local_steals, base.local_steals);
        assert_eq!(r.remote_steals, base.remote_steals);
        assert_eq!(r.releases, base.releases);
        assert_eq!(r.comm_failures, 0);
    }

    #[test]
    fn dead_link_reroutes_steals() {
        // Nodes 1 and 2 cannot reach each other; all their traffic must
        // route through stealing via node 0's threads. The run still
        // terminates with the full count, and the failed probes show up
        // in the comm_failures counter.
        let seq = sequential_traverse(&TreeParams::small_binomial(7));
        let mut cfg = UtsConfig::small(6, 3, StealStrategy::Random, 7);
        cfg.fault = Some(
            FaultPlan::new(1)
                .link_loss(1, 2, 1.0)
                .link_loss(2, 1, 1.0),
        );
        let r = run_uts(cfg);
        assert_eq!(r.total_nodes, seq.0);
        assert!(r.comm_failures > 0, "expected failed probes over the dead link");
    }

    #[test]
    fn work_actually_parallelizes() {
        let r1 = run_uts(UtsConfig::small(1, 1, StealStrategy::Random, 5));
        let r4 = run_uts(UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 5));
        assert!(
            r4.seconds < r1.seconds,
            "4 threads {} vs 1 thread {}",
            r4.seconds,
            r1.seconds
        );
    }
}
