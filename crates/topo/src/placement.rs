//! Software-thread placement: which PU each UPC thread (and its sub-threads)
//! runs on, mirroring the thesis' `numactl`-based binding practice (§4.3.2:
//! "UPC processes are cyclically pinned to independent ccNUMA nodes
//! (CPU sockets) using numactl by default").

use crate::bitmask::AffinityMask;
use crate::ids::{Level, NodeId, PuId, SocketId};
use crate::machine::Machine;

/// How UPC threads are bound within each node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindPolicy {
    /// Fill physical cores in order (socket 0 first), SMT siblings last.
    /// Standard dense binding for process-per-core runs.
    PackedCores,
    /// Alternate sockets core-by-core (the thesis' cyclic `numactl`
    /// binding). Sub-thread masks are the owning socket.
    RoundRobinSockets,
    /// No binding: threads get nominal PUs but may use the whole node; the
    /// memory system sees worst-case placement (Table 4.1's 1×8 case).
    Unbound,
}

/// A concrete thread → PU assignment over the first `nodes_used` nodes of a
/// machine.
#[derive(Clone, Debug)]
pub struct Placement {
    n_threads: usize,
    nodes_used: usize,
    policy: BindPolicy,
    assignment: Vec<PuId>,
    /// Node of each thread's PU, looked up once here: the runtime asks for
    /// it on every access-path probe, lock and get.
    nodes: Vec<NodeId>,
    masks: Vec<AffinityMask>,
}

impl Placement {
    /// Distribute `n_threads` evenly over the first `nodes_used` nodes
    /// (blocked: threads `[i*per_node, (i+1)*per_node)` on node `i`), binding
    /// within each node per `policy`.
    ///
    /// Panics if `n_threads` is not a multiple of `nodes_used` or a node's
    /// share exceeds its PU count.
    pub fn build(
        machine: &Machine,
        n_threads: usize,
        nodes_used: usize,
        policy: BindPolicy,
    ) -> Placement {
        let spec = machine.spec();
        assert!(nodes_used >= 1 && nodes_used <= spec.nodes,
            "nodes_used {nodes_used} out of range (machine has {})", spec.nodes);
        assert!(n_threads >= 1);
        assert_eq!(
            n_threads % nodes_used,
            0,
            "threads ({n_threads}) must divide evenly over nodes ({nodes_used})"
        );
        let per_node = n_threads / nodes_used;
        assert!(
            per_node <= spec.pus_per_node(),
            "{per_node} threads per node exceed {} PUs",
            spec.pus_per_node()
        );

        let mut assignment = Vec::with_capacity(n_threads);
        let mut masks = Vec::with_capacity(n_threads);
        for node in 0..nodes_used {
            let order = node_pu_order(machine, NodeId(node), policy);
            for &pu in order.iter().take(per_node) {
                assignment.push(pu);
                let mask = match policy {
                    BindPolicy::Unbound => machine.node_mask(NodeId(node)),
                    _ => machine.socket_mask(machine.pu_socket(pu)),
                };
                masks.push(mask);
            }
        }
        let nodes = assignment.iter().map(|&pu| machine.pu_node(pu)).collect();
        Placement {
            n_threads,
            nodes_used,
            policy,
            assignment,
            nodes,
            masks,
        }
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    pub fn nodes_used(&self) -> usize {
        self.nodes_used
    }

    pub fn policy(&self) -> BindPolicy {
        self.policy
    }

    pub fn threads_per_node(&self) -> usize {
        self.n_threads / self.nodes_used
    }

    /// PU the thread is (nominally) bound to.
    pub fn thread_pu(&self, t: usize) -> PuId {
        self.assignment[t]
    }

    /// Affinity mask sub-threads of `t` inherit.
    pub fn thread_mask(&self, t: usize) -> &AffinityMask {
        &self.masks[t]
    }

    /// Whether threads are actually pinned (false for [`BindPolicy::Unbound`]).
    pub fn is_bound(&self) -> bool {
        self.policy != BindPolicy::Unbound
    }

    /// Node of thread `t`.
    pub fn thread_node(&self, t: usize) -> NodeId {
        self.nodes[t]
    }

    /// Socket of thread `t`.
    pub fn thread_socket(&self, machine: &Machine, t: usize) -> SocketId {
        machine.pu_socket(self.assignment[t])
    }

    /// Proximity between two software threads.
    pub fn co_located(&self, machine: &Machine, a: usize, b: usize) -> Level {
        machine.distance(self.assignment[a], self.assignment[b])
    }

    /// All threads placed on `node`, in rank order.
    pub fn node_threads(&self, node: NodeId) -> Vec<usize> {
        (0..self.n_threads)
            .filter(|&t| self.thread_node(t) == node)
            .collect()
    }

    /// PUs for `n_sub` sub-threads of UPC thread `t` (the master's own
    /// bound PU first), chosen core-first from the thread's mask.
    ///
    /// Masters that share a mask (co-located UPC threads of one socket /
    /// node) keep their own bound PUs and split the *remaining* PUs of the
    /// mask into disjoint consecutive slices — master `k` of the domain
    /// gets its own PU plus slice `k` — so their pools never double-book a
    /// PU while capacity lasts. Beyond capacity the assignment wraps
    /// (time-shared PUs; the per-PU FIFO resource serializes the
    /// oversubscription).
    pub fn subthread_pus(&self, machine: &Machine, t: usize, n_sub: usize) -> Vec<PuId> {
        let mask = &self.masks[t];
        let own = self.assignment[t];
        // Core-first order within the mask: one PU per core, then SMT
        // siblings.
        let mut primary = Vec::new();
        let mut secondary = Vec::new();
        let mut seen_core = std::collections::HashSet::new();
        for pu in mask.iter() {
            if seen_core.insert(machine.pu_core(pu)) {
                primary.push(pu);
            } else {
                secondary.push(pu);
            }
        }
        let order: Vec<PuId> = primary.into_iter().chain(secondary).collect();
        // Co-located masters (same mask), in thread order; their bound PUs
        // are reserved for themselves.
        let domain: Vec<usize> = (0..self.n_threads)
            .filter(|&u| self.masks[u] == *mask)
            .collect();
        let k = domain
            .iter()
            .position(|&u| u == t)
            .expect("thread not found in its own domain");
        let reserved: Vec<PuId> = domain.iter().map(|&u| self.assignment[u]).collect();
        let free: Vec<PuId> = order
            .into_iter()
            .filter(|pu| !reserved.contains(pu))
            .collect();
        let mut pus = vec![own];
        if n_sub > 1 {
            let want = n_sub - 1;
            if free.is_empty() {
                // Degenerate: every PU is a master's PU; time-share them.
                pus.extend((0..want).map(|i| reserved[(k + 1 + i) % reserved.len()]));
            } else {
                let offset = k * want;
                pus.extend((0..want).map(|i| free[(offset + i) % free.len()]));
            }
        }
        pus
    }
}

/// PU fill order within a node for a policy: physical cores first, SMT
/// siblings afterwards.
fn node_pu_order(machine: &Machine, node: NodeId, policy: BindPolicy) -> Vec<PuId> {
    let spec = machine.spec();
    let sockets: Vec<_> = machine.node_sockets(node).collect();
    let mut first_pus: Vec<PuId> = Vec::new(); // one per core
    match policy {
        BindPolicy::PackedCores | BindPolicy::Unbound => {
            for &s in &sockets {
                for core in socket_cores(machine, s) {
                    first_pus.push(PuId(core * spec.smt_per_core));
                }
            }
        }
        BindPolicy::RoundRobinSockets => {
            for c in 0..spec.cores_per_socket {
                for &s in &sockets {
                    let core = s.0 * spec.cores_per_socket + c;
                    first_pus.push(PuId(core * spec.smt_per_core));
                }
            }
        }
    }
    let mut order = first_pus.clone();
    for smt in 1..spec.smt_per_core {
        for &p in &first_pus {
            order.push(PuId(p.0 + smt));
        }
    }
    order
}

fn socket_cores(machine: &Machine, s: SocketId) -> impl Iterator<Item = usize> {
    let per = machine.spec().cores_per_socket;
    s.0 * per..(s.0 + 1) * per
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    fn lehman() -> Machine {
        Machine::new(MachineSpec::lehman())
    }

    #[test]
    fn packed_fills_cores_then_smt() {
        let m = lehman();
        let p = Placement::build(&m, 16, 1, BindPolicy::PackedCores);
        // First 8 threads on the 8 physical cores (PUs 0,2,4,...,14)
        for t in 0..8 {
            assert_eq!(p.thread_pu(t), PuId(t * 2), "thread {t}");
        }
        // Next 8 are the SMT siblings
        for t in 8..16 {
            assert_eq!(p.thread_pu(t), PuId((t - 8) * 2 + 1), "thread {t}");
        }
    }

    #[test]
    fn round_robin_alternates_sockets() {
        let m = lehman();
        let p = Placement::build(&m, 4, 1, BindPolicy::RoundRobinSockets);
        assert_eq!(p.thread_socket(&m, 0), SocketId(0));
        assert_eq!(p.thread_socket(&m, 1), SocketId(1));
        assert_eq!(p.thread_socket(&m, 2), SocketId(0));
        assert_eq!(p.thread_socket(&m, 3), SocketId(1));
    }

    #[test]
    fn threads_spread_over_nodes_blocked() {
        let m = lehman();
        let p = Placement::build(&m, 32, 4, BindPolicy::PackedCores);
        assert_eq!(p.threads_per_node(), 8);
        for t in 0..8 {
            assert_eq!(p.thread_node(t), NodeId(0));
        }
        for t in 8..16 {
            assert_eq!(p.thread_node(t), NodeId(1));
        }
        assert_eq!(p.node_threads(NodeId(2)), vec![16, 17, 18, 19, 20, 21, 22, 23]);
    }

    #[test]
    fn node_table_matches_pu_node_on_every_preset_and_policy() {
        let policies = [BindPolicy::PackedCores, BindPolicy::RoundRobinSockets, BindPolicy::Unbound];
        for spec in [MachineSpec::lehman(), MachineSpec::pyramid(), MachineSpec::small_test(4)] {
            let m = Machine::new(spec.clone());
            for policy in policies {
                for nodes_used in [1, 2, 3, spec.nodes] {
                    for per_node in 1..=spec.pus_per_node() {
                        let p = Placement::build(&m, nodes_used * per_node, nodes_used, policy);
                        for t in 0..p.n_threads() {
                            assert_eq!(
                                p.thread_node(t),
                                m.pu_node(p.thread_pu(t)),
                                "{} {policy:?} {nodes_used}x{per_node} thread {t}",
                                spec.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn co_location_levels() {
        let m = lehman();
        let p = Placement::build(&m, 32, 4, BindPolicy::PackedCores);
        assert_eq!(p.co_located(&m, 0, 1), Level::SameSocket);
        assert_eq!(p.co_located(&m, 0, 4), Level::SameNode);
        assert_eq!(p.co_located(&m, 0, 8), Level::Remote);
        // thread 8 (SMT partner of thread 0) would be SameCore on 16/node:
        let p16 = Placement::build(&m, 16, 1, BindPolicy::PackedCores);
        assert_eq!(p16.co_located(&m, 0, 8), Level::SameCore);
    }

    #[test]
    fn bound_masks_are_sockets_unbound_whole_node() {
        let m = lehman();
        let pb = Placement::build(&m, 2, 1, BindPolicy::RoundRobinSockets);
        assert_eq!(pb.thread_mask(0).count(), 8);
        assert!(pb.is_bound());
        let pu = Placement::build(&m, 2, 1, BindPolicy::Unbound);
        assert_eq!(pu.thread_mask(0).count(), 16);
        assert!(!pu.is_bound());
    }

    #[test]
    fn subthread_pus_master_first_cores_then_smt() {
        let m = lehman();
        let p = Placement::build(&m, 2, 1, BindPolicy::RoundRobinSockets);
        // Thread 1 is on socket 1 (PUs 8..16); its own PU is 8.
        let pus = p.subthread_pus(&m, 1, 8);
        assert_eq!(pus[0], p.thread_pu(1));
        assert_eq!(pus.len(), 8);
        // First 4 are distinct physical cores, last 4 are SMT siblings.
        let cores: std::collections::HashSet<_> =
            pus[..4].iter().map(|&pu| m.pu_core(pu)).collect();
        assert_eq!(cores.len(), 4);
        let cores2: std::collections::HashSet<_> =
            pus[4..].iter().map(|&pu| m.pu_core(pu)).collect();
        assert_eq!(cores2, cores);
    }

    #[test]
    #[should_panic(expected = "must divide evenly")]
    fn uneven_distribution_rejected() {
        let m = lehman();
        Placement::build(&m, 9, 4, BindPolicy::PackedCores);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversubscription_rejected() {
        let m = lehman();
        Placement::build(&m, 17, 1, BindPolicy::PackedCores);
    }
}
