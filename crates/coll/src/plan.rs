//! Algorithm selection: flat vs two-level vs three-level per topology,
//! payload and operation.
//!
//! §3.2's thesis is that the *same* collective should be realized
//! differently on a flat cluster, an SMP cluster, and a ccNUMA SMP cluster.
//! `CollPlan` captures that decision point: `Auto` queries the machine
//! (node-group and socket-group counts) plus the payload size; `Force` pins
//! one algorithm for ablation sweeps. The plan passed to
//! `CollDomain::build` is the only selector: nothing ambient overrides it.

/// Which decomposition a collective runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollAlgo {
    /// Topology-blind single-level algorithm (the `hupc-upc` reference
    /// path): one binomial tree / linear gather over all `THREADS`.
    Flat,
    /// node → core: intra-node shared-memory phase plus an inter-node-leader
    /// network phase.
    TwoLevel,
    /// node → socket → core: like two-level, with an extra socket-leader
    /// stage inside each node (ccNUMA-aware). Ops without a three-level
    /// variant (allgather, all-to-all, barrier) clamp to two-level.
    ThreeLevel,
}

impl CollAlgo {
    /// The `hupc-trace` algorithm tag for this decomposition.
    #[cfg(feature = "trace")]
    pub fn trace_tag(self) -> u64 {
        match self {
            CollAlgo::Flat => hupc_trace::coll::ALGO_FLAT,
            CollAlgo::TwoLevel => hupc_trace::coll::ALGO_TWO_LEVEL,
            CollAlgo::ThreeLevel => hupc_trace::coll::ALGO_THREE_LEVEL,
        }
    }
}

/// Per-job selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollPlan {
    /// Choose per operation from the machine topology and payload size:
    /// flat on single-node jobs (bit-identical to the reference path),
    /// three-level for large broadcast/reduce payloads on multi-socket
    /// nodes, two-level otherwise.
    Auto,
    /// Always use one algorithm (ablation knob).
    Force(CollAlgo),
}

/// The collective operations a plan decides for (payload thresholds differ
/// per op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    Broadcast,
    Allreduce,
    Allgather,
    AllExchange,
    Barrier,
}

/// Payload (in words) below which a socket stage is not worth its extra
/// barriers: small messages are latency-bound and the node leader's memory
/// controller is not yet the bottleneck.
pub const THREE_LEVEL_MIN_WORDS: usize = 64;

/// Resolve a plan to a concrete algorithm.
///
/// `node_groups` / `socket_groups` are the partition sizes of the job
/// (`socket_groups > node_groups` means at least one node spans several
/// occupied sockets).
pub fn resolve(
    plan: CollPlan,
    op: CollOp,
    payload_words: usize,
    node_groups: usize,
    socket_groups: usize,
) -> CollAlgo {
    let clamp3 = |a: CollAlgo| match (a, op) {
        (CollAlgo::ThreeLevel, CollOp::Broadcast | CollOp::Allreduce) => CollAlgo::ThreeLevel,
        (CollAlgo::ThreeLevel, _) => CollAlgo::TwoLevel,
        (a, _) => a,
    };
    match plan {
        CollPlan::Force(a) => clamp3(a),
        CollPlan::Auto => {
            if node_groups <= 1 {
                // Single shared-memory domain: the flat path already runs
                // entirely over pshm and stays bit-identical to the
                // reference collectives.
                return CollAlgo::Flat;
            }
            if socket_groups > node_groups && payload_words >= THREE_LEVEL_MIN_WORDS {
                return clamp3(CollAlgo::ThreeLevel);
            }
            CollAlgo::TwoLevel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_is_flat_on_single_node() {
        for op in [CollOp::Broadcast, CollOp::Allreduce, CollOp::Allgather] {
            assert_eq!(resolve(CollPlan::Auto, op, 4096, 1, 2), CollAlgo::Flat);
        }
    }

    #[test]
    fn auto_picks_three_level_only_for_large_bcast_reduce_on_multisocket() {
        let r = |op, words| resolve(CollPlan::Auto, op, words, 4, 8);
        assert_eq!(r(CollOp::Broadcast, 1024), CollAlgo::ThreeLevel);
        assert_eq!(r(CollOp::Allreduce, 1024), CollAlgo::ThreeLevel);
        assert_eq!(r(CollOp::Broadcast, 8), CollAlgo::TwoLevel);
        assert_eq!(r(CollOp::Allgather, 1024), CollAlgo::TwoLevel);
        assert_eq!(r(CollOp::Barrier, 0), CollAlgo::TwoLevel);
        // one socket per node occupied: no socket stage to exploit
        assert_eq!(
            resolve(CollPlan::Auto, CollOp::Broadcast, 1024, 4, 4),
            CollAlgo::TwoLevel
        );
    }

    #[test]
    fn force_clamps_three_level_for_unsupported_ops() {
        let f = CollPlan::Force(CollAlgo::ThreeLevel);
        assert_eq!(resolve(f, CollOp::Allreduce, 1, 2, 4), CollAlgo::ThreeLevel);
        assert_eq!(resolve(f, CollOp::Allgather, 1, 2, 4), CollAlgo::TwoLevel);
        assert_eq!(resolve(f, CollOp::AllExchange, 1, 2, 4), CollAlgo::TwoLevel);
    }
}
