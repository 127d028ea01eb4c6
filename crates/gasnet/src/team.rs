//! Teams: named subsets of UPC threads with their own barrier, modeled
//! after the (then-unreleased) GASNet team extension the thesis discusses in
//! §3.2.1. `hupc-groups` builds its topology-driven thread groups on top.

use std::sync::Arc;

use hupc_sim::{BarrierId, Ctx, Time};

use crate::runtime::{compute_barrier_cost, Gasnet};

/// A subset of UPC threads acting as a collective unit.
pub struct Team {
    gasnet: Arc<Gasnet>,
    members: Vec<usize>,
    barrier: BarrierId,
    /// Barrier release cost: cheap for intra-node teams, dissemination over
    /// the nodes the team spans otherwise. Members and placement are frozen
    /// here, so it is worked out once instead of on every barrier.
    barrier_cost: Time,
}

impl Team {
    /// Create a team over `members` (UPC thread ids, distinct). Must be
    /// called before the simulation runs or from a context with kernel
    /// access; takes the simulation kernel through the `Gasnet`'s machinery.
    pub fn new(
        kernel: &mut hupc_sim::Kernel,
        gasnet: Arc<Gasnet>,
        mut members: Vec<usize>,
    ) -> Team {
        assert!(!members.is_empty(), "team needs at least one member");
        members.sort_unstable();
        members.dedup();
        for &m in &members {
            assert!(m < gasnet.n_threads(), "member {m} out of range");
        }
        let barrier = kernel.new_barrier(members.len());
        let barrier_cost = compute_barrier_cost(
            distinct_nodes(&gasnet, &members),
            gasnet.overheads().barrier_stage,
            gasnet.fabric().conduit().wire_latency,
        );
        Team {
            gasnet,
            members,
            barrier,
            barrier_cost,
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Members in rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Team rank of a UPC thread, if it belongs.
    pub fn rank_of(&self, thread: usize) -> Option<usize> {
        self.members.binary_search(&thread).ok()
    }

    /// UPC thread id of a team rank.
    pub fn thread_at(&self, rank: usize) -> usize {
        self.members[rank]
    }

    /// Whether every member pair shares memory (castable): the team spans a
    /// single supernode.
    pub fn is_shared_memory(&self) -> bool {
        let first = self.members[0];
        self.members.iter().all(|&m| self.gasnet.castable(first, m))
    }

    /// Team barrier; caller must be a member.
    pub fn barrier(&self, ctx: &Ctx, me: usize) {
        assert!(
            self.rank_of(me).is_some(),
            "thread {me} is not a member of this team"
        );
        self.gasnet.quiesce(ctx, me);
        ctx.barrier_wait_cost(self.barrier, self.barrier_cost);
    }
}

/// Number of distinct nodes hosting `members`.
fn distinct_nodes(gasnet: &Gasnet, members: &[usize]) -> usize {
    let mut nodes: Vec<usize> = members.iter().map(|&m| gasnet.thread_node(m).0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("members", &self.members)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::GasnetConfig;
    use hupc_sim::Simulation;

    #[test]
    fn ranks_and_membership() {
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, GasnetConfig::test_default(8, 2));
        let team = Team::new(&mut sim.kernel(), Arc::clone(&gn), vec![6, 2, 4, 2]);
        assert_eq!(team.size(), 3);
        assert_eq!(team.members(), &[2, 4, 6]);
        assert_eq!(team.rank_of(4), Some(1));
        assert_eq!(team.rank_of(3), None);
        assert_eq!(team.thread_at(2), 6);
    }

    #[test]
    fn shared_memory_detection() {
        let mut sim = Simulation::new();
        // 8 threads over 2 nodes → threads 0..4 on node 0
        let gn = Gasnet::new(&mut sim, GasnetConfig::test_default(8, 2));
        let k = &mut sim.kernel();
        let intra = Team::new(k, Arc::clone(&gn), vec![0, 1, 2, 3]);
        let cross = Team::new(k, Arc::clone(&gn), vec![3, 4]);
        assert!(intra.is_shared_memory());
        assert!(!cross.is_shared_memory());
    }

    #[test]
    fn memoised_barrier_cost_matches_the_formula_over_members() {
        // 16 threads on 4 nodes of 2 sockets x 2 cores: threads 0..4 share
        // node 0, with 0,1 on its first socket and 2,3 on its second.
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, GasnetConfig::test_default(16, 4));
        let oh = gn.overheads().barrier_stage;
        let wire = gn.fabric().conduit().wire_latency;
        let cases: [(&str, Vec<usize>, Time); 6] = [
            ("singleton", vec![5], oh),
            ("one socket", vec![0, 1], oh),
            ("socket-spanning, one node", vec![0, 1, 2, 3], oh),
            ("two nodes", vec![3, 4], oh + (wire + oh)),
            ("three nodes", vec![0, 5, 6, 11], oh + 2 * (wire + oh)),
            ("every node", (0..16).collect(), oh + 2 * (wire + oh)),
        ];
        for (what, members, expect) in cases {
            let team = Team::new(&mut sim.kernel(), Arc::clone(&gn), members);
            // Recount the nodes the way the per-call version did.
            let nodes: std::collections::HashSet<_> =
                team.members().iter().map(|&m| gn.thread_node(m)).collect();
            assert_eq!(
                team.barrier_cost,
                compute_barrier_cost(nodes.len(), oh, wire),
                "{what}: stored cost is not the formula over the members"
            );
            assert_eq!(team.barrier_cost, expect, "{what}");
        }
        // The all-threads barrier is the same formula over `nodes_used`.
        assert_eq!(gn.barrier_cost(), compute_barrier_cost(4, oh, wire));
        let one = Gasnet::new(&mut Simulation::new(), GasnetConfig::test_default(4, 1));
        assert_eq!(one.barrier_cost(), oh);
    }

    #[test]
    fn team_barrier_only_synchronizes_members() {
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, GasnetConfig::test_default(4, 1));
        let team = Arc::new(Team::new(
            &mut sim.kernel(),
            Arc::clone(&gn),
            vec![0, 1],
        ));
        let done = Arc::new(hupc_sim::SimCell::new([0u64; 4]));
        for t in 0..4 {
            let team = Arc::clone(&team);
            let gn = Arc::clone(&gn);
            let done = Arc::clone(&done);
            sim.spawn(format!("upc{t}"), move |ctx| {
                if t < 2 {
                    ctx.advance(hupc_sim::time::us(t as u64 * 3 + 1));
                    team.barrier(ctx, t);
                    done.with_mut(|d| d[t] = ctx.now());
                } else {
                    // non-members never touch the team barrier
                    done.with_mut(|d| d[t] = 1);
                }
                let _ = gn; // keep alive
            });
        }
        sim.run();
        let d = done.get();
        assert_eq!(d[0], d[1]); // members released together
        assert_eq!(d[2], 1);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_barrier_panics() {
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, GasnetConfig::test_default(4, 1));
        let team = Arc::new(Team::new(&mut sim.kernel(), Arc::clone(&gn), vec![0, 1]));
        sim.spawn("upc3", move |ctx| {
            team.barrier(ctx, 3);
        });
        sim.run();
    }
}
