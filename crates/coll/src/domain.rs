//! The collective domain: topology partitions + hierarchical algorithms.
//!
//! A [`CollDomain`] is built once per job (the §3.3 "setup phase"): it
//! partitions the threads into node groups and socket groups, elects
//! leaders (lowest member), and pre-builds the inter-leader team. Installed
//! as the job's [`CollProvider`], it decomposes every collective into
//!
//! * an **intra-group phase** over shared memory — member puts/gets against
//!   the group leader ride the castable (`pshm`/local) access paths, so no
//!   network traffic is charged — and
//! * an **inter-leader phase** over the network — k-ary trees for
//!   broadcast/reduce, a store-and-forward ring for allgather, and
//!   per-destination-node message coalescing for all-to-all.
//!
//! Payloads are pipelined through the segment scratch region, so
//! `SCRATCH_WORDS` bounds the chunk size, never the payload.

use std::sync::Arc;

use hupc_groups::{GroupLevel, GroupSet, ThreadGroup};
use hupc_sim::Kernel;
use hupc_upc::{CollProvider, SharedArray, Upc, UpcJob, UpcRuntime, SCRATCH_WORDS};

use crate::plan::{resolve, CollAlgo, CollOp, CollPlan};

/// Half the scratch region: the DATA pipeline chunk. The other half is the
/// GATHER area for reduction slots.
const HALF: usize = SCRATCH_WORDS / 2;

/// Fan-out of the inter-leader trees.
const ARITY: usize = 8;

/// Emit a structured trace event; the payload (a span tag) is computed only
/// when a tracer is attached.
macro_rules! emit {
    ($upc:expr, $kind:ident, $a:expr, $b:expr) => {
        if $upc.ctx().tracing() {
            $upc.ctx()
                .trace_emit(hupc_trace::EventKind::$kind, $a, $b);
        }
    };
}

/// Pre-allocated staging for the coalesced all-to-all (see
/// [`CollDomain::reserve_exchange`]).
struct ExchangeStaging {
    arr: SharedArray<u64>,
    max_block_words: usize,
}

/// Topology-aware collective provider.
pub struct CollDomain {
    nodes: GroupSet,
    sockets: GroupSet,
    /// One team over all node leaders; leader rank == node-group index.
    leaders: ThreadGroup,
    /// Per node group: the socket-leader threads inside it, ascending.
    socket_leaders_by_node: Vec<Vec<usize>>,
    /// Threads per node (placement guarantees an even split).
    node_size: usize,
    plan: CollPlan,
    staging: Option<ExchangeStaging>,
}

impl CollDomain {
    /// Partition the job's threads and pre-build the leader team.
    pub fn build(kernel: &mut Kernel, rt: &Arc<UpcRuntime>, plan: CollPlan) -> CollDomain {
        let nodes = GroupSet::partition(kernel, rt, GroupLevel::Node);
        let sockets = GroupSet::partition(kernel, rt, GroupLevel::Socket);
        let leader_threads: Vec<usize> = nodes.groups().iter().map(|g| g.leader()).collect();
        debug_assert!(leader_threads.windows(2).all(|w| w[0] < w[1]));
        let leaders = ThreadGroup::new(kernel, rt, leader_threads);
        let socket_leaders_by_node: Vec<Vec<usize>> = nodes
            .groups()
            .iter()
            .map(|g| {
                let mut ls: Vec<usize> = g
                    .members()
                    .iter()
                    .map(|&m| sockets.group_of(m).leader())
                    .collect();
                ls.dedup(); // members ascending → socket leaders ascending
                ls
            })
            .collect();
        let node_size = nodes.groups()[0].size();
        debug_assert!(nodes.groups().iter().all(|g| g.size() == node_size));
        CollDomain {
            nodes,
            sockets,
            leaders,
            socket_leaders_by_node,
            node_size,
            plan,
            staging: None,
        }
    }

    /// Convenience: build against a job before `run`.
    pub fn for_job(job: &UpcJob, plan: CollPlan) -> CollDomain {
        let mut kernel = job.kernel();
        Self::build(&mut kernel, job.runtime(), plan)
    }

    /// Pre-allocate leader staging for the coalesced hierarchical
    /// all-to-all: without it (or for blocks larger than
    /// `max_block_words`), `all_exchange` falls back to the flat pairwise
    /// algorithm. Costs `THREADS² × node_size × max_block_words` words of
    /// segment space across the job — reserve only what the app exchanges.
    pub fn reserve_exchange(mut self, job: &UpcJob, max_block_words: usize) -> Self {
        assert!(max_block_words > 0);
        let p = job.gasnet().n_threads();
        let per_thread = p * self.node_size * max_block_words;
        let arr = job.alloc_shared::<u64>(p * per_thread, per_thread);
        self.staging = Some(ExchangeStaging {
            arr,
            max_block_words,
        });
        self
    }

    /// Install as the job's collective provider (all `Upc` collectives then
    /// delegate here).
    pub fn install(self, job: &UpcJob) {
        job.runtime().set_coll_provider(Arc::new(self));
    }

    /// Build with [`CollPlan::Auto`] and install, in one step.
    pub fn install_auto(job: &UpcJob) {
        Self::for_job(job, CollPlan::Auto).install(job);
    }

    /// Node groups in the job.
    pub fn node_groups(&self) -> usize {
        self.nodes.len()
    }

    /// Socket groups in the job.
    pub fn socket_groups(&self) -> usize {
        self.sockets.len()
    }

    /// The algorithm a given op/payload resolves to under this domain's
    /// plan.
    pub fn algo_for(&self, op: CollOp, payload_words: usize) -> CollAlgo {
        resolve(
            self.plan,
            op,
            payload_words,
            self.nodes.len(),
            self.sockets.len(),
        )
    }

    fn leader_thread(&self, group: usize) -> usize {
        self.nodes.groups()[group].leader()
    }

    fn node_barrier(&self, upc: &Upc<'_>) {
        self.nodes.group_of(upc.mythread()).barrier(upc);
    }

    /// Socket-slot index of `me`'s socket inside its node (three-level
    /// gather slot).
    fn socket_index_in_node(&self, me: usize) -> usize {
        let g = self.nodes.group_index_of(me);
        let sl = self.sockets.group_of(me).leader();
        self.socket_leaders_by_node[g]
            .iter()
            .position(|&l| l == sl)
            .expect("socket leader not found in node")
    }

    // ------------------------------------------------------------------
    // broadcast
    // ------------------------------------------------------------------

    fn broadcast_hier(&self, upc: &Upc<'_>, root: usize, words: &mut [u64], algo: CollAlgo) {
        let me = upc.mythread();
        let (data, _) = upc.runtime().coll_scratch();
        let grp = self.nodes.len();
        let root_g = self.nodes.group_index_of(root);
        let node_leader = self.nodes.group_of(me).leader();
        let lrank = self.leaders.rank_of(me);
        let three = algo == CollAlgo::ThreeLevel;
        let tag = |phase| hupc_trace::coll::phase_tag(hupc_trace::coll::BROADCAST, algo.trace_tag(), phase);
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_OP), words.len() as u64);
        let mut buf = vec![0u64; words.len().min(HALF)];
        for chunk in words.chunks_mut(HALF) {
            // Stage: the root plants the chunk in its node leader's DATA.
            emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), chunk.len() as u64);
            if me == root {
                if me == node_leader {
                    upc.gasnet().segment(me).write(data, chunk);
                } else {
                    upc.memput(node_leader, data, chunk); // pshm
                }
            }
            emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
            self.node_barrier(upc);
            // Inter-leader k-ary tree, rotated so the root's leader is
            // tree rank 0.
            if let Some(lr) = lrank {
                emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTER), chunk.len() as u64);
                let rel = (lr + grp - root_g) % grp;
                let b = &mut buf[..chunk.len()];
                let mut staged = false;
                let mut span = 1;
                while span < grp {
                    self.leaders.barrier(upc);
                    if rel < span {
                        if !staged {
                            upc.gasnet().segment(me).read(data, b);
                            staged = true;
                        }
                        let mut hs = Vec::new();
                        for j in 1..ARITY {
                            let t = rel + j * span;
                            if t < grp {
                                let dst = self.leader_thread((root_g + t) % grp);
                                hs.push(upc.memput_nb(dst, data, b));
                            }
                        }
                        for h in hs {
                            upc.wait_sync(h);
                        }
                    }
                    span *= ARITY;
                }
                self.leaders.barrier(upc);
                emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTER), 0);
            }
            self.node_barrier(upc);
            // Distribute: members pull from their (socket) leader over
            // shared memory.
            emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), chunk.len() as u64);
            if three {
                let sl = self.sockets.group_of(me).leader();
                if me == sl && me != node_leader {
                    let b = &mut buf[..chunk.len()];
                    upc.memget(node_leader, data, b); // pshm (possibly NUMA-remote)
                    upc.gasnet().segment(me).write(data, b);
                }
                self.sockets.group_of(me).barrier(upc);
                if me != root {
                    if me == sl {
                        upc.gasnet().segment(me).read(data, chunk);
                    } else {
                        upc.memget(sl, data, chunk);
                    }
                }
            } else if me != root {
                if me == node_leader {
                    upc.gasnet().segment(me).read(data, chunk);
                } else {
                    upc.memget(node_leader, data, chunk);
                }
            }
            emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
            // Guard scratch reuse by the next chunk / next collective.
            self.node_barrier(upc);
        }
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_OP), 0);
    }

    // ------------------------------------------------------------------
    // allreduce
    // ------------------------------------------------------------------

    fn allreduce_hier(
        &self,
        upc: &Upc<'_>,
        vals: &mut [u64],
        combine: &(dyn Fn(u64, u64) -> u64 + Sync),
        algo: CollAlgo,
    ) {
        let me = upc.mythread();
        let (data, _) = upc.runtime().coll_scratch();
        let gather = data + HALF;
        let grp = self.nodes.len();
        let my_node = self.nodes.group_of(me).clone();
        let node_leader = my_node.leader();
        let lrank = self.leaders.rank_of(me);
        let k = ARITY;
        let three = algo == CollAlgo::ThreeLevel;
        let tag = |phase| hupc_trace::coll::phase_tag(hupc_trace::coll::ALLREDUCE, algo.trace_tag(), phase);
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_OP), vals.len() as u64);
        // Chunk so every slot family fits its half of the scratch region:
        // member slots in GATHER, socket partials in DATA, child partials
        // in GATHER during the inter tree.
        let max_socket = self.sockets.groups().iter().map(|s| s.size()).max().unwrap_or(1);
        let max_sockets_per_node = self
            .socket_leaders_by_node
            .iter()
            .map(|v| v.len())
            .max()
            .unwrap_or(1);
        let slots = if three {
            max_socket.max(max_sockets_per_node)
        } else {
            self.node_size
        }
        .max(k - 1);
        let c = (HALF / slots).max(1);
        let mut acc = vec![0u64; c.min(vals.len().max(1))];
        let mut tmp = vec![0u64; c.min(vals.len().max(1))];
        for chunk in vals.chunks_mut(c) {
            let cl = chunk.len();
            let acc = &mut acc[..cl];
            let tmp = &mut tmp[..cl];
            // Intra: gather member contributions into the leader, fold in
            // member-rank order (deterministic; combine must be
            // associative + commutative across the tree stages).
            emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), cl as u64);
            if three {
                let sg = self.sockets.group_of(me).clone();
                let sl = sg.leader();
                let sr = sg.rank_of(me).expect("member of own socket group");
                if me != sl {
                    upc.memput(sl, gather + sr * cl, chunk); // pshm
                }
                sg.barrier(upc);
                if me == sl {
                    acc.copy_from_slice(chunk);
                    for r in 1..sg.size() {
                        upc.gasnet().segment(me).read(gather + r * cl, tmp);
                        for (a, &x) in acc.iter_mut().zip(tmp.iter()) {
                            *a = combine(*a, x);
                        }
                    }
                    // Socket partials land in the node leader's DATA slots
                    // (GATHER still holds this socket's member slots).
                    if me != node_leader {
                        let s_idx = self.socket_index_in_node(me);
                        upc.memput(node_leader, data + s_idx * cl, acc);
                    }
                }
                self.node_barrier(upc);
                if me == node_leader {
                    let g = self.nodes.group_index_of(me);
                    for s_idx in 1..self.socket_leaders_by_node[g].len() {
                        upc.gasnet().segment(me).read(data + s_idx * cl, tmp);
                        for (a, &x) in acc.iter_mut().zip(tmp.iter()) {
                            *a = combine(*a, x);
                        }
                    }
                }
            } else {
                let r = my_node.rank_of(me).expect("member of own node group");
                if me != node_leader {
                    upc.memput(node_leader, gather + r * cl, chunk); // pshm
                }
                self.node_barrier(upc);
                if me == node_leader {
                    acc.copy_from_slice(chunk);
                    for r in 1..my_node.size() {
                        upc.gasnet().segment(me).read(gather + r * cl, tmp);
                        for (a, &x) in acc.iter_mut().zip(tmp.iter()) {
                            *a = combine(*a, x);
                        }
                    }
                }
            }
            emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
            // Inter: k-ary reduce tree to leader rank 0, then k-ary
            // broadcast of the total back over the leaders (via DATA).
            if let Some(lr) = lrank {
                emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTER), cl as u64);
                let mut spans = Vec::new();
                let mut s = 1;
                while s < grp {
                    spans.push(s);
                    s *= k;
                }
                for &span in spans.iter().rev() {
                    self.leaders.barrier(upc);
                    if lr >= span && lr < span * k {
                        let j = lr / span; // 1..k-1
                        let parent = self.leader_thread(lr % span);
                        upc.memput(parent, gather + (j - 1) * cl, acc);
                    }
                    self.leaders.barrier(upc);
                    if lr < span {
                        for j in 1..k {
                            if lr + j * span < grp {
                                upc.gasnet().segment(me).read(gather + (j - 1) * cl, tmp);
                                for (a, &x) in acc.iter_mut().zip(tmp.iter()) {
                                    *a = combine(*a, x);
                                }
                            }
                        }
                    }
                }
                if lr == 0 {
                    upc.gasnet().segment(me).write(data, acc);
                }
                let mut span = 1;
                let mut staged = lr == 0;
                if staged {
                    tmp.copy_from_slice(acc);
                }
                while span < grp {
                    self.leaders.barrier(upc);
                    if lr < span {
                        if !staged {
                            upc.gasnet().segment(me).read(data, tmp);
                            staged = true;
                        }
                        let mut hs = Vec::new();
                        for j in 1..k {
                            let t = lr + j * span;
                            if t < grp {
                                hs.push(upc.memput_nb(self.leader_thread(t), data, tmp));
                            }
                        }
                        for h in hs {
                            upc.wait_sync(h);
                        }
                    }
                    span *= k;
                }
                self.leaders.barrier(upc);
                upc.gasnet().segment(me).read(data, acc); // the total
                emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTER), 0);
            }
            self.node_barrier(upc);
            // Distribute the total back through shared memory.
            emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), cl as u64);
            if three {
                let sl = self.sockets.group_of(me).leader();
                if me == sl && me != node_leader {
                    upc.memget(node_leader, data, tmp);
                    upc.gasnet().segment(me).write(data, tmp);
                }
                self.sockets.group_of(me).barrier(upc);
                if me == node_leader {
                    chunk.copy_from_slice(acc);
                } else if me == sl {
                    upc.gasnet().segment(me).read(data, chunk);
                } else {
                    upc.memget(sl, data, chunk);
                }
            } else if me == node_leader {
                chunk.copy_from_slice(acc);
            } else {
                upc.memget(node_leader, data, chunk);
            }
            emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
            self.node_barrier(upc);
        }
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_OP), 0);
    }

    // ------------------------------------------------------------------
    // allgather
    // ------------------------------------------------------------------

    fn allgather_hier(&self, upc: &Upc<'_>, mine: &[u64], out: &mut [u64]) {
        let p = upc.threads();
        let me = upc.mythread();
        let b = mine.len();
        let (data, _) = upc.runtime().coll_scratch();
        let grp = self.nodes.len();
        let my_node = self.nodes.group_of(me).clone();
        let node_leader = my_node.leader();
        let g = self.nodes.group_index_of(me);
        let tag = |phase| {
            hupc_trace::coll::phase_tag(
                hupc_trace::coll::ALLGATHER,
                hupc_trace::coll::ALGO_TWO_LEVEL,
                phase,
            )
        };
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_OP), out.len() as u64);
        out[me * b..(me + 1) * b].copy_from_slice(mine);
        if p > 1 && b > 0 {
            // Intra: stage own block in own DATA, co-members pull it over
            // shared memory.
            emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), (my_node.size() * b) as u64);
            let mut lo = 0;
            while lo < b {
                let hi = (lo + HALF).min(b);
                upc.gasnet().segment(me).write(data, &mine[lo..hi]);
                self.node_barrier(upc);
                for &peer in my_node.members() {
                    if peer != me {
                        upc.memget(peer, data, &mut out[peer * b + lo..peer * b + hi]);
                    }
                }
                self.node_barrier(upc);
                lo = hi;
            }
            emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
            // Inter: store-and-forward ring over node leaders; each
            // received superblock piece is re-distributed inside the node
            // before the ring advances.
            if grp > 1 {
                emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTER), ((grp - 1) * self.node_size * b) as u64);
                let sb = self.node_size * b; // superblock words
                let right = self.leader_thread((g + 1) % grp);
                let mut buf = vec![0u64; sb.min(HALF)];
                for s in 1..grp {
                    let send_node = (g + grp + 1 - s) % grp;
                    let recv_node = (g + grp - s) % grp;
                    let send_members = self.nodes.groups()[send_node].members();
                    let recv_members = self.nodes.groups()[recv_node].members();
                    let mut lo = 0;
                    while lo < sb {
                        let hi = (lo + HALF).min(sb);
                        let piece = &mut buf[..hi - lo];
                        if me == node_leader {
                            gather_superblock(out, send_members, b, lo, hi, piece);
                            upc.memput(right, data, piece); // network
                            self.leaders.barrier(upc);
                        }
                        self.node_barrier(upc);
                        if me == node_leader {
                            upc.gasnet().segment(me).read(data, piece);
                        } else {
                            upc.memget(node_leader, data, piece); // pshm
                        }
                        scatter_superblock(piece, recv_members, b, lo, out);
                        self.node_barrier(upc);
                        if me == node_leader {
                            // Orders the next piece's put after every
                            // node's reads of this one.
                            self.leaders.barrier(upc);
                        }
                        lo = hi;
                    }
                }
                emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTER), 0);
            }
        }
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_OP), 0);
    }

    // ------------------------------------------------------------------
    // all-to-all
    // ------------------------------------------------------------------

    /// Whether the coalesced hierarchical exchange can run for this block
    /// size (staging reserved and large enough, and >1 node).
    fn exchange_ready(&self, block_words: usize) -> bool {
        self.nodes.len() > 1
            && self
                .staging
                .as_ref()
                .is_some_and(|s| block_words <= s.max_block_words && block_words > 0)
    }

    fn all_exchange_hier(
        &self,
        upc: &Upc<'_>,
        src_off: usize,
        dst_off: usize,
        bw: usize,
        _blocking: bool,
    ) {
        let me = upc.mythread();
        let grp = self.nodes.len();
        let m = self.node_size;
        let my_node = self.nodes.group_of(me).clone();
        let node_leader = my_node.leader();
        let r = my_node.rank_of(me).expect("member of own node group");
        let g = self.nodes.group_index_of(me);
        let stage = self.staging.as_ref().expect("exchange staging").arr.word_offset();
        let tag = |phase| {
            hupc_trace::coll::phase_tag(
                hupc_trace::coll::ALL_EXCHANGE,
                hupc_trace::coll::ALGO_TWO_LEVEL,
                phase,
            )
        };
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_OP), (upc.threads() * bw) as u64);
        // Intra: co-member blocks go straight to their destination over
        // shared memory (staggered start).
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTRA), (m * bw) as u64);
        for d in 0..m {
            let peer = my_node.thread_at((r + d) % m);
            upc.memcpy(peer, dst_off + me * bw, me, src_off + peer * bw, bw);
        }
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTRA), 0);
        // Inter: one coalesced message per remote node — all blocks for
        // that node's members, landed in its leader's staging slot for
        // this sender.
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_INTER), ((grp - 1) * m * bw) as u64);
        let mut buf = vec![0u64; m * bw];
        let mut hs = Vec::new();
        for d in 1..grp {
            let h = (g + d) % grp;
            let dest = self.nodes.groups()[h].members();
            for (i, &t) in dest.iter().enumerate() {
                upc.gasnet()
                    .segment(me)
                    .read(src_off + t * bw, &mut buf[i * bw..(i + 1) * bw]);
            }
            let leader_h = self.leader_thread(h);
            hs.push(upc.memput_nb(leader_h, stage + me * (m * bw), &buf));
        }
        for h in hs {
            upc.wait_sync(h);
        }
        upc.barrier();
        // Scatter: each thread pulls its own incoming blocks from its
        // leader's staging over shared memory.
        for d in 1..grp {
            let h = (g + d) % grp;
            for &t in self.nodes.groups()[h].members() {
                upc.memcpy(
                    me,
                    dst_off + t * bw,
                    node_leader,
                    stage + t * (m * bw) + r * bw,
                    bw,
                );
            }
        }
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_INTER), 0);
        // Staging must not be clobbered by a subsequent exchange while
        // anyone is still scattering.
        upc.barrier();
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_OP), 0);
    }

    // ------------------------------------------------------------------
    // barrier
    // ------------------------------------------------------------------

    fn staged_barrier_hier(&self, upc: &Upc<'_>) {
        let me = upc.mythread();
        let tag = |phase| {
            hupc_trace::coll::phase_tag(
                hupc_trace::coll::BARRIER,
                hupc_trace::coll::ALGO_TWO_LEVEL,
                phase,
            )
        };
        emit!(upc, CollBegin, tag(hupc_trace::coll::PHASE_OP), 0);
        self.node_barrier(upc);
        if self.leaders.rank_of(me).is_some() {
            self.leaders.barrier(upc);
        }
        self.node_barrier(upc);
        emit!(upc, CollEnd, tag(hupc_trace::coll::PHASE_OP), 0);
    }
}

/// The runs a superblock piece `[lo, hi)` is made of: the rank-ordered
/// concatenation of `members`' `b`-word blocks, cut at block boundaries.
/// Yields `(thread, offset in the thread's block, run length)`; the first
/// and last run are partial when the piece starts or ends mid-block.
fn superblock_runs(
    members: &[usize],
    b: usize,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let first = lo / b;
    members[first..hi.div_ceil(b)]
        .iter()
        .enumerate()
        .map(move |(i, &t)| {
            let start = ((first + i) * b).max(lo);
            let end = ((first + i + 1) * b).min(hi);
            (t, start % b, end - start)
        })
}

/// Piece `[lo, hi)` of the rank-ordered concatenation of `members`' blocks
/// in `out`, copied into `buf` one block run at a time.
fn gather_superblock(out: &[u64], members: &[usize], b: usize, lo: usize, hi: usize, buf: &mut [u64]) {
    let mut at = 0;
    for (t, off, len) in superblock_runs(members, b, lo, hi) {
        buf[at..at + len].copy_from_slice(&out[t * b + off..t * b + off + len]);
        at += len;
    }
}

/// Inverse of [`gather_superblock`].
fn scatter_superblock(buf: &[u64], members: &[usize], b: usize, lo: usize, out: &mut [u64]) {
    let mut at = 0;
    for (t, off, len) in superblock_runs(members, b, lo, lo + buf.len()) {
        out[t * b + off..t * b + off + len].copy_from_slice(&buf[at..at + len]);
        at += len;
    }
}

impl CollProvider for CollDomain {
    fn broadcast_words(&self, upc: &Upc<'_>, root: usize, words: &mut [u64]) {
        match self.algo_for(CollOp::Broadcast, words.len()) {
            CollAlgo::Flat => upc.broadcast_words_flat(root, words),
            algo => self.broadcast_hier(upc, root, words, algo),
        }
    }

    fn allreduce_word_vec(&self, upc: &Upc<'_>, vals: &mut [u64], combine: &(dyn Fn(u64, u64) -> u64 + Sync)) {
        match self.algo_for(CollOp::Allreduce, vals.len()) {
            CollAlgo::Flat => upc.allreduce_word_vec_flat(vals, combine),
            algo => self.allreduce_hier(upc, vals, combine, algo),
        }
    }

    fn allgather_words(&self, upc: &Upc<'_>, mine: &[u64], out: &mut [u64]) {
        match self.algo_for(CollOp::Allgather, out.len()) {
            CollAlgo::Flat => upc.allgather_words_flat(mine, out),
            _ => self.allgather_hier(upc, mine, out),
        }
    }

    fn all_exchange_words(&self, upc: &Upc<'_>, src_off: usize, dst_off: usize, block_words: usize, blocking: bool) {
        let algo = self.algo_for(CollOp::AllExchange, upc.threads() * block_words);
        if algo == CollAlgo::Flat || !self.exchange_ready(block_words) {
            upc.all_exchange_words_flat(src_off, dst_off, block_words, blocking);
        } else {
            self.all_exchange_hier(upc, src_off, dst_off, block_words, blocking);
        }
    }

    fn staged_barrier(&self, upc: &Upc<'_>) {
        match self.algo_for(CollOp::Barrier, 0) {
            CollAlgo::Flat => upc.barrier(),
            _ => self.staged_barrier_hier(upc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-word definition the block copies replaced; kept as the
    /// reference they are checked against.
    fn gather_per_word(out: &[u64], members: &[usize], b: usize, lo: usize, hi: usize, buf: &mut [u64]) {
        for (i, w) in (lo..hi).enumerate() {
            buf[i] = out[members[w / b] * b + (w % b)];
        }
    }

    fn scatter_per_word(buf: &[u64], members: &[usize], b: usize, lo: usize, out: &mut [u64]) {
        for (i, &x) in buf.iter().enumerate() {
            let w = lo + i;
            out[members[w / b] * b + (w % b)] = x;
        }
    }

    /// `m` distinct thread ids below `p`, ascending (a node group's members).
    fn pick_members(p: usize, m: usize, salt: u64) -> Vec<usize> {
        let mut all: Vec<usize> = (0..p).collect();
        let mut z = salt | 1;
        for i in (1..p).rev() {
            z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i as u64;
            all.swap(i, z as usize % (i + 1));
        }
        all.truncate(m);
        all.sort_unstable();
        all
    }

    /// Both directions against the per-word reference for one piece, plus
    /// the round trip.
    fn check_piece(members: &[usize], p: usize, b: usize, lo: usize, hi: usize) {
        let out: Vec<u64> = (0..(p * b) as u64).map(|w| w * 7 + 1).collect();
        let mut got = vec![0u64; hi - lo];
        let mut want = vec![0u64; hi - lo];
        gather_superblock(&out, members, b, lo, hi, &mut got);
        gather_per_word(&out, members, b, lo, hi, &mut want);
        assert_eq!(got, want, "gather [{lo},{hi}) b={b} members={members:?}");

        let piece: Vec<u64> = (0..(hi - lo) as u64).map(|i| !i).collect();
        let mut got = out.clone();
        let mut want = out.clone();
        scatter_superblock(&piece, members, b, lo, &mut got);
        scatter_per_word(&piece, members, b, lo, &mut want);
        assert_eq!(got, want, "scatter [{lo},{hi}) b={b} members={members:?}");

        let mut back = vec![0u64; hi - lo];
        gather_superblock(&got, members, b, lo, hi, &mut back);
        assert_eq!(back, piece, "gather after scatter is the identity");
    }

    #[test]
    fn superblock_copies_match_per_word_at_the_edges() {
        let members = [1, 4, 6];
        for b in [1, 3, 8] {
            let sb = members.len() * b;
            for lo in 0..=sb {
                for hi in lo..=sb {
                    check_piece(&members, 8, b, lo, hi);
                }
            }
        }
    }

    #[test]
    fn superblock_copies_match_per_word_across_half_chunks() {
        // The ring's own chunking: a superblock larger than HALF, cut into
        // HALF-word pieces that start and end mid-block.
        let members = pick_members(12, 5, 3);
        let b = HALF / 2 + 37;
        let sb = members.len() * b;
        let mut lo = 0;
        while lo < sb {
            let hi = (lo + HALF).min(sb);
            check_piece(&members, 12, b, lo, hi);
            lo = hi;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn superblock_copies_match_per_word(
            p in 1usize..24,
            b in 1usize..40,
            salt in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let m = 1 + salt as usize % p;
            let members = pick_members(p, m, salt);
            let sb = m * b;
            let lo = cut as usize % (sb + 1);
            let hi = lo + (cut >> 32) as usize % (sb - lo + 1);
            check_piece(&members, p, b, lo, hi);
        }
    }
}
