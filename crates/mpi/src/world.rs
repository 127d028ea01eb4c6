//! Ranks, mailboxes, point-to-point matching, and collectives.

use std::collections::VecDeque;
use std::sync::Arc;

use hupc_gasnet::{Gasnet, GasnetConfig};
use hupc_sim::{time, CompletionId, CondId, Ctx, SimCell, Simulation, SimulationStats, Time};

/// Receiver-side software cost per matched message (tag matching, unpacking
/// — the two-sided overhead one-sided puts avoid).
const RECV_MATCH_COST: Time = time::ns(600);

struct Envelope {
    src: usize,
    tag: u64,
    data: Vec<u64>,
    /// Fires when the payload has physically arrived.
    arrival: CompletionId,
}

struct Mailbox {
    q: SimCell<VecDeque<Envelope>>,
    cond: CondId,
}

/// A communicator over all ranks (MPI_COMM_WORLD).
pub struct MpiWorld {
    gasnet: Arc<Gasnet>,
    boxes: Vec<Mailbox>,
}

impl MpiWorld {
    /// Build a world with one rank per configured thread (MPI runs one
    /// process per core, i.e. the plain process backend).
    pub fn new(sim: &mut Simulation, cfg: GasnetConfig) -> Arc<MpiWorld> {
        let gasnet = Gasnet::new(sim, cfg);
        let mut k = sim.kernel();
        let boxes = (0..gasnet.n_threads())
            .map(|_| Mailbox {
                q: SimCell::new(VecDeque::new()),
                cond: k.new_cond(),
            })
            .collect();
        drop(k);
        Arc::new(MpiWorld { gasnet, boxes })
    }

    pub fn size(&self) -> usize {
        self.gasnet.n_threads()
    }

    pub fn gasnet(&self) -> &Arc<Gasnet> {
        &self.gasnet
    }
}

/// A job being configured (mirror of `hupc_upc::UpcJob`).
pub struct MpiJob {
    sim: Simulation,
    world: Arc<MpiWorld>,
}

impl MpiJob {
    pub fn new(cfg: GasnetConfig) -> Self {
        let mut sim = Simulation::new();
        let world = MpiWorld::new(&mut sim, cfg);
        MpiJob { sim, world }
    }

    pub fn world(&self) -> &Arc<MpiWorld> {
        &self.world
    }

    /// Run the SPMD body on every rank.
    pub fn run<F>(mut self, body: F) -> SimulationStats
    where
        F: for<'a> Fn(Mpi<'a>) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        for r in 0..self.world.size() {
            let world = Arc::clone(&self.world);
            let body = Arc::clone(&body);
            self.sim.spawn(format!("rank{r}"), move |ctx| {
                body(Mpi {
                    ctx,
                    world,
                    rank: r,
                });
            });
        }
        self.sim.run()
    }
}

/// Per-rank view (what `MPI_Comm_rank` etc. expose).
pub struct Mpi<'a> {
    ctx: &'a Ctx,
    world: Arc<MpiWorld>,
    rank: usize,
}

impl<'a> Mpi<'a> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.world.size()
    }

    pub fn ctx(&self) -> &'a Ctx {
        self.ctx
    }

    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// The platform underneath (compute charging, topology queries).
    pub fn gasnet(&self) -> &Arc<hupc_gasnet::Gasnet> {
        &self.world.gasnet
    }

    /// Blocking eager send (returns when the local buffer is reusable).
    pub fn send(&self, dst: usize, tag: u64, data: &[u64]) {
        let bytes = data.len() * hupc_gasnet::WORD_BYTES + 64; // header
        self.send_inner(dst, tag, data.to_vec(), bytes);
    }

    /// Charge-only send: a message of `payload_bytes` with empty contents
    /// (cost-model runs of large workloads).
    pub fn send_sized(&self, dst: usize, tag: u64, payload_bytes: usize) {
        self.send_inner(dst, tag, Vec::new(), payload_bytes + 64);
    }

    fn send_inner(&self, dst: usize, tag: u64, data: Vec<u64>, bytes: usize) {
        assert_ne!(dst, self.rank, "self-sends not supported");
        let h = self
            .world
            .gasnet
            .transfer_nb(self.ctx, self.rank, dst, bytes);
        self.world.boxes[dst].q.with_mut(|q| {
            q.push_back(Envelope {
                src: self.rank,
                tag,
                data,
                arrival: h.remote,
            })
        });
        self.ctx.cond_notify_all(self.world.boxes[dst].cond);
        // Eager protocol: sender resumes once the data left its buffer.
        self.ctx.wait(h.local);
    }

    /// Blocking receive matching `(src, tag)`.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u64> {
        let mbox = &self.world.boxes[self.rank];
        loop {
            let hit = mbox.q.with_mut(|q| {
                q.iter()
                    .position(|e| e.src == src && e.tag == tag)
                    .map(|i| q.remove(i).expect("position just found"))
            });
            if let Some(env) = hit {
                self.ctx.wait(env.arrival);
                self.ctx.advance(RECV_MATCH_COST);
                return env.data;
            }
            self.ctx.cond_wait(mbox.cond);
        }
    }

    /// Barrier over all ranks.
    pub fn barrier(&self) {
        self.world.gasnet.barrier(self.ctx, self.rank);
    }

    /// Optimized all-to-all (pairwise-exchange schedule, posted
    /// non-blocking): step `s` targets rank `r ^ s` (power-of-two sizes) or
    /// the ring partner; all sends are posted eagerly before draining the
    /// receives, as tuned MPI libraries do for mid-size payloads.
    /// `blocks[j]` is the payload for rank `j`; returns the received blocks
    /// indexed by source rank.
    pub fn alltoall(&self, blocks: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "need one block per rank");
        let me = self.rank;
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
        out[me] = blocks[me].clone();
        let pow2 = p.is_power_of_two();
        let partner = |s: usize| if pow2 { me ^ s } else { (me + s) % p };
        let source = |s: usize| if pow2 { me ^ s } else { (me + p - s) % p };
        for s in 1..p {
            self.send(partner(s), s as u64, &blocks[partner(s)]);
        }
        for s in 1..p {
            out[source(s)] = self.recv(source(s), s as u64);
        }
        self.barrier();
        out
    }

    /// Charge-only all-to-all with `bytes_per_block` payloads (same schedule
    /// as [`Mpi::alltoall`], no data).
    pub fn alltoall_sized(&self, bytes_per_block: usize) {
        let p = self.size();
        let me = self.rank;
        let pow2 = p.is_power_of_two();
        let partner = |s: usize| if pow2 { me ^ s } else { (me + s) % p };
        let source = |s: usize| if pow2 { me ^ s } else { (me + p - s) % p };
        for s in 1..p {
            self.send_sized(partner(s), s as u64, bytes_per_block);
        }
        for s in 1..p {
            let _ = self.recv(source(s), s as u64);
        }
        self.barrier();
    }

    /// Sum-allreduce of one f64 (gather to rank 0, broadcast back).
    pub fn allreduce_sum_f64(&self, v: f64) -> f64 {
        let p = self.size();
        if p == 1 {
            return v;
        }
        if self.rank == 0 {
            let mut acc = v;
            for src in 1..p {
                let d = self.recv(src, u64::MAX);
                acc += f64::from_bits(d[0]);
            }
            for dst in 1..p {
                self.send(dst, u64::MAX - 1, &[acc.to_bits()]);
            }
            acc
        } else {
            self.send(0, u64::MAX, &[v.to_bits()]);
            f64::from_bits(self.recv(0, u64::MAX - 1)[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(ranks: usize, nodes: usize) -> MpiJob {
        MpiJob::new(GasnetConfig::test_default(ranks, nodes))
    }

    #[test]
    fn ping_pong_moves_data_and_time() {
        job(2, 2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 7, &[10, 20, 30]);
                let back = mpi.recv(1, 8);
                assert_eq!(back, vec![60]);
                assert!(mpi.now() > time::us(4), "round trip {}", mpi.now());
            } else {
                let d = mpi.recv(0, 7);
                mpi.send(0, 8, &[d.iter().sum::<u64>()]);
            }
        });
    }

    #[test]
    fn tag_matching_is_selective() {
        job(2, 1).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, &[111]);
                mpi.send(1, 2, &[222]);
            } else {
                // receive out of order: tag 2 first
                assert_eq!(mpi.recv(0, 2), vec![222]);
                assert_eq!(mpi.recv(0, 1), vec![111]);
            }
        });
    }

    #[test]
    fn alltoall_power_of_two() {
        job(4, 2).run(|mpi| {
            let me = mpi.rank() as u64;
            let blocks: Vec<Vec<u64>> = (0..4).map(|j| vec![me * 10 + j as u64]).collect();
            let got = mpi.alltoall(&blocks);
            for (src, blk) in got.iter().enumerate() {
                assert_eq!(blk, &vec![src as u64 * 10 + me]);
            }
        });
    }

    #[test]
    fn alltoall_non_power_of_two() {
        job(3, 1).run(|mpi| {
            let me = mpi.rank() as u64;
            let blocks: Vec<Vec<u64>> = (0..3).map(|j| vec![me * 100 + j as u64, me]).collect();
            let got = mpi.alltoall(&blocks);
            for (src, blk) in got.iter().enumerate() {
                assert_eq!(blk, &vec![src as u64 * 100 + me, src as u64]);
            }
        });
    }

    #[test]
    fn allreduce_sums() {
        job(4, 2).run(|mpi| {
            let s = mpi.allreduce_sum_f64((mpi.rank() + 1) as f64);
            assert!((s - 10.0).abs() < 1e-12);
        });
    }

    #[test]
    fn recv_blocks_until_sender_arrives() {
        job(2, 2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.ctx().advance(time::ms(5));
                mpi.send(1, 0, &[1]);
            } else {
                let _ = mpi.recv(0, 0);
                assert!(mpi.now() >= time::ms(5));
            }
        });
    }
}
