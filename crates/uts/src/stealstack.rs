//! The shared steal-stack: each thread's stealable work region in the PGAS.
//!
//! Layout of each thread's chunk (thesis §3.3.2: "each thread maintains a
//! steal-stack residing in the UPC shared memory"):
//!
//! ```text
//! word 0            : workavail (nodes currently stealable)
//! words META..      : node slots, 3 words each, `[0, workavail)` live
//! ```
//!
//! The owner moves work between its private stack and this region in bulk,
//! owner-local and uncharged: one segment borrow per `release`/`reacquire`.
//! Thieves probe `workavail` with a one-word get and transfer nodes under
//! the owner's lock through the one-sided paths, so probe and steal costs
//! follow the conduit (Fig 3.3's IB-vs-Ethernet contrast comes from these).

use hupc_upc::{CommError, SharedArray, Upc, UpcLock};

use crate::tree::Node;

/// Words of metadata before the node slots.
const META: usize = 4;

/// The steal-stack region handle (one region per thread, symmetric).
#[derive(Clone, Copy, Debug)]
pub struct StealStacks {
    arr: SharedArray<u64>,
    /// Capacity in nodes of each thread's stealable region.
    cap: usize,
}

impl StealStacks {
    /// Allocate regions for all threads plus one lock per thread. Call on
    /// the job before running; pass the returned handle into the SPMD body.
    pub fn allocate(job: &hupc_upc::UpcJob, cap: usize) -> (StealStacks, Vec<UpcLock>) {
        let threads = job.gasnet().n_threads();
        let words_per = META + cap * Node::WORDS;
        let arr = job.alloc_shared::<u64>(words_per * threads, words_per);
        let locks = (0..threads).map(|t| job.alloc_lock_at(t)).collect();
        (
            StealStacks { arr, cap },
            locks,
        )
    }

    /// Capacity in nodes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn avail_word(&self) -> usize {
        self.arr.word_offset()
    }

    fn slot_word(&self, i: usize) -> usize {
        self.arr.word_offset() + META + i * Node::WORDS
    }

    // ----- owner-side (local, cheap) ----------------------------------------

    /// Owner: current stealable count (direct read).
    pub fn my_avail(&self, upc: &Upc<'_>) -> usize {
        upc.gasnet()
            .segment(upc.mythread())
            .read_word(self.avail_word()) as usize
    }

    /// Owner: one exclusive borrow of the own chunk, `workavail` at index 0.
    fn with_own_chunk<R>(&self, upc: &Upc<'_>, f: impl FnOnce(&mut [u64]) -> R) -> R {
        let seg = upc.gasnet().segment(upc.mythread());
        seg.with_range_mut(self.avail_word(), META + self.cap * Node::WORDS, f)
    }

    /// Owner: append `nodes` to the stealable region (hold the own lock).
    /// Returns how many were placed: the first ones, up to capacity.
    pub fn release<'n>(
        &self,
        upc: &Upc<'_>,
        nodes: impl ExactSizeIterator<Item = &'n Node>,
    ) -> usize {
        self.with_own_chunk(upc, |chunk| {
            let avail = chunk[0] as usize;
            let take = nodes.len().min(self.cap - avail);
            let free = &mut chunk[META + avail * Node::WORDS..];
            for (slot, n) in free.chunks_exact_mut(Node::WORDS).zip(nodes) {
                slot.copy_from_slice(&n.to_words());
            }
            chunk[0] = (avail + take) as u64;
            take
        })
    }

    /// Owner: reclaim all stealable nodes back to the private stack (hold
    /// the own lock).
    pub fn reacquire(&self, upc: &Upc<'_>, out: &mut Vec<Node>) -> usize {
        self.with_own_chunk(upc, |chunk| {
            let avail = chunk[0] as usize;
            let live = &chunk[META..META + avail * Node::WORDS];
            out.extend(live.chunks_exact(Node::WORDS).map(Node::from_words));
            chunk[0] = 0;
            avail
        })
    }

    // ----- thief-side (remote, charged) ---------------------------------------

    /// Thief: probe `victim`'s stealable count (one-word one-sided read).
    pub fn probe(&self, upc: &Upc<'_>, victim: usize) -> usize {
        self.try_probe(upc, victim).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible probe: surfaces the retry-budget failure instead of
    /// panicking, so a thief facing an unreachable victim can move on to
    /// the next one.
    pub fn try_probe(&self, upc: &Upc<'_>, victim: usize) -> Result<usize, CommError> {
        let mut w = [0u64];
        upc.try_memget(victim, self.avail_word(), &mut w)?;
        Ok(w[0] as usize)
    }

    /// Thief: transfer up to `want` nodes from `victim` (caller must hold
    /// the victim's lock). Returns the stolen nodes (possibly empty if the
    /// region drained between probe and lock).
    pub fn steal_locked(&self, upc: &Upc<'_>, victim: usize, want: usize) -> Vec<Node> {
        self.try_steal_locked(upc, victim, want)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible transfer (caller must hold the victim's lock).
    ///
    /// The two reads are side-effect free in the data plane, so an error
    /// there aborts cleanly with the victim's region untouched. The final
    /// counter write-back is the commit point: the segment write lands
    /// even when its modeled delivery exhausts the retry budget, so once
    /// the reads succeeded the transfer is kept — abandoning the nodes at
    /// that point would drop real work from the tree. A lost write-back
    /// acknowledgement therefore only costs (a lot of) virtual time.
    pub fn try_steal_locked(
        &self,
        upc: &Upc<'_>,
        victim: usize,
        want: usize,
    ) -> Result<Vec<Node>, CommError> {
        let mut w = [0u64];
        upc.try_memget(victim, self.avail_word(), &mut w)?;
        let avail = w[0] as usize;
        let take = want.min(avail);
        if take == 0 {
            return Ok(Vec::new());
        }
        let from = avail - take;
        let mut words = vec![0u64; take * Node::WORDS];
        upc.try_memget(victim, self.slot_word(from), &mut words)?;
        let _ = upc.try_memput(victim, self.avail_word(), &[from as u64]);
        Ok(words
            .chunks_exact(Node::WORDS)
            .map(Node::from_words)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use hupc_upc::{UpcConfig, UpcJob};
    use proptest::prelude::*;

    fn root_kids(seed: u32) -> Vec<Node> {
        let p = TreeParams::small_binomial(seed);
        let mut kids = Vec::new();
        p.expand(&p.root(), |k| kids.push(k)); // 60 children
        kids
    }

    #[test]
    fn release_reacquire_round_trip() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        let (stacks, locks) = StealStacks::allocate(&job, 64);
        job.run(move |upc| {
            if upc.mythread() == 0 {
                let kids = root_kids(1);
                let n = kids.len().min(10);
                locks[0].lock(&upc);
                let placed = stacks.release(&upc, kids[..n].iter());
                assert_eq!(placed, n);
                assert_eq!(stacks.my_avail(&upc), n);
                let mut back = Vec::new();
                let got = stacks.reacquire(&upc, &mut back);
                assert_eq!(got, n);
                assert_eq!(back, kids[..n].to_vec());
                assert_eq!(stacks.my_avail(&upc), 0);
                locks[0].unlock(&upc);
            }
        });
    }

    #[test]
    fn capacity_bounds_release() {
        let job = UpcJob::new(UpcConfig::test_default(1, 1));
        let (stacks, locks) = StealStacks::allocate(&job, 4);
        job.run(move |upc| {
            let kids = root_kids(2);
            locks[0].lock(&upc);
            let placed = stacks.release(&upc, kids.iter());
            assert_eq!(placed, 4);
            let more = stacks.release(&upc, kids.iter());
            assert_eq!(more, 0);
            locks[0].unlock(&upc);
        });
    }

    #[test]
    fn thief_steals_from_the_top() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        let (stacks, locks) = StealStacks::allocate(&job, 64);
        job.run(move |upc| {
            let kids = root_kids(3);
            let kids = &kids[..8];
            if upc.mythread() == 0 {
                locks[0].lock(&upc);
                stacks.release(&upc, kids.iter());
                locks[0].unlock(&upc);
            }
            upc.barrier();
            if upc.mythread() == 1 {
                assert_eq!(stacks.probe(&upc, 0), 8);
                locks[0].lock(&upc);
                let stolen = stacks.steal_locked(&upc, 0, 3);
                locks[0].unlock(&upc);
                assert_eq!(stolen, kids[5..8].to_vec());
                assert_eq!(stacks.probe(&upc, 0), 5);
            }
            upc.barrier();
        });
    }

    #[test]
    fn steal_more_than_available_takes_all() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        let (stacks, locks) = StealStacks::allocate(&job, 16);
        job.run(move |upc| {
            let kids = root_kids(4);
            if upc.mythread() == 0 {
                locks[0].lock(&upc);
                stacks.release(&upc, kids[..5].iter());
                locks[0].unlock(&upc);
            }
            upc.barrier();
            if upc.mythread() == 1 {
                locks[0].lock(&upc);
                let stolen = stacks.steal_locked(&upc, 0, 100);
                locks[0].unlock(&upc);
                assert_eq!(stolen.len(), 5);
                assert_eq!(stacks.probe(&upc, 0), 0);
            }
            upc.barrier();
        });
    }

    /// Node number `k`, recognisable in every word.
    fn numbered(k: u64) -> Node {
        Node::from_words(&[k, !k, k])
    }

    /// Thread 0's stealable region as its segment holds it, bottom first.
    fn region(stacks: &StealStacks, upc: &Upc<'_>) -> Vec<Node> {
        let seg = upc.gasnet().segment(0);
        let avail = seg.read_word(stacks.avail_word()) as usize;
        seg.with_range(stacks.slot_word(0), avail * Node::WORDS, |w| {
            w.chunks_exact(Node::WORDS).map(Node::from_words).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Thread 0 releases and reacquires, thread 1 steals, in a drawn
        /// order, at capacities small enough to fill: the region and every
        /// transfer match a `Vec<Node>` model, order and capacity clamp
        /// included.
        #[test]
        fn transfers_match_a_vec_model(
            cap in 1usize..10,
            ops in prop::collection::vec(any::<u64>(), 1..40),
        ) {
            let job = UpcJob::new(UpcConfig::test_default(2, 1));
            let (stacks, locks) = StealStacks::allocate(&job, cap);
            job.run(move |upc| {
                let me = upc.mythread();
                // Both threads step the same model; the one whose turn it
                // is runs the real operation and checks it.
                let mut model: Vec<Node> = Vec::new();
                let mut next = 0u64;
                for &op in &ops {
                    let k = (op >> 8) as usize % (cap + 3);
                    match op % 3 {
                        0 => {
                            let fresh: Vec<Node> = (next..next + k as u64).map(numbered).collect();
                            next += k as u64;
                            let placed = k.min(cap - model.len());
                            model.extend_from_slice(&fresh[..placed]);
                            if me == 0 {
                                locks[0].lock(&upc);
                                prop_assert_eq!(stacks.release(&upc, fresh.iter()), placed);
                                locks[0].unlock(&upc);
                            }
                        }
                        1 => {
                            let want = model.split_off(model.len() - k.min(model.len()));
                            if me == 1 {
                                locks[0].lock(&upc);
                                prop_assert_eq!(stacks.steal_locked(&upc, 0, k), want);
                                locks[0].unlock(&upc);
                            }
                        }
                        _ => {
                            let want = std::mem::take(&mut model);
                            if me == 0 {
                                let mut back = Vec::new();
                                locks[0].lock(&upc);
                                prop_assert_eq!(stacks.reacquire(&upc, &mut back), want.len());
                                locks[0].unlock(&upc);
                                prop_assert_eq!(back, want);
                            }
                        }
                    }
                    upc.barrier();
                    if me == 0 {
                        prop_assert_eq!(region(&stacks, &upc), model.clone());
                    }
                }
            });
        }
    }
}
