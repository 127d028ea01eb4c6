//! Collective operations: broadcast, reductions, allgather, and all-to-all
//! exchange.
//!
//! UPC 1.2 ships these in `upc_collective.h`; the thesis additionally leans
//! on hand-written point-to-point exchanges (its FT all-to-all). Here the
//! collectives are built from the same one-sided primitives a UPC programmer
//! would use, so their modeled cost is the sum of the underlying puts/gets
//! plus barriers.
//!
//! Every public entry point first consults the job's installed
//! [`CollProvider`](crate::CollProvider) (the seam `hupc-coll` plugs its
//! topology-aware hierarchical algorithms into) and otherwise falls back to
//! the flat `*_flat` reference algorithms below. The flat algorithms pipeline
//! payloads through the segment scratch region in `SCRATCH_WORDS / 2`-word
//! chunks, so arbitrarily large payloads work — the scratch ceiling is a
//! pipeline depth, not a hard limit.

use crate::elem::PgasElem;
use crate::runtime::{Upc, SCRATCH_WORDS};
use crate::shared::SharedArray;

/// Pipeline chunk for flat collectives: half the scratch region (the other
/// half is the reduction gather area).
const HALF: usize = SCRATCH_WORDS / 2;

impl<'a> Upc<'a> {
    /// Broadcast `words` from `root` to every thread (in place). Delegates
    /// to the installed collective provider if any, else runs the flat
    /// binomial tree.
    pub fn broadcast_words(&self, root: usize, words: &mut [u64]) {
        if let Some(p) = self.runtime().coll_provider().cloned() {
            p.broadcast_words(self, root, words);
            return;
        }
        self.broadcast_words_flat(root, words);
    }

    /// The flat reference broadcast: a single topology-blind binomial tree,
    /// log₂(THREADS) rounds of puts with one barrier per round, pipelined
    /// through the scratch region in `SCRATCH_WORDS / 2`-word chunks.
    pub fn broadcast_words_flat(&self, root: usize, words: &mut [u64]) {
        let p = self.threads();
        let me = self.mythread();
        self.ctx().trace_emit(
            hupc_trace::EventKind::CollBegin,
            hupc_trace::coll::BROADCAST,
            words.len() as u64,
        );
        let scratch = self.runtime().scratch_off;
        // Rotate ranks so root is rank 0.
        let rel = (me + p - root) % p;
        // One reusable bounce buffer for the whole tree (hoisted out of the
        // round loop: senders re-read identical scratch contents each round).
        let mut buf = vec![0u64; words.len().min(HALF)];
        let nchunks = words.len().div_ceil(HALF).max(1);
        for c in 0..nchunks {
            let lo = c * HALF;
            let hi = ((c + 1) * HALF).min(words.len());
            let chunk = &mut words[lo..hi];
            if rel == 0 {
                self.gasnet().segment(me).write(scratch, chunk);
            }
            let mut staged = false;
            let mut stride = 1;
            while stride < p {
                self.barrier();
                if rel < stride && rel + stride < p {
                    let target = (root + rel + stride) % p;
                    let b = &mut buf[..chunk.len()];
                    if !staged {
                        self.gasnet().segment(me).read(scratch, b);
                        staged = true;
                    }
                    self.memput(target, scratch, b);
                }
                stride <<= 1;
            }
            self.barrier();
            self.gasnet().segment(me).read(scratch, chunk);
        }
        self.ctx()
            .trace_emit(hupc_trace::EventKind::CollEnd, hupc_trace::coll::BROADCAST, 0);
    }

    /// Broadcast one word from `root`.
    pub fn broadcast_word(&self, root: usize, v: u64) -> u64 {
        let mut w = [v];
        self.broadcast_words(root, &mut w);
        w[0]
    }

    /// All-reduce a word with a combining function (must be associative and
    /// commutative).
    pub fn allreduce_words<F>(&self, v: u64, combine: F) -> u64
    where
        F: Fn(u64, u64) -> u64 + Sync,
    {
        let mut vals = [v];
        self.allreduce_word_vec(&mut vals, &combine);
        vals[0]
    }

    /// Element-wise all-reduce of a word vector (in place) with a combining
    /// function. Delegates to the installed provider if any.
    pub fn allreduce_word_vec(&self, vals: &mut [u64], combine: &(dyn Fn(u64, u64) -> u64 + Sync)) {
        if let Some(p) = self.runtime().coll_provider().cloned() {
            p.allreduce_word_vec(self, vals, combine);
            return;
        }
        self.allreduce_word_vec_flat(vals, combine);
    }

    /// The flat reference all-reduce, element by element: each element is a
    /// gather of `THREADS` words into thread 0 — pipelined through the
    /// gather half of the scratch region in waves when `THREADS` exceeds it
    /// — combined at the root in rank order, then broadcast back.
    pub fn allreduce_word_vec_flat(
        &self,
        vals: &mut [u64],
        combine: &(dyn Fn(u64, u64) -> u64 + Sync),
    ) {
        for v in vals.iter_mut() {
            *v = self.allreduce_word_flat_with(*v, |acc, x| match acc {
                None => Some(x),
                Some(a) => Some(combine(a, x)),
            });
        }
    }

    /// Gather-to-root scaffolding shared by the integer and float flat
    /// reductions: `fold` sees every thread's word in ascending rank order
    /// (`None` accumulator on the first) and the final accumulator is
    /// broadcast. Waves of `SCRATCH_WORDS / 2` threads keep the gather
    /// region bounded for any `THREADS`.
    fn allreduce_word_flat_with<A>(&self, v: u64, fold: impl Fn(Option<A>, u64) -> Option<A>) -> u64
    where
        A: Into<u64> + Copy,
    {
        let p = self.threads();
        let me = self.mythread();
        self.ctx()
            .trace_emit(hupc_trace::EventKind::CollBegin, hupc_trace::coll::ALLREDUCE, 1);
        let gather = self.runtime().scratch_off + HALF;
        let waves = p.div_ceil(HALF);
        let mut acc: Option<A> = None;
        for w in 0..waves {
            if w > 0 {
                // Guard gather-slot reuse: the root's untimed read of wave
                // w-1 must precede wave w's puts.
                self.barrier();
            }
            let lo = w * HALF;
            let hi = ((w + 1) * HALF).min(p);
            if (lo..hi).contains(&me) {
                self.memput(0, gather + (me - lo), &[v]);
            }
            self.barrier();
            if me == 0 {
                let mut all = vec![0u64; hi - lo];
                self.gasnet().segment(0).read(gather, &mut all);
                for &x in &all {
                    acc = fold(acc, x);
                }
            }
        }
        let result = acc.map(Into::into).unwrap_or(0);
        let r = self.broadcast_word(0, result);
        self.ctx()
            .trace_emit(hupc_trace::EventKind::CollEnd, hupc_trace::coll::ALLREDUCE, 0);
        r
    }

    /// All-reduce an `f64` sum.
    pub fn allreduce_sum_f64(&self, v: f64) -> f64 {
        if let Some(p) = self.runtime().coll_provider().cloned() {
            let mut vals = [v.to_bits()];
            p.allreduce_word_vec(self, &mut vals, &|a, b| {
                (f64::from_bits(a) + f64::from_bits(b)).to_bits()
            });
            return f64::from_bits(vals[0]);
        }
        // Flat path: gather raw bits; combine as floats at the root in rank
        // order (starting from 0.0, like `iter().sum()`) for determinism.
        #[derive(Clone, Copy)]
        struct Bits(f64);
        impl From<Bits> for u64 {
            fn from(b: Bits) -> u64 {
                b.0.to_bits()
            }
        }
        let r = self.allreduce_word_flat_with(v.to_bits(), |acc, x| {
            let a = acc.map(|Bits(a)| a).unwrap_or(0.0);
            Some(Bits(a + f64::from_bits(x)))
        });
        f64::from_bits(r)
    }

    /// Element-wise all-reduce of an `f64` vector (in place), summed in
    /// rank order per element for determinism. One provider call for the
    /// whole vector, so hierarchical algorithms amortize their staging.
    pub fn allreduce_sum_f64_vec(&self, vals: &mut [f64]) {
        let mut bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        self.allreduce_word_vec(&mut bits, &|a, b| {
            (f64::from_bits(a) + f64::from_bits(b)).to_bits()
        });
        for (v, b) in vals.iter_mut().zip(&bits) {
            *v = f64::from_bits(*b);
        }
    }

    /// All-reduce a `u64` sum.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        self.allreduce_words(v, |a, b| a.wrapping_add(b))
    }

    /// All-reduce a `u64` max.
    pub fn allreduce_max_u64(&self, v: u64) -> u64 {
        self.allreduce_words(v, u64::max)
    }

    /// Allgather: every thread contributes `mine` (equal length everywhere);
    /// `out` (length `THREADS * mine.len()`) receives every thread's block
    /// in thread order. Delegates to the installed provider if any.
    pub fn allgather_words(&self, mine: &[u64], out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.threads() * mine.len(),
            "allgather out must hold THREADS blocks"
        );
        if let Some(p) = self.runtime().coll_provider().cloned() {
            p.allgather_words(self, mine, out);
            return;
        }
        self.allgather_words_flat(mine, out);
    }

    /// The flat reference allgather: a store-and-forward ring over all
    /// threads (`THREADS - 1` steps, one global barrier per step·chunk),
    /// double-buffered through the scratch region so a step's put never
    /// races the previous step's read.
    pub fn allgather_words_flat(&self, mine: &[u64], out: &mut [u64]) {
        let p = self.threads();
        let me = self.mythread();
        let b = mine.len();
        assert_eq!(out.len(), p * b);
        self.ctx().trace_emit(
            hupc_trace::EventKind::CollBegin,
            hupc_trace::coll::ALLGATHER,
            out.len() as u64,
        );
        out[me * b..(me + 1) * b].copy_from_slice(mine);
        if p > 1 && b > 0 {
            let scratch = self.runtime().scratch_off;
            let slot_words = HALF / 2;
            let right = (me + 1) % p;
            let mut buf = vec![0u64; b.min(slot_words)];
            let mut iter = 0usize;
            for s in 1..p {
                let send_of = (me + p + 1 - s) % p; // forwarded block owner
                let recv_of = (me + p - s) % p;
                let mut lo = 0;
                while lo < b {
                    let hi = (lo + slot_words).min(b);
                    let piece = &mut buf[..hi - lo];
                    piece.copy_from_slice(&out[send_of * b + lo..send_of * b + hi]);
                    let slot = scratch + (iter % 2) * slot_words;
                    self.memput(right, slot, piece);
                    self.barrier();
                    self.gasnet()
                        .segment(me)
                        .read(slot, &mut out[recv_of * b + lo..recv_of * b + hi]);
                    iter += 1;
                    lo = hi;
                }
            }
            // Synchronizing collective: nobody may reuse the scratch slots
            // until every thread has taken its final read.
            self.barrier();
        }
        self.ctx()
            .trace_emit(hupc_trace::EventKind::CollEnd, hupc_trace::coll::ALLGATHER, 0);
    }

    /// Group-staged barrier: arrives intra-group, synchronizes leaders over
    /// the network, then releases intra-group. Falls back to the ordinary
    /// flat barrier when no provider is installed.
    pub fn staged_barrier(&self) {
        if let Some(p) = self.runtime().coll_provider().cloned() {
            p.staged_barrier(self);
            return;
        }
        self.barrier();
    }

    /// All-to-all exchange (`upc_all_exchange`): every thread's local chunk
    /// of `src` holds `THREADS` blocks of `count` elements; block `j` lands
    /// in `dst`'s chunk on thread `j` at block position `MYTHREAD`.
    ///
    /// `blocking` selects per-put blocking (split-phase style) vs issuing
    /// all puts non-blocking and draining at the end.
    pub fn all_exchange<T: PgasElem>(
        &self,
        src: SharedArray<T>,
        dst: SharedArray<T>,
        count: usize,
        blocking: bool,
    ) {
        let p = self.threads();
        assert!(src.per_thread_elems() >= p * count, "src chunk too small");
        assert!(dst.per_thread_elems() >= p * count, "dst chunk too small");
        let block_words = count * T::WORDS;
        self.all_exchange_words(src.word_offset(), dst.word_offset(), block_words, blocking);
    }

    /// Word-level all-to-all over symmetric offsets: thread `me`'s block for
    /// thread `j` lives at `src_off + j*block_words` and lands at
    /// `dst_off + me*block_words` in `j`'s segment. Delegates to the
    /// installed provider if any.
    pub fn all_exchange_words(
        &self,
        src_off: usize,
        dst_off: usize,
        block_words: usize,
        blocking: bool,
    ) {
        if let Some(p) = self.runtime().coll_provider().cloned() {
            p.all_exchange_words(self, src_off, dst_off, block_words, blocking);
            return;
        }
        self.all_exchange_words_flat(src_off, dst_off, block_words, blocking);
    }

    /// The flat reference all-to-all: `THREADS` individual puts per thread,
    /// staggered so the targets don't all hammer thread 0 first.
    pub fn all_exchange_words_flat(
        &self,
        src_off: usize,
        dst_off: usize,
        block_words: usize,
        blocking: bool,
    ) {
        let p = self.threads();
        let me = self.mythread();
        self.ctx().trace_emit(
            hupc_trace::EventKind::CollBegin,
            hupc_trace::coll::ALL_EXCHANGE,
            (p * block_words) as u64,
        );
        let mut handles = Vec::new();
        let mut buf = vec![0u64; block_words];
        for step in 0..p {
            // Stagger targets to avoid all threads hammering thread 0 first.
            let target = (me + step) % p;
            self.gasnet()
                .segment(me)
                .read(src_off + target * block_words, &mut buf);
            let dst = dst_off + me * block_words;
            if blocking {
                self.memput(target, dst, &buf);
            } else {
                handles.push(self.memput_nb(target, dst, &buf));
            }
        }
        for h in handles {
            self.wait_sync(h);
        }
        self.barrier();
        self.ctx().trace_emit(
            hupc_trace::EventKind::CollEnd,
            hupc_trace::coll::ALL_EXCHANGE,
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{UpcConfig, UpcJob, SCRATCH_WORDS};
    // (SharedArray helpers come in via the outer scope where needed)

    #[test]
    fn broadcast_from_each_root() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        job.run(|upc| {
            for root in 0..4 {
                let v = if upc.mythread() == root { 42 + root as u64 } else { 0 };
                let got = upc.broadcast_word(root, v);
                assert_eq!(got, 42 + root as u64);
            }
        });
    }

    #[test]
    fn broadcast_multi_word_payload() {
        let job = UpcJob::new(UpcConfig::test_default(6, 2));
        job.run(|upc| {
            let mut payload = if upc.mythread() == 2 {
                vec![1, 2, 3, 4, 5]
            } else {
                vec![0; 5]
            };
            upc.broadcast_words(2, &mut payload);
            assert_eq!(payload, vec![1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn broadcast_at_scratch_boundary_and_beyond() {
        // Exactly the old hard ceiling (SCRATCH_WORDS / 2), one past it, and
        // a payload spanning several pipeline chunks.
        for n in [SCRATCH_WORDS / 2, SCRATCH_WORDS / 2 + 1, SCRATCH_WORDS * 2 + 7] {
            let job = UpcJob::new(UpcConfig::test_default(4, 2));
            job.run(move |upc| {
                let mut payload: Vec<u64> = if upc.mythread() == 1 {
                    (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect()
                } else {
                    vec![0; n]
                };
                upc.broadcast_words(1, &mut payload);
                for (i, &x) in payload.iter().enumerate() {
                    assert_eq!(x, (i as u64).wrapping_mul(0x9e37_79b9), "word {i} of {n}");
                }
            });
        }
    }

    #[test]
    fn allreduce_beyond_gather_boundary_threads() {
        // More threads than gather slots (SCRATCH_WORDS / 2 = 128): the
        // wave-pipelined gather must cover ranks past the old assert.
        // threads must divide evenly over nodes: 128 = 32×4, 129 = 43×3
        for (p, nodes) in [(SCRATCH_WORDS / 2, 32), (SCRATCH_WORDS / 2 + 1, 43)] {
            let job = UpcJob::new(UpcConfig::test_default(p, nodes));
            job.run(move |upc| {
                let me = upc.mythread() as u64;
                let sum = upc.allreduce_sum_u64(me + 1);
                assert_eq!(sum, (p as u64) * (p as u64 + 1) / 2);
                let max = upc.allreduce_max_u64(me * 3);
                assert_eq!(max, (p as u64 - 1) * 3);
            });
        }
    }

    #[test]
    fn reductions() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        job.run(|upc| {
            let me = upc.mythread() as u64;
            assert_eq!(upc.allreduce_sum_u64(me + 1), 1 + 2 + 3 + 4);
            assert_eq!(upc.allreduce_max_u64(me * 10), 30);
            let s = upc.allreduce_sum_f64(0.5 * (me as f64 + 1.0));
            assert!((s - 5.0).abs() < 1e-12);
        });
    }

    #[test]
    fn allreduce_vector_is_element_wise() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        job.run(|upc| {
            let me = upc.mythread() as u64;
            let mut v = [me, 10 * me, 7];
            upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
            assert_eq!(v, [6, 60, 28]);
        });
    }

    #[test]
    fn allgather_collects_blocks_in_thread_order() {
        for b in [1usize, 3, 70, 200] {
            let job = UpcJob::new(UpcConfig::test_default(4, 2));
            job.run(move |upc| {
                let me = upc.mythread() as u64;
                let mine: Vec<u64> = (0..b as u64).map(|i| me * 1000 + i).collect();
                let mut out = vec![0u64; 4 * b];
                upc.allgather_words(&mine, &mut out);
                for t in 0..4u64 {
                    for i in 0..b as u64 {
                        assert_eq!(out[(t as usize) * b + i as usize], t * 1000 + i);
                    }
                }
            });
        }
    }

    #[test]
    fn exchange_transposes_blocks() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        let src = job.alloc_shared::<u64>(4 * 4 * 2, 8); // 2 elems × 4 blocks × 4 threads
        let dst = job.alloc_shared::<u64>(4 * 4 * 2, 8);
        job.run(move |upc| {
            let me = upc.mythread();
            // src block j on thread me = [me*100 + j*10, +1]
            src.with_local_words(&upc, |w| {
                for j in 0..4 {
                    w[j * 2] = (me * 100 + j * 10) as u64;
                    w[j * 2 + 1] = (me * 100 + j * 10 + 1) as u64;
                }
            });
            upc.barrier();
            upc.all_exchange(src, dst, 2, false);
            // dst block j on thread me must be thread j's block me
            dst.with_local_words(&upc, |w| {
                for j in 0..4 {
                    assert_eq!(w[j * 2], (j * 100 + me * 10) as u64);
                    assert_eq!(w[j * 2 + 1], (j * 100 + me * 10 + 1) as u64);
                }
            });
        });
    }

    #[test]
    fn exchange_blocking_matches_nonblocking_data() {
        for blocking in [true, false] {
            let job = UpcJob::new(UpcConfig::test_default(2, 2));
            let src = job.alloc_shared::<u64>(2 * 2 * 3, 6);
            let dst = job.alloc_shared::<u64>(2 * 2 * 3, 6);
            job.run(move |upc| {
                let me = upc.mythread();
                src.with_local_words(&upc, |w| {
                    for (i, x) in w.iter_mut().enumerate() {
                        *x = (me * 1000 + i) as u64;
                    }
                });
                upc.barrier();
                upc.all_exchange(src, dst, 3, blocking);
                dst.with_local_words(&upc, |w| {
                    for j in 0..2 {
                        for e in 0..3 {
                            assert_eq!(w[j * 3 + e], (j * 1000 + me * 3 + e) as u64);
                        }
                    }
                });
            });
        }
    }
}
