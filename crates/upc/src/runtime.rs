//! SPMD launcher, the per-thread `Upc` view, and deferred cost accounting.

use std::collections::HashMap;
use std::sync::Arc;

use hupc_gasnet::{CommError, Gasnet, GasnetConfig, Handle};
use hupc_sim::{time, Ctx, MutexId, SimCell, Simulation, SimulationStats, Time};
use hupc_topo::SocketId;

use crate::elem::PgasElem;
use crate::shared::SharedArray;

/// Bit in the actor-local tag word marking a user-spawned sub-thread context
/// (set by `hupc-subthreads` workers). Kept on the actor's [`Ctx`] — not in
/// OS-thread TLS — because coroutine actors all share the scheduler's thread,
/// where TLS would leak the flag from one actor to the next.
const SUBTHREAD_TAG: u64 = 1;

/// Mark / unmark an actor as a sub-thread context. Gates UPC calls per
/// [`ThreadSafety`].
pub fn set_subthread_context(ctx: &Ctx, on: bool) {
    let tag = ctx.actor_tag();
    ctx.set_actor_tag(if on {
        tag | SUBTHREAD_TAG
    } else {
        tag & !SUBTHREAD_TAG
    });
}

/// Whether the given actor is a sub-thread context.
pub fn in_subthread_context(ctx: &Ctx) -> bool {
    ctx.actor_tag() & SUBTHREAD_TAG != 0
}

/// MPI-2-style thread-safety levels for UPC calls from sub-threads
/// (thesis §4.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadSafety {
    /// Only the master UPC thread may communicate; a call from a sub-thread
    /// panics — modeling the crash the thesis reports for user-spawned
    /// pthreads lacking per-thread runtime data (Berkeley UPC bug 2808).
    Funneled,
    /// Sub-threads may call, one at a time (runtime-serialized).
    Serialized,
    /// Unrestricted concurrent calls (the thread-safe runtime the thesis
    /// argues for).
    Multiple,
}

/// Job configuration: platform + layout + runtime policy.
#[derive(Clone, Debug)]
pub struct UpcConfig {
    pub gasnet: GasnetConfig,
    pub safety: ThreadSafety,
}

impl UpcConfig {
    /// Small-platform defaults for tests and examples.
    pub fn test_default(n_threads: usize, nodes_used: usize) -> Self {
        UpcConfig {
            gasnet: GasnetConfig::test_default(n_threads, nodes_used),
            safety: ThreadSafety::Multiple,
        }
    }

    /// The standard app-crate launch configuration: packed-core binding,
    /// processes+PSHM, default overheads/retry, no barrier timeout,
    /// `Multiple` thread safety. Everything the apps actually vary —
    /// machine, layout, conduit, segment sizing, fault plan — is a
    /// parameter; the rest is pinned here so workloads agree on it.
    pub fn standard(
        machine: hupc_topo::MachineSpec,
        n_threads: usize,
        nodes_used: usize,
        conduit: hupc_net::Conduit,
        segment_words: usize,
        fault: Option<hupc_gasnet::FaultPlan>,
    ) -> Self {
        UpcConfig {
            gasnet: GasnetConfig {
                machine,
                n_threads,
                nodes_used,
                bind: hupc_topo::BindPolicy::PackedCores,
                backend: hupc_gasnet::Backend::processes_pshm(),
                conduit,
                segment_words,
                overheads: None,
                fault,
                retry: Default::default(),
                barrier_timeout: None,
            },
            safety: ThreadSafety::Multiple,
        }
    }
}

/// Per-thread deferred access-cost counters.
#[derive(Default)]
pub(crate) struct CostCounters {
    /// Pointer-to-shared translations accumulated since last flush.
    pub translations: u64,
    /// Streaming memory bytes per home socket.
    pub socket_bytes: HashMap<usize, u64>,
}

/// A pluggable implementation of the word-level collectives. `hupc-coll`
/// installs its topology-aware hierarchical algorithms through this seam
/// ([`UpcRuntime::set_coll_provider`]); with no provider installed the
/// built-in flat algorithms run. Implementations must call the `*_flat`
/// methods (never the delegating wrappers) for their flat path, or they
/// recurse.
pub trait CollProvider: Send + Sync {
    /// See [`Upc::broadcast_words`].
    fn broadcast_words(&self, upc: &Upc<'_>, root: usize, words: &mut [u64]);
    /// Element-wise all-reduce of a word vector with a combining function
    /// (associative + commutative). Scalar [`Upc::allreduce_words`] goes
    /// through this with a 1-word slice.
    fn allreduce_word_vec(
        &self,
        upc: &Upc<'_>,
        vals: &mut [u64],
        combine: &(dyn Fn(u64, u64) -> u64 + Sync),
    );
    /// See [`Upc::allgather_words`].
    fn allgather_words(&self, upc: &Upc<'_>, mine: &[u64], out: &mut [u64]);
    /// Word-level all-to-all: thread `me`'s source block for thread `j`
    /// lives at `src_off + j*block_words`, and lands at
    /// `dst_off + me*block_words` in `j`'s segment.
    fn all_exchange_words(
        &self,
        upc: &Upc<'_>,
        src_off: usize,
        dst_off: usize,
        block_words: usize,
        blocking: bool,
    );
    /// Group-staged barrier (intra-group arrive, inter-leader sync, release).
    fn staged_barrier(&self, upc: &Upc<'_>);
}

/// Shared runtime state for one UPC job.
pub struct UpcRuntime {
    gasnet: Arc<Gasnet>,
    heap_next: SimCell<usize>,
    costs: Vec<SimCell<CostCounters>>,
    /// Per-thread reusable word buffer for bulk staging ([`Upc::with_scratch`]).
    /// Grows on demand and never shrinks, so steady-state bulk transfers stop
    /// allocating.
    scratch: Vec<SimCell<Vec<u64>>>,
    safety: ThreadSafety,
    serial: MutexId,
    /// Scratch region (word offset 0..SCRATCH_WORDS of every segment)
    /// reserved for collectives.
    pub(crate) scratch_off: usize,
    /// Installed hierarchical-collectives provider (set once, pre-run).
    coll: std::sync::OnceLock<Arc<dyn CollProvider>>,
}

/// Words reserved at the bottom of every segment for collective scratch.
/// Public so collective implementations outside this crate (`hupc-coll`) can
/// size their pipeline chunks against the same ceiling.
pub const SCRATCH_WORDS: usize = 256;

impl UpcRuntime {
    pub fn gasnet(&self) -> &Arc<Gasnet> {
        &self.gasnet
    }

    pub fn safety(&self) -> ThreadSafety {
        self.safety
    }

    /// Construct a `Upc` view for UPC thread `me` on an arbitrary actor
    /// context. This is how sub-threads reach the global address space
    /// (§4.1.2): the view is subject to the job's [`ThreadSafety`] level on
    /// every call.
    pub fn view<'b>(self: &Arc<Self>, ctx: &'b Ctx, me: usize) -> Upc<'b> {
        assert!(me < self.gasnet.n_threads());
        Upc {
            ctx,
            rt: Arc::clone(self),
            me,
        }
    }

    /// The collective scratch region every segment reserves: `(offset,
    /// words)`. Collective implementations stage pipeline chunks here.
    pub fn coll_scratch(&self) -> (usize, usize) {
        (self.scratch_off, SCRATCH_WORDS)
    }

    /// Install a hierarchical-collectives provider (pre-run, once). Every
    /// subsequent `Upc` collective call delegates to it; panics on a second
    /// install (the provider owns pre-built teams tied to this job).
    pub fn set_coll_provider(&self, p: Arc<dyn CollProvider>) {
        if self.coll.set(p).is_err() {
            panic!("collective provider already installed for this job");
        }
    }

    /// The installed collective provider, if any.
    pub fn coll_provider(&self) -> Option<&Arc<dyn CollProvider>> {
        self.coll.get()
    }

    /// Allocate `words` per-thread symmetric words; returns the common
    /// offset. (All threads' segments get the same layout, like static
    /// `shared` declarations compiled into the UPC binary.)
    pub fn alloc_words(&self, words: usize) -> usize {
        let off = self.heap_next.with_mut(|n| {
            let off = *n;
            *n += words;
            off
        });
        for t in 0..self.gasnet.n_threads() {
            self.gasnet.segment(t).ensure(off + words);
        }
        off
    }
}

/// A job being configured: platform built, shared objects allocatable,
/// not yet running.
pub struct UpcJob {
    sim: Simulation,
    rt: Arc<UpcRuntime>,
}

impl UpcJob {
    pub fn new(cfg: UpcConfig) -> Self {
        let mut sim = Simulation::new();
        let gasnet = Gasnet::new(&mut sim, cfg.gasnet);
        let serial = sim.kernel().new_mutex();
        let costs = (0..gasnet.n_threads()).map(|_| SimCell::default()).collect();
        let scratch = (0..gasnet.n_threads()).map(|_| SimCell::default()).collect();
        let rt = Arc::new(UpcRuntime {
            gasnet,
            heap_next: SimCell::new(SCRATCH_WORDS),
            costs,
            scratch,
            safety: cfg.safety,
            serial,
            scratch_off: 0,
            coll: std::sync::OnceLock::new(),
        });
        UpcJob { sim, rt }
    }

    /// The runtime (for allocating shared objects, building teams, …).
    pub fn runtime(&self) -> &Arc<UpcRuntime> {
        &self.rt
    }

    /// The underlying communication runtime.
    pub fn gasnet(&self) -> &Arc<Gasnet> {
        self.rt.gasnet()
    }

    /// Kernel access for pre-run setup (extra barriers, teams, locks).
    pub fn kernel(&self) -> hupc_sim::KernelGuard<'_> {
        self.sim.kernel()
    }

    /// Declare `shared [block] T name[n]`: a block-cyclic shared array.
    /// `block == 0` is shorthand for fully-blocked (`[*]`) layout.
    pub fn alloc_shared<T: PgasElem>(&self, n: usize, block: usize) -> SharedArray<T> {
        SharedArray::allocate(&self.rt, n, block)
    }

    /// Allocate a UPC lock with affinity to thread 0.
    pub fn alloc_lock(&self) -> crate::lock::UpcLock {
        crate::lock::UpcLock::allocate(&mut self.sim.kernel(), &self.rt, 0)
    }

    /// Allocate a UPC lock with affinity to `home`.
    pub fn alloc_lock_at(&self, home: usize) -> crate::lock::UpcLock {
        crate::lock::UpcLock::allocate(&mut self.sim.kernel(), &self.rt, home)
    }

    /// Run the SPMD body on every UPC thread; returns when all finish.
    /// Panics (with diagnostics) on deadlock or actor panic; use
    /// [`UpcJob::run_result`] to observe those failures as values.
    pub fn run<F>(self, body: F) -> SimulationStats
    where
        F: for<'a> Fn(Upc<'a>) + Send + Sync + 'static,
    {
        self.run_result(body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`UpcJob::run`] but returns the structured [`SimResult`]:
    /// deadlocks carry the wait graph (with each stuck thread's recent
    /// activity) and actor panics the typed payload, instead of panicking.
    /// This is what the `hupc-check` schedule explorer drives — a perturbed
    /// interleaving that deadlocks must surface as a value, not abort the
    /// exploration process.
    pub fn run_result<F>(mut self, body: F) -> hupc_sim::SimResult
    where
        F: for<'a> Fn(Upc<'a>) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let n = self.rt.gasnet().n_threads();
        for t in 0..n {
            let rt = Arc::clone(&self.rt);
            let body = Arc::clone(&body);
            self.sim.spawn(format!("upc{t}"), move |ctx| {
                let upc = Upc { ctx, rt, me: t };
                body(upc);
            });
        }
        self.sim.run_result()
    }

    /// Like [`UpcJob::run`] but also returns a value from thread 0 via the
    /// provided cell (convenience for tests and benches).
    pub fn run_collecting<F, R>(self, body: F) -> (SimulationStats, R)
    where
        F: for<'a> Fn(Upc<'a>) -> Option<R> + Send + Sync + 'static,
        R: Send + Default + 'static,
    {
        let out: Arc<SimCell<R>> = Arc::new(SimCell::default());
        let out2 = Arc::clone(&out);
        let stats = self.run(move |upc| {
            if let Some(r) = body(upc) {
                out2.with_mut(|slot| *slot = r);
            }
        });
        let r = Arc::try_unwrap(out)
            .unwrap_or_else(|_| panic!("run_collecting: output still shared"))
            .into_inner();
        (stats, r)
    }
}

/// The per-thread view of the UPC world (what `MYTHREAD`, `THREADS` and the
/// `upc_*` calls see).
pub struct Upc<'a> {
    ctx: &'a Ctx,
    rt: Arc<UpcRuntime>,
    me: usize,
}

impl<'a> Upc<'a> {
    /// `MYTHREAD`.
    #[inline]
    pub fn mythread(&self) -> usize {
        self.me
    }

    /// `THREADS`.
    #[inline]
    pub fn threads(&self) -> usize {
        self.rt.gasnet().n_threads()
    }

    /// The simulation context (advanced APIs).
    pub fn ctx(&self) -> &'a Ctx {
        self.ctx
    }

    /// The communication runtime.
    pub fn gasnet(&self) -> &Arc<Gasnet> {
        self.rt.gasnet()
    }

    /// The shared runtime.
    pub fn runtime(&self) -> &Arc<UpcRuntime> {
        &self.rt
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// This thread's trace location (node + thread).
    pub fn trace_loc(&self) -> hupc_trace::Loc {
        hupc_trace::Loc::new(
            self.rt.gasnet().thread_node(self.me).0 as u32,
            self.me as u32,
        )
    }

    /// Whether metrics collection is active (counters level or above).
    #[inline]
    fn metrics_on(&self) -> bool {
        self.ctx
            .tracer()
            .is_some_and(|t| t.enabled(hupc_trace::TraceLevel::Counters))
    }

    /// Bump a metrics counter attributed to this thread's location.
    #[inline]
    pub fn trace_count(&self, name: &'static str, v: u64) {
        if self.metrics_on() {
            self.ctx.trace_count(name, self.trace_loc(), v);
        }
    }

    /// Record a histogram observation attributed to this thread's location.
    #[inline]
    pub fn trace_observe(&self, name: &'static str, v: u64) {
        if self.metrics_on() {
            self.ctx.trace_observe(name, self.trace_loc(), v);
        }
    }

    // ----- thread-safety gate -------------------------------------------------

    /// Run `op` on the communication runtime under the job's
    /// [`ThreadSafety`] gate: a sub-thread call panics when `Funneled` and
    /// holds the job's serial mutex for the whole of `op` when `Serialized`.
    fn gated<R>(&self, op: impl FnOnce(&Gasnet) -> R) -> R {
        if !in_subthread_context(self.ctx) {
            return op(self.rt.gasnet());
        }
        match self.rt.safety {
            ThreadSafety::Funneled => panic!(
                "UPC call from a user-spawned sub-thread: the runtime was \
                 configured THREAD_FUNNELED (thesis §4.2.3 / Berkeley UPC \
                 bug 2808); use ThreadSafety::Multiple or funnel through the \
                 master thread"
            ),
            ThreadSafety::Serialized => {
                self.ctx.mutex_lock(self.rt.serial);
                let r = op(self.rt.gasnet());
                self.ctx.mutex_unlock(self.rt.serial);
                r
            }
            ThreadSafety::Multiple => op(self.rt.gasnet()),
        }
    }

    // ----- synchronization ------------------------------------------------------

    /// `upc_barrier`: flushes deferred access costs, drains outstanding
    /// non-blocking ops, synchronizes all threads.
    pub fn barrier(&self) {
        self.flush_access_costs();
        self.gated(|gn| gn.barrier(self.ctx, self.me));
    }

    /// `upc_notify`: the arrival half of the split-phase barrier. Flushes
    /// deferred access costs and drains outstanding operations, then
    /// returns immediately — local work may overlap the barrier.
    pub fn notify(&self) {
        self.flush_access_costs();
        self.gated(|gn| gn.barrier_notify(self.ctx, self.me));
    }

    /// `upc_wait`: the completion half of the split-phase barrier.
    pub fn wait(&self) {
        self.gated(|gn| gn.barrier_wait_phase(self.ctx, self.me));
    }

    /// Fallible `upc_barrier` (consults `GasnetConfig::barrier_timeout`).
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.flush_access_costs();
        self.gated(|gn| gn.try_barrier(self.ctx, self.me))
    }

    /// `upc_waitsync`.
    pub fn wait_sync(&self, h: Handle) {
        self.gated(|gn| gn.wait_sync(self.ctx, self.me, h));
    }

    // ----- bulk communication ----------------------------------------------------
    //
    // Every transfer runs on one of GASNet's fallible primitives. The
    // blocking forms wait on the handle inside the gate; the panicking forms
    // are the fallible ones passed through `or_panic`.

    /// `upc_memput` (blocking) of words into `dst`'s segment.
    pub fn memput(&self, dst: usize, dst_off: usize, data: &[u64]) {
        or_panic(self.try_memput(dst, dst_off, data));
    }

    /// Fallible `upc_memput`: surfaces [`CommError`] when the fault plan
    /// exhausts the retry budget, so resilient algorithms (e.g. UTS work
    /// stealing) can route around a dead link instead of dying.
    pub fn try_memput(
        &self,
        dst: usize,
        dst_off: usize,
        data: &[u64],
    ) -> Result<(), CommError> {
        self.try_memput_with(dst, dst_off, data.len(), |w| w.copy_from_slice(data))
    }

    /// `bupc_memput_async`.
    pub fn memput_nb(&self, dst: usize, dst_off: usize, data: &[u64]) -> Handle {
        let ((), h) = self.memput_nb_with(dst, dst_off, data.len(), |w| w.copy_from_slice(data));
        h
    }

    /// `upc_memget` (blocking).
    pub fn memget(&self, src: usize, src_off: usize, out: &mut [u64]) {
        or_panic(self.try_memget(src, src_off, out));
    }

    /// Fallible `upc_memget`.
    pub fn try_memget(
        &self,
        src: usize,
        src_off: usize,
        out: &mut [u64],
    ) -> Result<(), CommError> {
        self.gated(|gn| {
            gn.try_get_with(self.ctx, self.me, src, src_off, out.len(), |w| {
                out.copy_from_slice(w)
            })
        })
    }

    /// `upc_memcpy` (blocking) between two shared regions.
    pub fn memcpy(&self, dst: usize, dst_off: usize, src: usize, src_off: usize, len: usize) {
        or_panic(self.gated(|gn| {
            let h = gn.try_memcpy_nb(self.ctx, self.me, dst, dst_off, src, src_off, len)?;
            gn.wait_sync(self.ctx, self.me, h);
            Ok(())
        }));
    }

    // ----- zero-copy bulk transfers ------------------------------------------------

    /// `upc_memget` timing with an in-place view: `f` reads the source
    /// segment words directly — no staging buffer, no per-element decode
    /// round trip. Charged identically to [`Upc::memget`] of `words` words.
    /// `f` runs under the source segment's borrow: it must not issue UPC
    /// calls or touch that segment again.
    pub fn memget_with<R>(
        &self,
        src: usize,
        src_off: usize,
        words: usize,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        or_panic(self.gated(|gn| gn.try_get_with(self.ctx, self.me, src, src_off, words, f)))
    }

    /// `upc_memput` timing with an in-place view: `f` writes the destination
    /// segment words directly. Charged identically to [`Upc::memput`] of
    /// `words` words. Same closure restrictions as [`Upc::memget_with`].
    pub fn memput_with<R>(
        &self,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> R {
        or_panic(self.try_memput_with(dst, dst_off, words, f))
    }

    /// `bupc_memput_async` timing with an in-place view (the closure runs at
    /// issue time, like `memput_nb` moving bytes eagerly).
    pub fn memput_nb_with<R>(
        &self,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> (R, Handle) {
        or_panic(self.gated(|gn| gn.try_put_nb_with(self.ctx, self.me, dst, dst_off, words, f)))
    }

    /// The blocking in-place put behind [`Upc::try_memput`] and
    /// [`Upc::memput_with`].
    fn try_memput_with<R>(
        &self,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> Result<R, CommError> {
        self.gated(|gn| {
            let (r, h) = gn.try_put_nb_with(self.ctx, self.me, dst, dst_off, words, f)?;
            gn.wait_sync(self.ctx, self.me, h);
            Ok(r)
        })
    }

    /// Run `f` with this thread's reusable scratch buffer sized to `words`
    /// words. The buffer's contents are unspecified on entry (it is reused
    /// across calls, grow-only); callers must overwrite what they read.
    /// UPC calls are allowed inside `f` (the scratch is a private per-thread
    /// cell, not a segment), but nested `with_scratch` on the same thread —
    /// including from a sub-thread view of the same UPC thread — is not.
    pub fn with_scratch<R>(&self, words: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
        self.rt.scratch[self.me].with_mut(|buf| {
            if buf.len() < words {
                buf.resize(words, 0);
            }
            f(&mut buf[..words])
        })
    }

    // ----- compute charging -------------------------------------------------------

    /// Charge `work` of single-thread CPU time on this thread's core.
    pub fn compute(&self, work: Time) {
        self.rt.gasnet().compute(self.ctx, self.me, work);
    }

    /// Charge `flops` at `efficiency` of peak.
    pub fn compute_flops(&self, flops: f64, efficiency: f64) {
        self.rt.gasnet().compute_flops_on(
            self.ctx,
            self.rt.gasnet().thread_pu(self.me),
            flops,
            efficiency,
        );
    }

    /// Charge streaming memory traffic against `home` (blocking, fair-shared).
    pub fn charge_mem_traffic(&self, home: SocketId, bytes: usize) {
        self.rt.gasnet().mem_stream(self.ctx, self.me, home, bytes);
    }

    /// Home socket of a thread's shared data.
    pub fn segment_home(&self, t: usize) -> SocketId {
        self.rt.gasnet().segment_home(t)
    }

    // ----- deferred fine-grained access costs ----------------------------------------

    /// Record `n` pointer-to-shared translations (flushed at the next
    /// barrier / [`Upc::flush_access_costs`]). Public so application kernels
    /// can account fine-grained costs they incur in batched loops.
    pub fn note_translation(&self, n: u64) {
        self.rt.costs[self.me].with_mut(|c| c.translations += n);
    }

    /// Record streaming memory traffic against `socket`'s controller.
    pub fn note_socket_traffic(&self, socket: SocketId, bytes: u64) {
        self.rt.costs[self.me].with_mut(|c| {
            *c.socket_bytes.entry(socket.0).or_insert(0) += bytes;
        });
    }

    /// Convert the accumulated fine-grained access costs into simulation
    /// time: CPU time for pointer translations,
    /// fair-shared controller time for memory traffic. Called automatically
    /// at [`Upc::barrier`].
    pub fn flush_access_costs(&self) {
        let costs = &self.rt.costs[self.me];
        // Every group barrier lands here, and most of them with nothing
        // accrued since the last one: leave before building the (hashed,
        // then sorted) traffic list.
        if costs.with(|c| c.translations == 0 && c.socket_bytes.is_empty()) {
            return;
        }
        let (trans, traffic) = costs.with_mut(|c| {
            (
                std::mem::take(&mut c.translations),
                std::mem::take(&mut c.socket_bytes),
            )
        });
        let cpu_ns = trans * self.rt.gasnet().overheads().ptr_translation;
        if cpu_ns > 0 {
            self.compute(time::ns(cpu_ns));
        }
        let mut traffic: Vec<(usize, u64)> = traffic.into_iter().collect();
        traffic.sort_unstable(); // deterministic charge order
        for (socket, bytes) in traffic {
            self.charge_mem_traffic(SocketId(socket), bytes as usize);
        }
    }
}

/// The blocking and panicking transfers' failure convention: a
/// [`CommError`] that reaches them panics with its `Display`.
fn or_panic<T>(r: Result<T, CommError>) -> T {
    r.unwrap_or_else(|e| panic!("{e}"))
}

impl std::fmt::Debug for Upc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Upc")
            .field("mythread", &self.me)
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spmd_launch_runs_all_threads() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let job = UpcJob::new(UpcConfig::test_default(6, 2));
        job.run(move |upc| {
            assert_eq!(upc.threads(), 6);
            assert!(upc.mythread() < 6);
            c2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn memput_memget_between_threads() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        let rt = Arc::clone(job.runtime());
        let off = rt.alloc_words(8);
        job.run(move |upc| {
            let me = upc.mythread();
            if me == 0 {
                upc.memput(2, off, &[11, 22, 33]);
            }
            upc.barrier();
            let mut out = [0u64; 3];
            upc.memget(2, off, &mut out);
            assert_eq!(out, [11, 22, 33]);
        });
    }

    /// A 2-node job whose wire drops everything: thread 0 runs `op` against
    /// thread 1 and reports how it ended.
    fn on_dead_wire<R: Send + Default + 'static>(
        op: impl for<'b> Fn(&Upc<'b>, usize) -> R + Send + Sync + 'static,
    ) -> Result<R, String> {
        let mut cfg = UpcConfig::test_default(2, 2);
        cfg.gasnet.fault = Some(hupc_gasnet::FaultPlan::new(1).loss(1.0));
        let job = UpcJob::new(cfg);
        let off = job.runtime().alloc_words(1);
        let out = Arc::new(SimCell::new(R::default()));
        let out2 = Arc::clone(&out);
        match job.run_result(move |upc| {
            if upc.mythread() == 0 {
                let r = op(&upc, off);
                out2.with_mut(|o| *o = r);
            }
        }) {
            Ok(_) => Ok(Arc::try_unwrap(out).ok().unwrap().into_inner()),
            Err(hupc_sim::SimError::ActorPanic { message, .. }) => Err(message),
            Err(e) => panic!("{e}"),
        }
    }

    /// The error a one-word transfer from thread 0 to thread 1 reports when
    /// every attempt is dropped.
    fn exhausted(op: &'static str) -> CommError {
        CommError::RetriesExhausted {
            op,
            src: 0,
            dst: 1,
            src_node: hupc_topo::NodeId(0),
            dst_node: hupc_topo::NodeId(1),
            bytes: 8,
            attempts: hupc_gasnet::RetryPolicy::default().max_attempts,
        }
    }

    /// Blocking transfers whose retries run out panic with the
    /// `CommError`'s text, and the fallible forms return that error.
    #[test]
    fn exhausted_retries_panic_with_the_comm_error_text() {
        let panics = [
            ("put", on_dead_wire(|upc, off| upc.memput(1, off, &[7]))),
            ("get", on_dead_wire(|upc, off| upc.memget(1, off, &mut [0]))),
            ("memcpy", on_dead_wire(|upc, off| upc.memcpy(1, off, 0, off, 1))),
            (
                "put",
                on_dead_wire(|upc, off| upc.gasnet().put(upc.ctx(), 0, 1, off, &[7])),
            ),
            (
                "get",
                on_dead_wire(|upc, off| upc.gasnet().get(upc.ctx(), 0, 1, off, &mut [0])),
            ),
        ];
        for (op, got) in panics {
            let msg = got.expect_err("a blocking transfer over a dead wire must panic");
            assert!(msg.contains("retry budget exhausted"), "{msg}");
            assert_eq!(msg, exhausted(op).to_string());
        }
        let put = on_dead_wire(|upc, off| Some(upc.try_memput(1, off, &[7])));
        assert_eq!(put, Ok(Some(Err(exhausted("put")))));
        let get = on_dead_wire(|upc, off| Some(upc.try_memget(1, off, &mut [0])));
        assert_eq!(get, Ok(Some(Err(exhausted("get")))));
    }

    #[test]
    fn symmetric_allocation_is_disjoint() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        let rt = job.runtime();
        let a = rt.alloc_words(10);
        let b = rt.alloc_words(5);
        assert!(a >= SCRATCH_WORDS);
        assert_eq!(b, a + 10);
    }

    #[test]
    fn deferred_costs_flush_at_barrier() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        job.run(move |upc| {
            if upc.mythread() == 0 {
                upc.note_translation(1_000_000); // 1e6 × 17ns = 17ms
            }
            let t0 = upc.now();
            upc.barrier();
            let dt = upc.now() - t0;
            assert!(
                dt >= time::ms(16),
                "barrier should have flushed translation charge, dt={dt}"
            );
        });
    }

    #[test]
    fn run_collecting_returns_thread0_value() {
        let job = UpcJob::new(UpcConfig::test_default(3, 1));
        let (_stats, v) = job.run_collecting(|upc| {
            if upc.mythread() == 0 {
                Some(12345u64)
            } else {
                None
            }
        });
        assert_eq!(v, 12345);
    }

    #[test]
    #[should_panic(expected = "THREAD_FUNNELED")]
    fn funneled_rejects_subthread_calls() {
        let mut cfg = UpcConfig::test_default(2, 1);
        cfg.safety = ThreadSafety::Funneled;
        let job = UpcJob::new(cfg);
        let rt = Arc::clone(job.runtime());
        let off = rt.alloc_words(1);
        job.run(move |upc| {
            if upc.mythread() == 0 {
                set_subthread_context(upc.ctx(), true);
                // Calling a UPC op from a "sub-thread" context must panic.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    upc.memput(1, off, &[1]);
                }));
                set_subthread_context(upc.ctx(), false);
                if let Err(p) = r {
                    std::panic::resume_unwind(p);
                }
            }
        });
    }

    #[test]
    fn serialized_allows_subthread_calls() {
        let mut cfg = UpcConfig::test_default(2, 1);
        cfg.safety = ThreadSafety::Serialized;
        let job = UpcJob::new(cfg);
        let rt = Arc::clone(job.runtime());
        let off = rt.alloc_words(1);
        job.run(move |upc| {
            if upc.mythread() == 0 {
                set_subthread_context(upc.ctx(), true);
                upc.memput(1, off, &[9]);
                set_subthread_context(upc.ctx(), false);
            }
            upc.barrier();
            if upc.mythread() == 1 {
                let mut out = [0u64];
                upc.memget(1, off, &mut out);
                assert_eq!(out[0], 9);
            }
        });
    }
}
