//! The scheduler (`Simulation`) and the actor-side API (`Ctx`).
//!
//! Actors are lightweight execution contexts (stackful coroutines, see
//! [`crate::coro`]), resumed in place by the scheduler loop: a wake dispatch
//! is a user-space context switch into the actor, and a blocking simcall is
//! a switch back. There are no per-actor kernel threads — an actor is a heap
//! stack plus a saved register file — which is what makes million-actor
//! simulations practical. Under Miri and on targets without the assembly
//! switch, the same protocol runs over parked OS threads instead; the
//! platform decides, not a setting.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::coro::{self, Coro, Poll, ResumeArg, Stack, SwitchCoro, ThreadCoro};
use crate::kernel::{
    ActorId, ActorMeta, ActorStatus, BarrierId, BlockKind, CompletionId, CondId, Kernel,
    MutexId, RecentRing, ResourceId, WaitGraph,
};
use crate::kernel_cell::{KernelCell, KernelGuard};
use crate::time::Time;

/// Default actor stack size: matches the 8 MiB the engine used to give each
/// actor's OS thread. Coroutine stacks are lazily faulted, so the virtual
/// headroom costs nothing until touched; scale runs shrink it via
/// [`Simulation::set_stack_size`] / [`Ctx::spawn_with_stack`].
pub const DEFAULT_STACK_SIZE: usize = 8 << 20;

/// Cap on recycled coroutine stacks retained for reuse. Spawn-heavy runs
/// (one actor per work item) cycle through the pool with a near-100% hit
/// rate; the cap only matters when a huge cohort finishes at once.
const STACK_POOL_CAP: usize = 1024;

/// Shared between the scheduler and every actor context.
struct Shared {
    kernel: KernelCell,
    /// Actors registered in the kernel (meta + first wake already queued)
    /// whose bodies the scheduler has not yet collected. Spawns from inside
    /// a running actor land here — the actor cannot touch the scheduler's
    /// slot table while the scheduler is suspended mid-resume.
    staged: Mutex<Vec<StagedActor>>,
    /// Default stack size for newly spawned actors, bytes.
    stack_size: AtomicUsize,
}

/// A registered actor whose execution context has not been created yet.
struct StagedActor {
    id: ActorId,
    name: String,
    stack_size: usize,
    body: ActorBody,
}

/// Poison-tolerant lock: the engine's one deliberate poisoning policy.
///
/// Engine-side state stays consistent across an actor panic — the panicking
/// actor only ever completes a mutation before unwinding out of user code —
/// so a poisoned mutex carries a usable value, and reporting a panic can
/// never itself panic on a poisoned lock and cascade.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Internal sentinel unwound through user code on simulation teardown.
struct ShutdownSignal;

thread_local! {
    /// Set just before the teardown unwind so the panic hook stays silent.
    static QUIET_UNWIND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses output for the
/// engine's internal teardown unwinds and delegates everything else.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_UNWIND.with(|q| q.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Handle to a spawned actor; lets other actors join it.
#[derive(Clone, Copy, Debug)]
pub struct ActorRef {
    #[allow(dead_code)] // read by unit tests and diagnostics
    pub(crate) id: ActorId,
    exit: CompletionId,
}

impl ActorRef {
    /// Completion that fires when the actor finishes. Wait on it with
    /// [`Ctx::wait`] or poll it with [`Ctx::test`].
    #[must_use = "dropping the exit completion loses the only way to join the actor"]
    pub fn exit_completion(&self) -> CompletionId {
        self.exit
    }
}

/// A timed wait expired before the awaited primitive fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimedOut;

/// Why a run could not complete normally.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The event queue drained while actors were still blocked. The wait
    /// graph names every blocked actor and the primitive (with owner /
    /// arrival context) it is stuck on.
    Deadlock { time: Time, wait_graph: WaitGraph },
    /// An actor panicked; the run was abandoned.
    ActorPanic {
        actor: usize,
        name: String,
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { time, wait_graph } => write!(
                f,
                "simulation deadlock at t={}: no events pending but actors are blocked:\n{wait_graph}",
                crate::time::format(*time)
            ),
            SimError::ActorPanic {
                actor,
                name,
                message,
            } => write!(f, "actor panicked: actor {actor} '{name}': {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a run: stats on success, a structured failure otherwise.
pub type SimResult = Result<SimulationStats, SimError>;

/// Summary statistics of a finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulationStats {
    /// Virtual time at which the last event was processed.
    pub end_time: Time,
    /// Total number of events processed (scheduler-dispatched + bypassed).
    pub events: u64,
    /// Total number of actors that ran (including dynamically spawned ones).
    pub actors: usize,
    /// Simcalls resolved inline by the scheduler-bypass fast path — no
    /// context switch, no event-queue traffic.
    pub fast_path_hits: u64,
    /// Full scheduler → actor handoffs (each costs a resume/yield context
    /// switch round trip).
    pub handoffs: u64,
    /// Operations on the far (binary-heap) half of the split event queue;
    /// near-bucket traffic is O(1) and not counted.
    pub heap_ops: u64,
}

/// Per-actor execution state owned by the scheduler.
enum ActorSlot {
    /// Registered but never dispatched: creating the stack and context is
    /// deferred to the first wake, so a spawn burst costs one kernel
    /// registration per actor and queued-but-not-yet-run actors are a few
    /// hundred bytes each, not a stack each.
    Pending {
        name: String,
        stack_size: usize,
        body: ActorBody,
    },
    /// Live execution context (running or suspended).
    Started(Coro),
    /// Finished; stack reclaimed.
    Done,
}

/// A deterministic discrete-event simulation.
///
/// Spawn root actors with [`Simulation::spawn`], configure platform state via
/// [`Simulation::kernel`], then call [`Simulation::run`].
pub struct Simulation {
    shared: Arc<Shared>,
    /// Execution state per actor id; extended as staged spawns are drained.
    actors: Vec<ActorSlot>,
    /// Recycled coroutine stacks of finished actors (bounded).
    stack_pool: Vec<Stack>,
    ran: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    pub fn new() -> Self {
        install_quiet_hook();
        let sim = Simulation {
            shared: Arc::new(Shared {
                kernel: KernelCell::new(Kernel::new()),
                staged: Mutex::new(Vec::new()),
                stack_size: AtomicUsize::new(DEFAULT_STACK_SIZE),
            }),
            actors: Vec::new(),
            stack_pool: Vec::new(),
            ran: false,
        };
        // Adopt the process-global tracer (if installed) so app-level
        // drivers that construct their own Simulation internally are traced
        // without plumbing a handle through every config struct.
        if let Some(t) = hupc_trace::global_tracer() {
            sim.kernel().set_tracer(Some(t));
        }
        sim
    }

    /// Mutable access to the kernel for pre-run setup (resources, barriers,
    /// …). Must not be called while the simulation is running.
    pub fn kernel(&self) -> KernelGuard<'_> {
        self.shared.kernel.lock()
    }

    /// Install a schedule-exploration tie-break policy (see
    /// [`crate::SchedulePolicy`]). Must be set before [`Simulation::run`].
    pub fn set_schedule_policy(&self, p: Option<Box<dyn crate::SchedulePolicy>>) {
        self.kernel().set_schedule_policy(p);
    }

    /// Attach a structured tracer (see `hupc-trace`), overriding any
    /// process-global one adopted at construction. Must be called before
    /// [`Simulation::run`]: actors capture the tracer when they start.
    pub fn set_tracer(&self, t: Option<Arc<hupc_trace::Tracer>>) {
        self.kernel().set_tracer(t);
    }

    /// Set the default stack size (bytes) for actors spawned afterwards.
    /// Coroutine stacks are heap allocations faulted in lazily, so a large
    /// default costs only virtual address space; scale runs use small
    /// explicit sizes to keep the resident set per live actor minimal.
    ///
    /// Only affects stacks not yet created: an actor's stack is allocated at
    /// its first dispatch and keeps that size forever. Calling this after
    /// the run has started dispatching is almost certainly a bug (the stacks
    /// you meant to size already exist), so it trips a `debug_assert!`;
    /// size actors spawned mid-run with [`Ctx::spawn_with_stack`] instead.
    pub fn set_stack_size(&self, bytes: usize) {
        debug_assert!(
            !self.kernel().dispatched(),
            "set_stack_size after first dispatch: already-created stacks keep \
             their size; use spawn_with_stack for actors spawned mid-run"
        );
        self.shared
            .stack_size
            .store(bytes.max(coro::MIN_STACK), Ordering::SeqCst);
    }

    /// Current default actor stack size, bytes.
    pub fn stack_size(&self) -> usize {
        self.shared.stack_size.load(Ordering::SeqCst)
    }

    /// Spawn a root actor scheduled to start at time 0.
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> ActorRef
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let stack = self.stack_size();
        register_actor(&self.shared, name.into(), stack, Box::new(body))
    }

    /// [`Simulation::spawn`] with an explicit stack size for this actor.
    pub fn spawn_with_stack<F>(
        &mut self,
        name: impl Into<String>,
        stack_bytes: usize,
        body: F,
    ) -> ActorRef
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        register_actor(&self.shared, name.into(), stack_bytes, Box::new(body))
    }

    /// Run until every actor has finished. Panics (with diagnostics) on
    /// deadlock or if any actor panicked; use [`Simulation::run_result`] to
    /// observe those failures as values instead.
    pub fn run(&mut self) -> SimulationStats {
        self.run_result().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run until every actor has finished, returning a structured
    /// [`SimResult`]: on deadlock the error carries the full wait graph
    /// (which actor waits on which completion / barrier / mutex, with
    /// names); on actor panic it carries the actor and message. Tests can
    /// assert on the failure shape instead of parsing panic strings.
    pub fn run_result(&mut self) -> SimResult {
        assert!(!self.ran, "Simulation::run may only be called once");
        self.ran = true;
        self.sequential_run()
    }

    /// The run loop: pop the earliest event, dispatch it, resume the actor
    /// it wakes.
    ///
    /// One kernel critical section per event: it collects the previous
    /// dispatch's panic note, pops, does the event's bookkeeping and — for a
    /// `Wake` — peeks at the wake that will follow, so the scheduler can
    /// prefetch that actor's context while this one runs.
    fn sequential_run(&mut self) -> SimResult {
        loop {
            let (a, next) = {
                let mut k = self.kernel();
                // Panic payloads travel inside the kernel (recorded by the
                // panicking actor under the kernel guard before it switches
                // back), so propagation is a typed field handoff, not a join
                // side effect.
                if let Some((id, message)) = k.take_panic_note() {
                    return Err(SimError::ActorPanic {
                        actor: id,
                        name: k.actors[id].name.clone(),
                        message,
                    });
                }
                if k.live_actors == 0 {
                    return Ok(SimulationStats {
                        end_time: k.now(),
                        events: k.events_processed(),
                        actors: k.registered_actors(),
                        fast_path_hits: k.fast_path_hits,
                        handoffs: k.handoffs,
                        heap_ops: k.heap_ops,
                    });
                }
                let Some(event) = k.pop_event() else {
                    let wait_graph = k.wait_graph();
                    let time = k.now();
                    return Err(SimError::Deadlock { time, wait_graph });
                };
                match k.dispatch(event) {
                    Some(a) => (a, k.peek_next_wake()),
                    None => continue,
                }
            };
            // Dispatch-path locality: with a thousand actors taking turns,
            // each resume would otherwise start with dependent cache misses
            // on that actor's control block, saved frame and stack canary.
            // Start those loads for the *next* actor now, so they overlap
            // `a`'s run. Only a hint: if `a` schedules something earlier, or
            // a schedule policy picks another member of a tie, the lines
            // fetched are merely not the ones needed.
            if let Some(ActorSlot::Started(c)) = next.and_then(|n| self.actors.get(n)) {
                c.prefetch();
            }
            // Switch into the actor. It runs — possibly through many
            // fast-path simcalls — until it parks or finishes; the kernel
            // is free (no guard alive) the whole time it executes.
            if self.resume_actor(a, ResumeArg::Run) == Poll::Finished {
                self.retire(a);
            }
        }
    }

    /// Pull staged spawns into the slot table. Ids are dense and staged in
    /// registration order, so the table grows contiguously.
    fn drain_staged(&mut self) {
        let mut staged = relock(&self.shared.staged);
        for s in staged.drain(..) {
            debug_assert_eq!(s.id, self.actors.len(), "actor ids are dense");
            self.actors.push(ActorSlot::Pending {
                name: s.name,
                stack_size: s.stack_size,
                body: s.body,
            });
        }
    }

    /// Resume actor `a`, creating its execution context on first dispatch.
    fn resume_actor(&mut self, a: ActorId, arg: ResumeArg) -> Poll {
        // Only an actor past the end of the slot table can still have its
        // body in the staging list; everyone else resumes without touching
        // the staging lock.
        if a >= self.actors.len() {
            self.drain_staged();
        }
        if matches!(self.actors[a], ActorSlot::Pending { .. }) {
            let slot = std::mem::replace(&mut self.actors[a], ActorSlot::Done);
            let ActorSlot::Pending {
                name,
                stack_size,
                body,
            } = slot
            else {
                unreachable!()
            };
            let coro = self.make_context(a, name, stack_size, body);
            self.actors[a] = ActorSlot::Started(coro);
        }
        let ActorSlot::Started(c) = &mut self.actors[a] else {
            unreachable!("woke actor {a} with no execution context");
        };
        c.resume(arg)
    }

    /// Move a finished actor's slot to `Done`, recycling its stack.
    fn retire(&mut self, a: ActorId) {
        if let ActorSlot::Started(c) = &mut self.actors[a] {
            debug_assert!(c.finished());
            if let Some(stack) = c.take_stack() {
                if self.stack_pool.len() < STACK_POOL_CAP {
                    self.stack_pool.push(stack);
                }
            }
            self.actors[a] = ActorSlot::Done;
        }
    }

    /// Build the execution context for one actor: the body wrapped with
    /// panic containment and finish bookkeeping, on a coroutine where the
    /// target has the context switch and on an OS thread otherwise.
    fn make_context(
        &mut self,
        id: ActorId,
        name: String,
        stack_size: usize,
        body: ActorBody,
    ) -> Coro {
        let shared = Arc::clone(&self.shared);
        let wrapper: Box<dyn FnOnce(ResumeArg) + Send> = Box::new(move |first: ResumeArg| {
            if first == ResumeArg::Shutdown {
                // Torn down before ever running; skip the body entirely.
                return;
            }
            let tracer = shared.kernel.lock().tracer().cloned();
            let ctx = Ctx {
                shared: Arc::clone(&shared),
                id,
                deferred: Cell::new(0),
                tag: Cell::new(0),
                // Captured at first dispatch, i.e. once the run has started,
                // so a tracer attached any time before `run()` is seen by
                // every actor.
                tracer,
            };
            let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            // The hosting OS thread outlives this coroutine: a quiet teardown
            // unwind must not leave the flag set for whoever runs on that
            // thread next.
            QUIET_UNWIND.with(|q| q.set(false));
            let shutdown = matches!(
                &result,
                Err(p) if p.is::<ShutdownSignal>()
            );
            if shutdown {
                // Teardown: do not touch kernel bookkeeping; just finish.
                return;
            }
            if let Err(p) = result {
                let msg = panic_message(p.as_ref());
                // One kernel transaction: record the typed panic note and
                // mark the actor finished so the scheduler does not hang.
                // A panic inside a `with_kernel` closure unwound through the
                // kernel guard, which released the kernel on the way out, so
                // this cannot find it held.
                let mut k = shared.kernel.lock();
                k.note_panic(id, msg);
                k.actors[id].status = ActorStatus::Finished;
                k.live_actors -= 1;
                return;
            }
            let mut k = shared.kernel.lock();
            k.actors[id].status = ActorStatus::Finished;
            k.live_actors -= 1;
            let exit = k.actors[id].exit;
            k.fire_completion(exit);
        });
        if coro::SWITCH_SUPPORTED {
            let stack = pooled_stack(&mut self.stack_pool, stack_size);
            Coro::Switch(SwitchCoro::new(stack, wrapper))
        } else {
            Coro::Thread(ThreadCoro::new(name, stack_size, wrapper))
        }
    }
}

/// A stack of exactly `want` usable bytes, reused from `pool` when one is
/// available.
fn pooled_stack(pool: &mut Vec<Stack>, size: usize) -> Stack {
    let want = size.max(coro::MIN_STACK).next_multiple_of(4096);
    if let Some(pos) = pool.iter().rposition(|s| s.size() == want) {
        return pool.swap_remove(pos);
    }
    Stack::new(want)
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Tear down every unfinished actor: resume it with the shutdown
        // flag so it unwinds out of user code (quietly) and finishes.
        // Never-dispatched actors have no context yet — their bodies are
        // simply dropped. An actor whose teardown unwind blocks again is
        // resumed with shutdown again (a simcall in a `Drop` during the
        // unwind re-panics, which aborts — same contract as always).
        self.drain_staged();
        for a in 0..self.actors.len() {
            loop {
                let live = matches!(&self.actors[a], ActorSlot::Started(c) if !c.finished());
                if !live {
                    break;
                }
                let _ = self.resume_actor(a, ResumeArg::Shutdown);
            }
            self.retire(a);
        }
    }
}

type ActorBody = Box<dyn FnOnce(&Ctx) + Send + 'static>;

/// Register an actor: create the kernel record, schedule its first wake at
/// the current time, and stage the body for the scheduler to start lazily on
/// first dispatch.
fn register_actor(
    shared: &Arc<Shared>,
    name: String,
    stack_size: usize,
    body: ActorBody,
) -> ActorRef {
    let mut k = shared.kernel.lock();
    let spawned_at = k.now();
    let exit = k.new_completion();
    let id = k.alloc_actor(ActorMeta {
        name: name.clone(),
        status: ActorStatus::Blocked,
        exit,
        blocked_on: BlockKind::Start,
        wake_epoch: 0,
        timed_out: false,
        blocked_since: spawned_at,
        recent: RecentRing::new(),
    });
    k.live_actors += 1;
    k.wake_at(spawned_at, id);
    drop(k);
    relock(&shared.staged).push(StagedActor {
        id,
        name,
        stack_size,
        body,
    });
    ActorRef { id, exit }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Actor-side handle to the simulation: every simcall goes through this.
///
/// A `Ctx` is passed to the actor body and borrowed by anything that needs to
/// advance virtual time or block.
///
/// It belongs to its actor alone. `Ctx` and [`Simulation`] are deliberately
/// `!Sync`: no reference to either can reach a second host thread, which is
/// what lets the run own its kernel instead of locking it.
///
/// ```
/// fn assert_send<T: Send>() {}
/// assert_send::<hupc_sim::Ctx>();
/// assert_send::<hupc_sim::Simulation>();
/// ```
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<hupc_sim::Ctx>();
/// ```
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<hupc_sim::Simulation>();
/// ```
pub struct Ctx {
    shared: Arc<Shared>,
    id: ActorId,
    /// Lazily accumulated pure delay ([`Ctx::advance_lazy`]): virtual time
    /// this actor has charged but not yet pushed into the kernel. Flushed —
    /// as a single logical advance — before any kernel interaction, so no
    /// other actor (and no event) can ever observe the stale clock. A plain
    /// `Cell`: only this actor ever touches it, and it keeps `Ctx` `!Sync`,
    /// which the owned kernel relies on (see `kernel_cell`).
    deferred: Cell<u64>,
    /// Actor-local tag word (see [`Ctx::set_actor_tag`]). Lives on the
    /// context rather than in OS-thread TLS because actors share the
    /// scheduler's thread on the coroutine backend.
    tag: Cell<u64>,
    /// Tracer captured at actor start (cheap clone of the kernel's).
    tracer: Option<Arc<hupc_trace::Tracer>>,
}

impl Ctx {
    /// This actor's id (unique within the simulation, dense from 0).
    #[inline]
    pub fn actor_id(&self) -> usize {
        self.id
    }

    /// Actor name (as given at spawn).
    pub fn name(&self) -> String {
        self.kernel().actors[self.id].name.clone()
    }

    /// Set this actor's local tag word — scratch state scoped to the actor,
    /// not the OS thread. Runtime layers use it for per-actor flags that
    /// OS-thread designs would put in TLS (e.g. `hupc-upc`'s sub-thread
    /// context marker); with coroutine actors all sharing one kernel
    /// thread, TLS would leak across actors.
    #[inline]
    pub fn set_actor_tag(&self, v: u64) {
        self.tag.set(v);
    }

    /// This actor's local tag word (0 until set).
    #[inline]
    pub fn actor_tag(&self) -> u64 {
        self.tag.get()
    }

    /// Current virtual time (includes this actor's lazily deferred delay).
    pub fn now(&self) -> Time {
        self.kernel().now() + self.deferred.get()
    }

    // Inlined so the guard stays in the caller's registers: out of line it
    // is built in one frame and copied to the next on every simcall.
    #[inline(always)]
    fn kernel(&self) -> KernelGuard<'_> {
        self.shared.kernel.lock()
    }

    /// Take the kernel after flushing any lazily deferred delay. Every
    /// simcall that reads or mutates kernel state goes through this, which
    /// is what makes the lazy clock invisible: by the time anything can
    /// observe the kernel, the clock has caught up.
    #[inline]
    fn kernel_synced(&self) -> KernelGuard<'_> {
        // `advance` is the flush: it merges the deferred delay into its own
        // charge, bypasses or blocks, and returns with the clock caught up.
        if self.deferred.get() > 0 {
            self.advance(0);
        }
        self.kernel()
    }

    /// Run `f` with mutable kernel access (for platform layers computing
    /// multi-resource message costs). Does not block or advance time beyond
    /// flushing this actor's lazily deferred delay.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.kernel_synced())
    }

    /// Yield to the scheduler and suspend until woken: mark the block reason
    /// in the kernel, then switch back to the scheduler loop. On the
    /// coroutine backend this is a user-space context switch — no futex, no
    /// kernel round trip.
    fn block(&self, on: BlockKind) {
        {
            let mut k = self.kernel();
            debug_assert_ne!(k.actors[self.id].status, ActorStatus::Finished);
            if k.actors[self.id].status != ActorStatus::Runnable {
                k.mark_blocked(self.id, on);
            }
        }
        if coro::yield_parked() == ResumeArg::Shutdown {
            QUIET_UNWIND.with(|q| q.set(true));
            std::panic::panic_any(ShutdownSignal);
        }
    }

    /// Consume the timed-out flag set by an expired timed wait.
    fn take_timed_out(&self) -> bool {
        let mut k = self.kernel();
        std::mem::take(&mut k.actors[self.id].timed_out)
    }

    /// Charge `dt` of virtual time to this actor (pure delay, no resource).
    ///
    /// Fast path: when the resulting wake would be the strictly earliest
    /// pending event — the overwhelmingly common case — the clock advances
    /// inline and the actor keeps running, skipping the
    /// yield → scheduler → pop → resume round trip entirely.
    pub fn advance(&self, dt: Time) {
        // Any lazily deferred delay elapses first; merging it into this
        // charge keeps the combined delay a single logical advance.
        let dt = dt + self.deferred.replace(0);
        if dt == 0 {
            return;
        }
        {
            let mut k = self.kernel();
            let t = k.now() + dt;
            if k.bypass_eligible(t) {
                k.bypass_resume(self.id, t);
                return;
            }
            let me = self.id;
            k.wake_at(t, me);
        }
        self.block(BlockKind::Advance);
    }

    /// Charge `dt` of virtual time *lazily*: the delay accumulates in the
    /// actor and is folded into its next kernel interaction (any simcall, or
    /// an explicit [`Ctx::advance`]) as one combined advance. Consecutive
    /// lazy charges coalesce — no lock, no event, no context switch — which
    /// makes this the cheapest way to express back-to-back modeled overheads.
    ///
    /// Semantically the total delay is charged as a *single* advance at the
    /// flush point; opt in only where intermediate wake points are not
    /// observable (no other actor can interact with this one in between),
    /// which is exactly the straight-line overhead-then-operation pattern.
    pub fn advance_lazy(&self, dt: Time) {
        self.deferred.set(self.deferred.get() + dt);
    }

    /// Charge a FIFO service of `service` time on `res`, blocking until the
    /// service completes (this is how compute-on-a-core and memory-traffic
    /// charges are expressed). Takes the same scheduler-bypass fast path as
    /// [`Ctx::advance`] when the service completion is the next event.
    pub fn acquire(&self, res: ResourceId, service: Time) {
        {
            let mut k = self.kernel_synced();
            let t = k.acquire(res, service);
            if k.bypass_eligible(t) {
                k.bypass_resume(self.id, t);
                return;
            }
            let me = self.id;
            k.wake_at(t, me);
        }
        self.block(BlockKind::Resource(res));
    }

    /// Block until `comp` fires. Returns immediately if it already has.
    pub fn wait(&self, comp: CompletionId) {
        {
            let mut k = self.kernel_synced();
            if k.is_complete(comp) {
                return;
            }
            k.add_completion_waiter(comp, self.id);
            let me = self.id;
            k.mark_blocked(me, BlockKind::Completion(comp));
        }
        self.block(BlockKind::Completion(comp));
    }

    /// Like [`Ctx::wait`], but give up after `timeout` of virtual time: the
    /// waiter is withdrawn and `Err(WaitTimedOut)` returned. The completion
    /// itself is unaffected and may still fire later.
    pub fn wait_timeout(&self, comp: CompletionId, timeout: Time) -> Result<(), WaitTimedOut> {
        {
            let mut k = self.kernel_synced();
            if k.is_complete(comp) {
                return Ok(());
            }
            k.add_completion_waiter(comp, self.id);
            let me = self.id;
            k.mark_blocked(me, BlockKind::Completion(comp));
            let deadline = k.now() + timeout;
            k.schedule_timeout(me, deadline);
        }
        self.block(BlockKind::Completion(comp));
        if self.take_timed_out() {
            Err(WaitTimedOut)
        } else {
            Ok(())
        }
    }

    /// Non-blocking poll of a completion.
    pub fn test(&self, comp: CompletionId) -> bool {
        self.kernel_synced().is_complete(comp)
    }

    /// Park on a condition variable (standalone; re-check your predicate on
    /// wake — wakes are targeted but predicates are the caller's business).
    pub fn cond_wait(&self, cond: CondId) {
        {
            let mut k = self.kernel_synced();
            k.add_cond_waiter(cond, self.id);
            let me = self.id;
            k.mark_blocked(me, BlockKind::Cond(cond));
        }
        self.block(BlockKind::Cond(cond));
    }

    /// Wake one actor parked on `cond`.
    pub fn cond_notify_one(&self, cond: CondId) -> bool {
        self.kernel_synced().cond_notify_one(cond)
    }

    /// Wake all actors parked on `cond`.
    pub fn cond_notify_all(&self, cond: CondId) -> usize {
        self.kernel_synced().cond_notify_all(cond)
    }

    /// Arrive at `bar` and block until all parties have arrived. The barrier
    /// releases everyone at the last arrival time plus `release_cost`.
    pub fn barrier_wait_cost(&self, bar: BarrierId, release_cost: Time) {
        let released_now = {
            let mut k = self.kernel_synced();
            let me = self.id;
            let last = k.barrier_arrive(bar, me, release_cost);
            if !last {
                k.mark_blocked(me, BlockKind::Barrier(bar));
            }
            last
        };
        if released_now {
            self.advance(release_cost);
        } else {
            self.block(BlockKind::Barrier(bar));
        }
    }

    /// [`Ctx::barrier_wait_cost`] with zero release cost.
    pub fn barrier_wait(&self, bar: BarrierId) {
        self.barrier_wait_cost(bar, 0);
    }

    /// Arrive at `bar` but give up after `timeout` if the barrier has not
    /// released by then. On timeout the arrival is withdrawn (the barrier
    /// will need `parties` fresh arrivals to release — it is effectively
    /// broken for this round, which is exactly what the caller should
    /// surface) and `Err(WaitTimedOut)` is returned.
    pub fn barrier_wait_timeout_cost(
        &self,
        bar: BarrierId,
        release_cost: Time,
        timeout: Time,
    ) -> Result<(), WaitTimedOut> {
        let released_now = {
            let mut k = self.kernel_synced();
            let me = self.id;
            let last = k.barrier_arrive(bar, me, release_cost);
            if !last {
                k.mark_blocked(me, BlockKind::Barrier(bar));
                let deadline = k.now() + timeout;
                k.schedule_timeout(me, deadline);
            }
            last
        };
        if released_now {
            self.advance(release_cost);
            return Ok(());
        }
        self.block(BlockKind::Barrier(bar));
        if self.take_timed_out() {
            Err(WaitTimedOut)
        } else {
            Ok(())
        }
    }

    /// Acquire a simulated mutex (FIFO fair), blocking if held.
    pub fn mutex_lock(&self, m: MutexId) {
        let got = {
            let mut k = self.kernel_synced();
            let me = self.id;
            let got = k.mutex_lock_or_enqueue(m, me);
            if !got {
                k.mark_blocked(me, BlockKind::Mutex(m));
            }
            got
        };
        if !got {
            self.block(BlockKind::Mutex(m));
        }
    }

    /// Try to acquire without blocking.
    pub fn mutex_try_lock(&self, m: MutexId) -> bool {
        let me = self.id;
        self.kernel_synced().mutex_try_lock(m, me)
    }

    /// Release a simulated mutex; panics if this actor is not the owner.
    pub fn mutex_unlock(&self, m: MutexId) {
        let me = self.id;
        self.kernel_synced().mutex_unlock(m, me);
    }

    /// Spawn a child actor starting at the current time. The child is a full actor (own coroutine stack, created
    /// lazily at its first wake); join via
    /// `ctx.wait(child.exit_completion())`.
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> ActorRef
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let stack = self.shared.stack_size.load(Ordering::SeqCst);
        self.spawn_with_stack(name, stack, body)
    }

    /// [`Ctx::spawn`] with an explicit stack size (bytes) for the child.
    pub fn spawn_with_stack<F>(
        &self,
        name: impl Into<String>,
        stack_bytes: usize,
        body: F,
    ) -> ActorRef
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        drop(self.kernel_synced()); // flush lazy delay before reading `now`
        register_actor(&self.shared, name.into(), stack_bytes, Box::new(body))
    }

    /// Block until `child` has finished.
    pub fn join(&self, child: ActorRef) {
        self.wait(child.exit_completion());
    }

    // ----- structured tracing (observationally free) ----------------------

    /// The tracer this actor captured at start, if any.
    pub fn tracer(&self) -> Option<&Arc<hupc_trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Whether a tracer is attached, at any level. Instrumentation that
    /// computes a payload (a trace location, a distance, a span tag) runs
    /// under this predicate, so an untraced run pays one branch per site
    /// and no argument work; `trace_emit` / `trace_count` still apply the
    /// level.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Emit a structured event stamped with this actor's current virtual
    /// time (including lazily deferred delay). Never advances time.
    #[inline]
    pub fn trace_emit(&self, kind: hupc_trace::EventKind, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            if t.enabled(hupc_trace::TraceLevel::Full) {
                t.emit(self.now(), self.id as u32, kind, a, b);
            }
        }
    }

    /// Bump a metrics counter (active at `Counters` level and above).
    #[inline]
    pub fn trace_count(&self, name: &'static str, loc: hupc_trace::Loc, v: u64) {
        if let Some(t) = &self.tracer {
            t.count(name, loc, v);
        }
    }

    /// Record a metrics histogram observation (at `Counters` and above).
    #[inline]
    pub fn trace_observe(&self, name: &'static str, loc: hupc_trace::Loc, v: u64) {
        if let Some(t) = &self.tracer {
            t.observe(name, loc, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_actor_advances_time() {
        let mut sim = Simulation::new();
        sim.spawn("a", |ctx| {
            assert_eq!(ctx.now(), 0);
            ctx.advance(time::us(5));
            assert_eq!(ctx.now(), time::us(5));
        });
        let stats = sim.run();
        assert_eq!(stats.end_time, time::us(5));
        assert_eq!(stats.actors, 1);
    }

    #[test]
    fn actors_interleave_deterministically() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for id in 0..3u64 {
            let order = Arc::clone(&order);
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::us(10 - id)); // a2 finishes first
                order.lock().unwrap().push(id);
            });
        }
        sim.run();
        assert_eq!(*order.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn barrier_releases_at_max_arrival() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(3);
        for id in 0..3u64 {
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::us(id + 1));
                ctx.barrier_wait(bar);
                assert_eq!(ctx.now(), time::us(3));
            });
        }
        sim.run();
    }

    #[test]
    fn barrier_release_cost_applies_to_everyone() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        for id in 0..2u64 {
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::us(id));
                ctx.barrier_wait_cost(bar, time::us(7));
                assert_eq!(ctx.now(), time::us(1) + time::us(7));
            });
        }
        sim.run();
    }

    #[test]
    fn barrier_is_reusable() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        for id in 0..2u64 {
            sim.spawn(format!("a{id}"), move |ctx| {
                for round in 0..5u64 {
                    ctx.advance(time::us(id + 1));
                    ctx.barrier_wait(bar);
                    let _ = round;
                }
            });
        }
        sim.run();
    }

    #[test]
    fn structured_tracer_records_kernel_events_without_perturbing_time() {
        use hupc_trace::{EventKind as K, TraceLevel, Tracer};

        fn run(tracer: Option<Arc<Tracer>>) -> SimulationStats {
            let mut sim = Simulation::new();
            sim.set_tracer(tracer);
            let bar = sim.kernel().new_barrier(2);
            for id in 0..2u64 {
                sim.spawn(format!("a{id}"), move |ctx| {
                    ctx.advance(time::us(id + 1));
                    ctx.barrier_wait(bar); // parks + scheduler wakes
                    if id == 0 {
                        // Runs on after a1 finished: sole live actor, so
                        // these advances take the bypass fast path.
                        ctx.advance(time::us(1));
                        ctx.advance(time::us(2));
                    }
                });
            }
            sim.run()
        }

        let plain = run(None);
        let tracer = Arc::new(Tracer::new(TraceLevel::Full));
        let traced = run(Some(Arc::clone(&tracer)));
        // Observationally free: identical stats with and without recording.
        assert_eq!(plain, traced);
        let merged = tracer.merge();
        assert!(!merged.is_empty());
        // Totally ordered by (time, seq); seqs unique.
        assert!(merged
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));
        // The run exercises both the fast path and the full scheduler path.
        assert!(merged.iter().any(|e| e.kind == K::FastPathBypass));
        assert!(merged.iter().any(|e| e.kind == K::Wake));
        assert!(merged.iter().any(|e| e.kind == K::Park));
        assert!(merged.iter().any(|e| e.kind == K::Schedule));
        assert_eq!(tracer.events_dropped(), 0);
    }

    #[test]
    fn resource_contention_serializes() {
        let mut sim = Simulation::new();
        let res = sim.kernel().new_resource("link");
        let ends = Arc::new(Mutex::new(Vec::new()));
        for id in 0..3u64 {
            let ends = Arc::clone(&ends);
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.acquire(res, time::us(10));
                ends.lock().unwrap().push((id, ctx.now()));
            });
        }
        sim.run();
        let ends = ends.lock().unwrap();
        // All three requested at t=0; FIFO order by spawn (= event seq).
        assert_eq!(*ends, vec![
            (0, time::us(10)),
            (1, time::us(20)),
            (2, time::us(30)),
        ]);
    }

    #[test]
    fn completion_wait_and_test() {
        let mut sim = Simulation::new();
        let comp = sim.kernel().new_completion();
        sim.spawn("setter", move |ctx| {
            ctx.advance(time::us(50));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, comp);
            });
        });
        sim.spawn("waiter", move |ctx| {
            assert!(!ctx.test(comp));
            ctx.wait(comp);
            assert_eq!(ctx.now(), time::us(50));
            assert!(ctx.test(comp));
        });
        sim.run();
    }

    #[test]
    fn wait_on_a_stale_completion_returns_at_once() {
        let mut sim = Simulation::new();
        let comp = sim.kernel().new_completion();
        sim.kernel().complete_at(time::us(5), comp);
        sim.spawn("waiter", move |ctx| {
            ctx.advance(time::us(10));
            // `comp` fired at 5 us; its slot now holds a pending completion.
            let next = ctx.with_kernel(|k| k.new_completion());
            assert_eq!(next.slot(), comp.slot());
            assert!(ctx.test(comp) && !ctx.test(next));
            ctx.wait(comp);
            assert!(ctx.wait_timeout(comp, 1).is_ok());
            assert_eq!(ctx.now(), time::us(10));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, next);
            });
        });
        sim.run();
    }

    #[test]
    fn join_after_the_exit_slot_is_reused_returns_at_once() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |ctx| ctx.advance(time::us(1)));
            let exit = child.exit_completion();
            ctx.advance(time::us(5));
            // The child finished at 1 us; take its exit slot for a new
            // completion, still pending when the parent joins.
            let next = ctx.with_kernel(|k| k.new_completion());
            assert_eq!(next.slot(), exit.slot());
            ctx.join(child);
            assert_eq!(ctx.now(), time::us(5));
            assert!(!ctx.test(next));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, next);
            });
        });
        sim.run();
    }

    #[test]
    fn mutex_is_fifo_fair() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let m = sim.kernel().new_mutex();
        for id in 0..3u64 {
            let order = Arc::clone(&order);
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::ns(id)); // stagger lock attempts
                ctx.mutex_lock(m);
                order.lock().unwrap().push(id);
                ctx.advance(time::us(10));
                ctx.mutex_unlock(m);
            });
        }
        sim.run();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn dynamic_spawn_and_join() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new();
        let c2 = Arc::clone(&counter);
        sim.spawn("parent", move |ctx| {
            let children: Vec<ActorRef> = (0..4)
                .map(|i| {
                    let c = Arc::clone(&c2);
                    ctx.spawn(format!("child{i}"), move |cctx| {
                        cctx.advance(time::us(i + 1));
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for ch in children {
                ctx.join(ch);
            }
            assert_eq!(ctx.now(), time::us(4));
        });
        let stats = sim.run();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(stats.actors, 5);
    }

    #[test]
    fn cond_wait_notify() {
        let mut sim = Simulation::new();
        let cond = sim.kernel().new_cond();
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        sim.spawn("waiter", move |ctx| {
            while f2.load(Ordering::Relaxed) == 0 {
                ctx.cond_wait(cond);
            }
            assert_eq!(ctx.now(), time::us(30));
        });
        let f3 = Arc::clone(&flag);
        sim.spawn("notifier", move |ctx| {
            ctx.advance(time::us(30));
            f3.store(1, Ordering::Relaxed);
            ctx.cond_notify_all(cond);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "actor panicked")]
    fn actor_panic_propagates() {
        let mut sim = Simulation::new();
        sim.spawn("boom", |_ctx| panic!("kaboom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = Simulation::new();
        let m = sim.kernel().new_mutex();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("a", move |ctx| {
            ctx.mutex_lock(m);
            ctx.barrier_wait(bar);
        });
        sim.spawn("b", move |ctx| {
            ctx.advance(1);
            ctx.mutex_lock(m); // never released while a waits at barrier
            ctx.barrier_wait(bar);
        });
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once() -> (Time, u64) {
            let mut sim = Simulation::new();
            let res = sim.kernel().new_resource("r");
            let bar = sim.kernel().new_barrier(4);
            for id in 0..4u64 {
                sim.spawn(format!("a{id}"), move |ctx| {
                    for i in 0..10u64 {
                        ctx.acquire(res, time::ns(100 + id * 13 + i * 7));
                        ctx.barrier_wait(bar);
                    }
                });
            }
            let stats = sim.run();
            (stats.end_time, stats.events)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn drop_without_run_does_not_hang() {
        let mut sim = Simulation::new();
        sim.spawn("never-ran", |ctx| {
            ctx.advance(time::secs(100));
        });
        drop(sim); // must tear down the pending actor promptly
    }

    #[test]
    fn drop_after_partial_run_tears_down_suspended_actors() {
        // One actor panics at t=1; the other is left suspended at a barrier.
        // Dropping the simulation must unwind the suspended actor cleanly.
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("stuck", move |ctx| {
            ctx.barrier_wait(bar);
        });
        sim.spawn("boom", |ctx| {
            ctx.advance(1);
            panic!("kaboom");
        });
        assert!(matches!(
            sim.run_result().unwrap_err(),
            SimError::ActorPanic { .. }
        ));
        drop(sim);
    }

    #[test]
    fn actor_names_and_ids() {
        let mut sim = Simulation::new();
        let a = sim.spawn("alpha", |ctx| {
            assert_eq!(ctx.name(), "alpha");
            assert_eq!(ctx.actor_id(), 0);
        });
        assert_eq!(a.id, 0);
        sim.run();
    }

    #[test]
    fn actor_tag_is_per_actor_not_per_thread() {
        // Two actors interleave; each sets its own tag and must never see
        // the other's. (On OS-thread TLS this held trivially; with
        // coroutines sharing one thread, it is the actor-local tag that
        // preserves it.)
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        for id in 0..2u64 {
            sim.spawn(format!("a{id}"), move |ctx| {
                assert_eq!(ctx.actor_tag(), 0);
                ctx.set_actor_tag(100 + id);
                ctx.barrier_wait(bar); // the other actor runs in between
                assert_eq!(ctx.actor_tag(), 100 + id);
                ctx.barrier_wait(bar);
                assert_eq!(ctx.actor_tag(), 100 + id);
            });
        }
        sim.run();
    }

    #[test]
    fn event_log_and_stats_are_reproducible_at_volume() {
        // 64 actors × 1 000 simcalls (an interpreter gets a slice of it),
        // about a third of them full handoffs: two runs of the same program
        // produce byte-identical kernel traces and stats. Under Miri every
        // actor is an OS thread, so each handoff moves the owned (unlocked)
        // kernel between host threads, ordered by nothing but the handoff
        // token.
        const ACTORS: u64 = if cfg!(miri) { 8 } else { 64 };
        const ROUNDS: u64 = if cfg!(miri) { 50 } else { 250 };
        fn run_many() -> (Vec<hupc_trace::Event>, SimulationStats) {
            let mut sim = Simulation::new();
            sim.set_stack_size(64 * 1024);
            let tracer = Arc::new(hupc_trace::Tracer::new(hupc_trace::TraceLevel::Full));
            sim.set_tracer(Some(Arc::clone(&tracer)));
            let res = sim.kernel().new_resource("r");
            let bar = sim.kernel().new_barrier(ACTORS as usize);
            for id in 0..ACTORS {
                sim.spawn(format!("a{id}"), move |ctx| {
                    for i in 0..ROUNDS {
                        ctx.advance(time::ns(1 + (id * 7 + i) % 13));
                        ctx.advance_lazy(time::ns(2));
                        ctx.acquire(res, time::ns(3 + i % 5));
                        assert!(ctx.now() > 0);
                        if i % 50 == 49 {
                            ctx.barrier_wait(bar);
                        }
                    }
                });
            }
            let stats = sim.run();
            assert_eq!(tracer.events_dropped(), 0);
            (tracer.merge(), stats)
        }
        let first = run_many();
        assert!(first.1.handoffs > ACTORS * ROUNDS / 2, "{:?}", first.1);
        assert_eq!(first, run_many());
    }

    #[test]
    fn spawn_with_stack_runs_on_small_stacks() {
        let mut sim = Simulation::new();
        sim.set_stack_size(32 * 1024);
        assert_eq!(sim.stack_size(), 32 * 1024);
        let n = 200;
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        sim.spawn_with_stack("parent", 64 * 1024, move |ctx| {
            let kids: Vec<ActorRef> = (0..n)
                .map(|i| {
                    let c = Arc::clone(&c);
                    ctx.spawn_with_stack(format!("k{i}"), 16 * 1024, move |k| {
                        k.advance(time::ns(i as u64 + 1));
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        });
        let stats = sim.run();
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(stats.actors, n + 1);
    }

    #[test]
    fn deadlock_report_names_actors_and_primitives() {
        // "miner" holds the mutex and parks at a barrier nobody else will
        // reach; "hauler" queues on the mutex. The wait graph must name both
        // actors and say which primitive each one is stuck on.
        let mut sim = Simulation::new();
        let m = sim.kernel().new_mutex();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("miner", move |ctx| {
            ctx.mutex_lock(m);
            ctx.barrier_wait(bar);
        });
        sim.spawn("hauler", move |ctx| {
            ctx.advance(1);
            ctx.mutex_lock(m);
            ctx.barrier_wait(bar);
        });
        let err = sim.run_result().unwrap_err();
        match &err {
            SimError::Deadlock { time, wait_graph } => {
                assert_eq!(*time, 1);
                assert_eq!(wait_graph.edges.len(), 2);
                let text = wait_graph.to_string();
                assert!(text.contains("miner"), "missing actor name: {text}");
                assert!(text.contains("hauler"), "missing actor name: {text}");
                assert!(text.contains("barrier"), "missing primitive: {text}");
                assert!(text.contains("mutex"), "missing primitive: {text}");
                // the mutex edge reports its current owner
                assert!(text.contains("held by actor 0 'miner'"), "{text}");
            }
            other => panic!("expected Deadlock, got {other}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("simulation deadlock at t=1"), "{rendered}");
    }

    #[test]
    fn schedule_policy_reorders_ties_only() {
        use crate::kernel::{ReadyEvent, SchedulePolicy};

        /// Always dispatch the *last* member of a tie (reverse of default).
        struct PickLast(u64);
        impl SchedulePolicy for PickLast {
            fn choose(&mut self, ready: &[ReadyEvent]) -> usize {
                assert!(ready.len() > 1, "policy consulted without a tie");
                assert!(ready.windows(2).all(|w| w[0].seq < w[1].seq));
                self.0 += 1;
                ready.len() - 1
            }
        }

        fn run_once(policy: bool) -> (Vec<u64>, Time) {
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Simulation::new();
            if policy {
                sim.set_schedule_policy(Some(Box::new(PickLast(0))));
            }
            for id in 0..3u64 {
                let order = Arc::clone(&order);
                sim.spawn(format!("a{id}"), move |ctx| {
                    // The only tie is the three initial wakes at t=0; record
                    // dispatch order, then advance distinct amounts.
                    order.lock().unwrap().push(id);
                    ctx.advance(time::us(10 + id));
                });
            }
            let stats = sim.run();
            let order = order.lock().unwrap().clone();
            (order, stats.end_time)
        }

        let (default_order, t0) = run_once(false);
        let (reversed, t1) = run_once(true);
        assert_eq!(default_order, vec![0, 1, 2]);
        // Ties reorder; virtual end time is untouched (same instants).
        assert_eq!(reversed, vec![2, 1, 0]);
        assert_eq!(t0, t1);
    }

    #[test]
    fn schedule_policy_is_not_consulted_without_ties() {
        use crate::kernel::{ReadyEvent, SchedulePolicy};
        struct MustNotRun;
        impl SchedulePolicy for MustNotRun {
            fn choose(&mut self, _ready: &[ReadyEvent]) -> usize {
                panic!("no ties exist in this program");
            }
        }
        // Stagger every start so no two events ever share an instant: the
        // parent spawns children at distinct times and each child advances a
        // distinct amount.
        let mut sim = Simulation::new();
        sim.set_schedule_policy(Some(Box::new(MustNotRun)));
        sim.spawn("parent", |ctx| {
            for id in 0..3u64 {
                ctx.advance(time::us(1));
                ctx.spawn(format!("a{id}"), move |cctx| {
                    cctx.advance(time::us(100 + 10 * id));
                });
            }
        });
        sim.run();
    }

    #[test]
    fn deadlock_report_includes_activity_tail() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("stuck", move |ctx| {
            ctx.advance(time::us(3));
            ctx.barrier_wait(bar); // second party never arrives
        });
        let err = sim.run_result().unwrap_err();
        let SimError::Deadlock { wait_graph, .. } = &err else {
            panic!("expected Deadlock, got {err}");
        };
        assert_eq!(wait_graph.edges.len(), 1);
        let e = &wait_graph.edges[0];
        // Typed fields: park time plus the compact activity tail.
        assert_eq!(e.blocked_since, time::us(3));
        assert_eq!(
            e.recent,
            vec![
                "sched@0ns->0ns".to_string(),     // spawn schedules first wake
                "bypass@3.00us".to_string(),      // lone advance takes fast path
                "park@3.00us(barrier#0)".to_string(),
            ]
        );
        // Rendered report pins the format.
        let text = wait_graph.to_string();
        assert!(
            text.contains("blocked since t=3.00us; recent: [sched@0ns->0ns, bypass@3.00us, park@3.00us(barrier#0)]"),
            "unexpected report format:\n{text}"
        );
    }

    #[test]
    fn panic_inside_with_kernel_is_reported_typed() {
        // A panic while *holding the kernel* unwinds through its guard, which
        // must release it: the typed note still comes through run_result.
        let mut sim = Simulation::new();
        sim.spawn("locked-boom", |ctx| {
            ctx.advance(1);
            ctx.with_kernel(|_k| panic!("boom under lock"));
        });
        match sim.run_result().unwrap_err() {
            SimError::ActorPanic { actor, name, message } => {
                assert_eq!(actor, 0);
                assert_eq!(name, "locked-boom");
                assert!(message.contains("boom under lock"), "{message}");
            }
            other => panic!("expected ActorPanic, got {other}"),
        }
    }

    #[test]
    fn nested_kernel_access_is_a_typed_panic_not_a_hang() {
        // A simcall from inside a `with_kernel` closure re-enters the kernel
        // the closure already holds. Behind a std mutex that self-deadlocked;
        // the owned kernel's `held` flag makes it a panic naming the
        // re-entry, reported like any other actor panic.
        let mut sim = Simulation::new();
        sim.spawn("ok", |ctx| ctx.advance(5));
        sim.spawn("nester", |ctx| {
            ctx.advance(1);
            ctx.with_kernel(|_k| ctx.now());
        });
        match sim.run_result().unwrap_err() {
            SimError::ActorPanic { actor, name, message } => {
                assert_eq!((actor, name.as_str()), (1, "nester"));
                assert!(message.contains("nested kernel access"), "{message}");
            }
            other => panic!("expected ActorPanic, got {other}"),
        }
        // The unwind released the kernel: the owner can still read it.
        assert_eq!(sim.kernel().now(), 1);
    }

    #[test]
    fn first_of_concurrent_panics_wins() {
        // Two actors panic at the same virtual time; the first dispatched
        // panic is the one reported, and the run still tears down cleanly.
        let mut sim = Simulation::new();
        for id in 0..2u64 {
            sim.spawn(format!("boom{id}"), move |ctx| {
                ctx.advance(time::us(5));
                panic!("kaboom {id}");
            });
        }
        match sim.run_result().unwrap_err() {
            SimError::ActorPanic { actor, message, .. } => {
                assert_eq!(actor, 0);
                assert!(message.contains("kaboom 0"), "{message}");
            }
            other => panic!("expected ActorPanic, got {other}"),
        }
    }

    #[test]
    fn run_result_reports_actor_panic() {
        let mut sim = Simulation::new();
        sim.spawn("ok", |ctx| ctx.advance(5));
        sim.spawn("boom", |ctx| {
            ctx.advance(1);
            panic!("kaboom");
        });
        match sim.run_result().unwrap_err() {
            SimError::ActorPanic { actor, name, message } => {
                assert_eq!(actor, 1);
                assert_eq!(name, "boom");
                assert!(message.contains("kaboom"), "{message}");
            }
            other => panic!("expected ActorPanic, got {other}"),
        }
    }

    #[test]
    fn wait_timeout_expires_and_succeeds() {
        let mut sim = Simulation::new();
        let comp = sim.kernel().new_completion();
        sim.spawn("setter", move |ctx| {
            ctx.advance(time::us(50));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, comp);
            });
        });
        sim.spawn("waiter", move |ctx| {
            // too short: expires at t=10
            assert!(ctx.wait_timeout(comp, time::us(10)).is_err());
            assert_eq!(ctx.now(), time::us(10));
            // long enough: returns at completion time, not at the deadline
            assert!(ctx.wait_timeout(comp, time::secs(1)).is_ok());
            assert_eq!(ctx.now(), time::us(50));
            // already complete: immediate success
            assert!(ctx.wait_timeout(comp, 1).is_ok());
            assert_eq!(ctx.now(), time::us(50));
        });
        sim.run();
    }

    #[test]
    fn barrier_wait_timeout_expires() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("present", move |ctx| {
            let r = ctx.barrier_wait_timeout_cost(bar, 0, time::us(20));
            assert!(r.is_err(), "nobody else ever arrives");
            assert_eq!(ctx.now(), time::us(20));
        });
        sim.spawn("absent", move |ctx| {
            // never joins the barrier; outlives the waiter's deadline
            ctx.advance(time::us(100));
        });
        sim.run();
    }

    #[test]
    fn barrier_wait_timeout_releases_normally() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        for id in 0..2u64 {
            sim.spawn(format!("a{id}"), move |ctx| {
                ctx.advance(time::us(id + 1));
                let r = ctx.barrier_wait_timeout_cost(bar, 0, time::secs(1));
                assert!(r.is_ok());
                // normal release at the max arrival, not at the deadline
                assert_eq!(ctx.now(), time::us(2));
            });
        }
        sim.run();
    }

    #[test]
    fn fast_path_resolves_lone_advances_inline() {
        let mut sim = Simulation::new();
        sim.spawn("solo", |ctx| {
            for _ in 0..1000 {
                ctx.advance(time::ns(10));
            }
        });
        let stats = sim.run();
        assert_eq!(stats.end_time, time::us(10));
        // every advance after the initial wake bypasses the scheduler
        assert_eq!(stats.fast_path_hits, 1000);
        assert_eq!(stats.handoffs, 1, "only the initial wake needs a handoff");
        assert_eq!(stats.events, 1001);
    }

    #[test]
    fn lazy_advance_coalesces_until_flush() {
        let mut sim = Simulation::new();
        sim.spawn("lazy", |ctx| {
            ctx.advance_lazy(time::ns(10));
            ctx.advance_lazy(time::ns(20));
            // now() sees the deferred delay without flushing it
            assert_eq!(ctx.now(), time::ns(30));
            // a kernel interaction flushes it as one combined advance
            ctx.with_kernel(|k| assert_eq!(k.now(), time::ns(30)));
            ctx.advance_lazy(time::ns(5));
            ctx.advance(time::ns(5)); // merges deferred 5 + explicit 5
            assert_eq!(ctx.now(), time::ns(40));
        });
        let stats = sim.run();
        assert_eq!(stats.end_time, time::ns(40));
        // initial wake + two flushes = 3 events; both flushes bypassed
        assert_eq!(stats.events, 3);
        assert_eq!(stats.fast_path_hits, 2);
    }

    #[test]
    fn lazy_advance_flushes_before_blocking_ops() {
        let mut sim = Simulation::new();
        let bar = sim.kernel().new_barrier(2);
        sim.spawn("lazy", move |ctx| {
            ctx.advance_lazy(time::us(3));
            ctx.barrier_wait(bar); // must charge the 3us before arriving
            assert_eq!(ctx.now(), time::us(3));
        });
        sim.spawn("prompt", move |ctx| {
            ctx.barrier_wait(bar);
            assert_eq!(ctx.now(), time::us(3));
        });
        sim.run();
    }

    #[test]
    fn fast_path_defers_to_earlier_or_equal_events() {
        // A completion scheduled at the same instant an advance would end
        // must fire first (smaller sequence number) — the advance may not
        // bypass past it.
        let mut sim = Simulation::new();
        let comp = sim.kernel().new_completion();
        sim.spawn("a", move |ctx| {
            ctx.with_kernel(|k| k.complete_at(time::us(10), comp));
            assert!(!ctx.test(comp));
            ctx.advance(time::us(10));
            assert!(ctx.test(comp), "completion at t=10 fired before resume");
        });
        let stats = sim.run();
        assert_eq!(stats.end_time, time::us(10));
    }

    #[test]
    fn stale_timeout_does_not_disturb_later_waits() {
        // A wake that races a timeout must invalidate it: after the first
        // wait completes just before its deadline, the actor keeps running
        // and later blocking ops must not be woken by the stale timeout.
        let mut sim = Simulation::new();
        let c1 = sim.kernel().new_completion();
        sim.spawn("setter", move |ctx| {
            ctx.advance(time::us(10));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, c1);
            });
        });
        sim.spawn("waiter", move |ctx| {
            // completes at t=10, deadline at t=11: wake wins, timeout is stale
            assert!(ctx.wait_timeout(c1, time::us(11)).is_ok());
            assert_eq!(ctx.now(), time::us(10));
            // now advance across t=11; the stale Timeout event must be inert
            ctx.advance(time::us(100));
            assert_eq!(ctx.now(), time::us(110));
        });
        sim.run();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set_stack_size after first dispatch")]
    fn set_stack_size_after_dispatch_is_rejected() {
        let mut sim = Simulation::new();
        sim.spawn("a", |ctx| ctx.advance(1));
        sim.run();
        // The stacks this call claims to size already exist.
        sim.set_stack_size(64 * 1024);
    }

    /// The platform is what picks the execution context — there is no
    /// selector: where the target has the context switch, actors run on the
    /// scheduler's own thread; elsewhere each runs on a thread of its own.
    #[test]
    fn platform_selects_the_execution_context() {
        let mut sim = Simulation::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for a in 0..3 {
            let seen = Arc::clone(&seen);
            sim.spawn(format!("a{a}"), move |ctx| {
                ctx.advance(1);
                seen.lock().unwrap().push(std::thread::current().id());
            });
        }
        sim.run();
        let threads = seen.lock().unwrap().clone();
        let me = std::thread::current().id();
        if coro::SWITCH_SUPPORTED {
            assert!(threads.iter().all(|&t| t == me), "{threads:?}");
        } else {
            assert!(threads.iter().all(|&t| t != me), "{threads:?}");
            assert!(threads[0] != threads[1] && threads[1] != threads[2], "{threads:?}");
        }
    }
}
