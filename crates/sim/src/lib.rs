//! `hupc-sim` — a deterministic discrete-event simulation engine with
//! lightweight coroutine actors and virtual time.
//!
//! The engine is the substrate every other `hupc` crate runs on. It plays the
//! role the physical clusters (*Lehman*, *Pyramid*) play in the thesis
//! "Exploiting Hierarchical Parallelism Using UPC": code executes for real,
//! but *time* is virtual and charged against modeled resources (CPU cores,
//! memory controllers, NICs, network links).
//!
//! # Execution model
//!
//! Every simulated execution stream (a UPC thread, a sub-thread, an MPI rank)
//! is an **actor**: a stackful coroutine that runs user Rust code, resumed in
//! place by the scheduler. (Under Miri and on targets without the assembly
//! context switch, a one-OS-thread-per-actor backend implements the same
//! protocol; the platform picks it, no setting does.) Exactly one actor runs
//! at any instant; an actor executes until it performs a *simcall*
//! ([`Ctx::advance`], [`Ctx::acquire`], [`Ctx::wait`], [`Ctx::barrier_wait`],
//! …), at which point control switches back to the central scheduler. The
//! scheduler pops its one event queue in `(virtual_time, sequence)` order
//! and resumes the next runnable actor. This makes every run bit-for-bit
//! deterministic while still letting user code use plain Rust data
//! structures. (The simulated machine is hierarchical; the simulator's own
//! host-thread parallelism is not — DESIGN.md §12 records why.)
//!
//! Because an actor is a heap stack plus a saved register file — not a kernel
//! thread — a handoff costs ~100ns of user-space register swapping and a
//! simulation can hold **millions of actors**: memory (tunable via
//! [`Simulation::set_stack_size`] / [`Ctx::spawn_with_stack`]), not kernel
//! thread limits, bounds actor count.
//!
//! Because actors never run concurrently, shared state can be held in
//! [`SimCell`]s — interior-mutability cells whose safety is guaranteed by the
//! engine's serialization (and policed by a runtime borrow flag).
//!
//! # Scheduler-bypass fast path
//!
//! A simcall whose resulting wake is provably the next event to run and
//! resumes the *same* actor (a plain advance, an uncontended resource
//! charge) is processed inline under the kernel guard — the actor keeps
//! running with no scheduler handoff at all. The bypass is always on: it
//! consumes the sequence number the wake event would have used and logs the
//! event the scheduler would have popped, so the `(time, seq)` order is the
//! one a plain pop loop would produce; only host speed and the
//! [`SimulationStats`] counters show it. See [`Ctx::advance_lazy`] and
//! DESIGN.md §1 for the invariants.
//!
//! # Quick example
//!
//! ```
//! use hupc_sim::{Simulation, time};
//!
//! let mut sim = Simulation::new();
//! let bar = sim.kernel().new_barrier(2);
//! for id in 0..2 {
//!     sim.spawn(format!("worker{id}"), move |ctx| {
//!         ctx.advance(time::us(10) * (id as u64 + 1));
//!         ctx.barrier_wait(bar);
//!         assert_eq!(ctx.now(), time::us(20)); // barrier releases at max arrival
//!     });
//! }
//! sim.run();
//! ```

mod cell;
mod coro;
mod engine;
mod handoff;
mod kernel;
mod kernel_cell;
mod queue;
pub mod time;

pub use cell::SimCell;
pub use engine::{
    ActorRef, Ctx, SimError, SimResult, Simulation, SimulationStats, WaitTimedOut,
    DEFAULT_STACK_SIZE,
};
pub use kernel::{
    BarrierId, CompletionId, CondId, Kernel, MutexId, ReadyEvent, ReadyEventKind, ResourceId,
    SchedulePolicy, WaitEdge, WaitGraph, WaitTarget,
};
pub use kernel_cell::KernelGuard;
pub use queue::SimQueue;
pub use time::Time;

/// Structured virtual-time event tracing (re-export of `hupc-trace`); see
/// [`Simulation::set_tracer`] and [`Ctx::trace_emit`].
pub use hupc_trace as trace;
