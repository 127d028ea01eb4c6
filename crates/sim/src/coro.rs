//! Lightweight execution contexts for actors: stackful coroutines where the
//! target has the assembly context switch, dedicated OS threads elsewhere,
//! behind one resume/yield interface.
//!
//! The engine guarantees that at most one party — the scheduler or a single
//! actor — is logically running at any instant, so an actor does not need a
//! kernel thread of its own: it needs a stack and a saved register file. The
//! coroutine backend gives it exactly that. A context switch is ~10 callee-
//! saved register moves in user space (no futex, no syscall, no scheduler
//! round trip), which is what takes a scheduler→actor handoff from
//! microseconds to ~100ns and lets a simulation hold a million actors —
//! memory, not kernel thread limits, becomes the bound.
//!
//! Two backends implement the same protocol; the platform picks one, no
//! setting does:
//!
//! * [`SwitchCoro`] — a hand-rolled stackful coroutine: a [`Stack`] slot
//!   of its simulation's stack arena (`arena.rs`) plus an assembly context
//!   switch (`hupc_sim_ctx_swap`) that saves the callee-saved registers,
//!   swaps stack pointers, and resumes the peer. Used wherever
//!   [`SWITCH_SUPPORTED`] holds (Linux x86_64 / aarch64, not under Miri).
//! * [`ThreadCoro`] — one parked OS thread per actor, rendezvousing through
//!   the spin-then-park [`Handoff`]. The only backend under Miri and on
//!   targets without the switch; it keeps guard-page stack protection.
//!
//! The protocol, either way: the scheduler calls [`Coro::resume`] with a
//! [`ResumeArg`]; the actor runs until it calls [`yield_parked`] (returning
//! [`Poll::Parked`] to the scheduler) or its body returns ([`Poll::Finished`]).
//! Panics never cross the switch boundary: the engine's body wrapper catches
//! everything on the actor's own stack.

use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::handoff::Handoff;

/// An actor body as the backends consume it: the engine's wrapped closure,
/// invoked with the first resume argument.
pub(crate) type CoroBody = Box<dyn FnOnce(ResumeArg) + Send + 'static>;

/// Whether the assembly context-switch backend is available on this target.
/// (Never under Miri, which cannot execute the assembly: actors fall back to
/// threads there, like on any unsupported target.)
pub(crate) const SWITCH_SUPPORTED: bool = cfg!(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// What a resumed actor is being told to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ResumeArg {
    /// Proceed normally.
    Run,
    /// The simulation is being torn down; unwind out of user code.
    Shutdown,
}

impl ResumeArg {
    fn encode(self) -> usize {
        match self {
            ResumeArg::Run => 0,
            ResumeArg::Shutdown => 1,
        }
    }
    fn decode(v: usize) -> Self {
        match v {
            0 => ResumeArg::Run,
            _ => ResumeArg::Shutdown,
        }
    }
}

/// Why control came back to the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Poll {
    /// The actor parked in [`yield_parked`]; resume it again later.
    Parked,
    /// The actor's body returned; its context may be reclaimed.
    Finished,
}

impl Poll {
    fn encode(self) -> usize {
        match self {
            Poll::Parked => 0,
            Poll::Finished => 1,
        }
    }
    fn decode(v: usize) -> Self {
        match v {
            0 => Poll::Parked,
            _ => Poll::Finished,
        }
    }
}

// ---------------------------------------------------------------------------
// Yield dispatch: which context the currently running actor should yield
// through. Set around every resume (and in a thread-backend actor's thread),
// saved/restored so nested simulations (an actor driving its own inner
// Simulation) unwind correctly.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum CurrentYield {
    None,
    Switch(*const SwitchControl),
    Thread(*const ThreadShared),
}

thread_local! {
    static CURRENT: Cell<CurrentYield> = const { Cell::new(CurrentYield::None) };
}

/// Park the calling actor and hand control back to the scheduler; returns
/// when the scheduler next resumes this actor, with the argument it passed.
/// Must be called from inside an actor body (the engine's `Ctx::block` is the
/// only caller).
pub(crate) fn yield_parked() -> ResumeArg {
    match CURRENT.with(Cell::get) {
        CurrentYield::Switch(cb) => unsafe {
            // SAFETY: `cb` was published by the `resume` frame currently
            // suspended underneath us on this OS thread; the control block
            // outlives the resume (it is owned by the SwitchCoro being
            // resumed).
            let out = hupc_sim_ctx_swap(
                (*cb).coro_sp.as_ptr(),
                (*cb).sched_sp.get(),
                Poll::Parked.encode(),
            );
            ResumeArg::decode(out)
        },
        CurrentYield::Thread(ts) => unsafe {
            // SAFETY: published by this actor thread's own entry frame; the
            // Arc'd ThreadShared outlives the body running above it.
            (*ts).yield_parked()
        },
        CurrentYield::None => {
            panic!("simcall blocked outside an actor: yield_parked has no scheduler to return to")
        }
    }
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// Canary pattern written at the low (overflow) end of every coroutine stack.
const CANARY: usize = 0x5AFE_57AC_C0DE_D00D_u64 as usize;
/// Number of canary words.
const CANARY_WORDS: usize = 4;
/// Floor for requested stack sizes; smaller requests are rounded up.
pub(crate) const MIN_STACK: usize = 16 * 1024;

/// A coroutine stack: one slot of a simulation's
/// [`StackArena`](crate::arena::StackArena), held from first dispatch until
/// the actor finishes and then handed back by value.
///
/// Stacks are slots of a few large `MAP_NORESERVE` slabs rather than a
/// mapping each with a guard page: at million-actor scale, per-stack
/// mappings would exhaust the kernel's VMA budget (`vm.max_map_count`, ~65k
/// by default) long before memory runs out, while slabs stay within a few
/// dozen mappings and only fault in the pages a stack actually touches. The
/// trade-off is that overflow protection is a checked canary (verified after
/// every resume) instead of a hardware fault; the OS-thread backend, used
/// where the switch is unavailable, retains real guard pages.
pub(crate) struct Stack {
    base: NonNull<u8>,
    size: usize,
}

// SAFETY: a stack is the only handle to its slot; ownership of the slot
// moves with the struct and nothing aliases it.
unsafe impl Send for Stack {}

impl Stack {
    /// The stack on the slot `base..base + size`.
    ///
    /// # Safety
    /// The slot must be writable memory that outlives the stack, 16-byte
    /// aligned at both ends, and reachable through no other `Stack`.
    pub(crate) unsafe fn from_slot(base: NonNull<u8>, size: usize) -> Stack {
        Stack { base, size }
    }

    /// Low end of the slot, where the canary lives.
    pub(crate) fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Usable size in bytes.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// One-past-the-end of the stack (stacks grow down); 16-byte aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: base..base+size is one slot.
        unsafe { self.base.as_ptr().add(self.size) }
    }

    fn arm_canary(&self) {
        for i in 0..CANARY_WORDS {
            // SAFETY: the first CANARY_WORDS words of the slot.
            unsafe { (self.base.as_ptr() as *mut usize).add(i).write(CANARY) };
        }
    }

    /// Panic if the low-end canary was overwritten (stack overflow).
    fn check_canary(&self) {
        for i in 0..CANARY_WORDS {
            // SAFETY: as in arm_canary.
            let w = unsafe { (self.base.as_ptr() as *const usize).add(i).read() };
            assert!(
                w == CANARY,
                "actor stack overflow: canary clobbered on a {}-byte coroutine stack \
                 (raise it with Simulation::set_stack_size or Ctx::spawn_with_stack)",
                self.size
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The assembly context switch (Linux x86_64 / aarch64)
// ---------------------------------------------------------------------------
//
// `hupc_sim_ctx_swap(save, to, arg)`: push the callee-saved register file on
// the current stack, store the resulting stack pointer through `save`, adopt
// `to` as the new stack pointer, pop the register file saved there, and
// return `arg` — which the resumed side observes as the return value of *its*
// last `hupc_sim_ctx_swap` call (or, on first entry, as the argument the
// bootstrap trampoline forwards to `hupc_sim_coro_entry`).
//
// Only the integer callee-saved registers (plus d8–d15 on aarch64) are
// swapped. The floating-point control/status words (mxcsr / fpcr) are *not*:
// actor code in this workspace never changes rounding modes, and skipping
// them keeps the switch at its minimum cost. Revisit if any workload starts
// toying with fenv.
//
// Unwinding never crosses this boundary — the engine catches every panic on
// the coroutine's own stack — so the asm carries no CFI.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
core::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl hupc_sim_ctx_swap",
    ".hidden hupc_sim_ctx_swap",
    ".type hupc_sim_ctx_swap, @function",
    "hupc_sim_ctx_swap:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "mov rax, rdx",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size hupc_sim_ctx_swap, . - hupc_sim_ctx_swap",
    // First-entry trampoline: the bootstrap frame "returns" here with the
    // control-block pointer in rbx (planted by `bootstrap_frame`) and the
    // first resume argument in rax. Realign, zero the frame pointer so
    // backtraces terminate cleanly, and enter Rust.
    ".balign 16",
    ".globl hupc_sim_ctx_entry",
    ".hidden hupc_sim_ctx_entry",
    ".type hupc_sim_ctx_entry, @function",
    "hupc_sim_ctx_entry:",
    "mov rdi, rbx",
    "mov rsi, rax",
    "xor ebp, ebp",
    "and rsp, -16",
    "call hupc_sim_coro_entry",
    "ud2",
    ".size hupc_sim_ctx_entry, . - hupc_sim_ctx_entry",
);

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
core::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl hupc_sim_ctx_swap",
    ".hidden hupc_sim_ctx_swap",
    ".type hupc_sim_ctx_swap, @function",
    "hupc_sim_ctx_swap:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8,  d9,  [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov x10, x2",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8,  d9,  [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "mov x0, x10",
    "ret",
    ".size hupc_sim_ctx_swap, . - hupc_sim_ctx_swap",
    // First entry: x19 carries the control block (from the bootstrap frame),
    // x0 the first resume argument, x30 pointed here by the frame's saved lr.
    ".balign 16",
    ".globl hupc_sim_ctx_entry",
    ".hidden hupc_sim_ctx_entry",
    ".type hupc_sim_ctx_entry, @function",
    "hupc_sim_ctx_entry:",
    "mov x1, x0",
    "mov x0, x19",
    "mov x29, xzr",
    "mov x30, xzr",
    "bl hupc_sim_coro_entry",
    "brk #0x1",
    ".size hupc_sim_ctx_entry, . - hupc_sim_ctx_entry",
);

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
extern "C" {
    /// See the assembly block above.
    fn hupc_sim_ctx_swap(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize;
    /// Label only — never called from Rust; its address seeds bootstrap frames.
    fn hupc_sim_ctx_entry();
}

// Stubs so the module typechecks on targets without the asm backend; the
// engine builds no `SwitchCoro` there (SWITCH_SUPPORTED is false), so these
// are unreachable.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn hupc_sim_ctx_swap(_save: *mut *mut u8, _to: *mut u8, _arg: usize) -> usize {
    unreachable!("coroutine backend selected on an unsupported target")
}
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn hupc_sim_ctx_entry() {
    unreachable!("coroutine backend selected on an unsupported target")
}

/// Saved-register-file slot count of the bootstrap frame (see
/// `bootstrap_frame`).
#[cfg(target_arch = "x86_64")]
const BOOT_WORDS: usize = 7; // r15 r14 r13 r12 rbx rbp + return address
#[cfg(not(target_arch = "x86_64"))]
const BOOT_WORDS: usize = 20; // x19..x28, x29, x30, d8..d15

/// Lay a fake `hupc_sim_ctx_swap` frame at the top of a fresh stack so the
/// first `resume` "returns" into `hupc_sim_ctx_entry` with the control-block
/// pointer in a callee-saved register. Returns the stack pointer to resume.
unsafe fn bootstrap_frame(stack: &Stack, cb: *const SwitchControl) -> *mut u8 {
    let top = stack.top() as *mut usize;
    let sp = top.sub(BOOT_WORDS.next_multiple_of(2));
    std::ptr::write_bytes(sp, 0, BOOT_WORDS);
    #[cfg(target_arch = "x86_64")]
    {
        // Layout (low→high), matching the pops in hupc_sim_ctx_swap:
        // [r15][r14][r13][r12][rbx][rbp][return address]
        sp.add(4).write(cb as usize); // rbx
        sp.add(6).write(hupc_sim_ctx_entry as *const () as usize); // ret target
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Matches the ldp sequence: x19 at +0, x30 (lr) at +88 bytes.
        sp.write(cb as usize); // x19
        sp.add(11).write(hupc_sim_ctx_entry as *const () as usize); // x30
    }
    sp as *mut u8
}

/// Shared control block of one stackful coroutine. Lives boxed (stable
/// address) in the owning [`SwitchCoro`]; the running coroutine reaches it
/// through the thread-local [`CURRENT`] pointer.
struct SwitchControl {
    /// Stack pointer of the suspended coroutine (valid while suspended).
    coro_sp: Cell<*mut u8>,
    /// Stack pointer of the scheduler side (valid while the coroutine runs).
    sched_sp: Cell<*mut u8>,
    /// The actor body, taken by the entry shim on first resume.
    task: Cell<Option<CoroBody>>,
    finished: Cell<bool>,
}

/// Rust landing point of the bootstrap trampoline: runs the actor body on
/// the coroutine stack, then switches back to the scheduler for the last
/// time, reporting [`Poll::Finished`].
#[no_mangle]
unsafe extern "C" fn hupc_sim_coro_entry(cb: *mut SwitchControl, arg: usize) -> ! {
    let task = (*cb).task.take().expect("coroutine entered twice");
    // Backstop only: the engine's body wrapper catches every panic itself.
    // Unwinding must never reach the bootstrap frame (there is no unwind
    // info past it), so anything escaping here is a bug — abort loudly.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task(ResumeArg::decode(arg))
    }));
    if r.is_err() {
        eprintln!("fatal: panic escaped an actor body wrapper; aborting");
        std::process::abort();
    }
    (*cb).finished.set(true);
    // Final switch out. The save slot is never read again (finished
    // coroutines are not resumed); reuse coro_sp.
    hupc_sim_ctx_swap(
        (*cb).coro_sp.as_ptr(),
        (*cb).sched_sp.get(),
        Poll::Finished.encode(),
    );
    unreachable!("finished coroutine resumed");
}

/// Issue a read-prefetch hint for the cache line holding `p`. A hint only:
/// it moves no data the program can observe and never faults, whatever `p`
/// points at; on targets without the instruction it does nothing.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally a no-op on any address it
    // cannot translate; SSE is part of the x86_64 baseline.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint and never generates a fault.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Bytes per prefetched line (the common cache-line size on both targets).
const LINE: usize = 64;
/// Lines prefetched from a suspended coroutine's stack pointer upwards: the
/// register frame `hupc_sim_ctx_swap` pops on resume (56 B on x86_64, 160 B
/// on aarch64) plus the `yield_parked` / `Ctx::block` frames it returns into.
const FRAME_LINES: usize = 4;

/// A stackful coroutine: arena stack + saved register file + body.
pub(crate) struct SwitchCoro {
    cb: Box<SwitchControl>,
    stack: Option<Stack>,
    /// Copy of `cb.coro_sp` as of the last suspension, kept inline so
    /// [`SwitchCoro::prefetch`] can name the saved frame without first
    /// loading the — at that point cold — control block.
    suspended_sp: *mut u8,
    finished: bool,
}

// SAFETY: all of the raw state (control block, saved stack) is reached only
// through `&mut self` in `resume`, never concurrently. A *suspended* actor's
// stack may hold non-Send locals, so moving a Simulation with suspended
// actors across threads and resuming there is as (un)sound as it was with
// the `Send` closure requirement alone — the same caveat every stackful
// coroutine runtime carries. Coroutines are created lazily at first
// dispatch, so a Simulation that has not started running carries no
// suspended stacks at all.
unsafe impl Send for SwitchCoro {}

impl SwitchCoro {
    pub fn new(stack: Stack, body: CoroBody) -> SwitchCoro {
        stack.arm_canary();
        let cb = Box::new(SwitchControl {
            coro_sp: Cell::new(std::ptr::null_mut()),
            sched_sp: Cell::new(std::ptr::null_mut()),
            task: Cell::new(Some(body)),
            finished: Cell::new(false),
        });
        // SAFETY: fresh stack, stable boxed control block.
        let sp = unsafe { bootstrap_frame(&stack, &*cb) };
        cb.coro_sp.set(sp);
        SwitchCoro {
            cb,
            stack: Some(stack),
            suspended_sp: sp,
            finished: false,
        }
    }

    /// Hint the three lines the next [`SwitchCoro::resume`] of this
    /// coroutine misses on when many coroutines take turns: the control
    /// block, the saved frame at its suspended stack pointer, and the
    /// canary at the far (low) end of its stack. The scheduler calls this
    /// one dispatch ahead, so the loads overlap the current actor's run.
    /// Purely a hint — `resume` does the same work, in the same order, with
    /// or without it.
    pub fn prefetch(&self) {
        prefetch_line(&*self.cb as *const SwitchControl as *const u8);
        for i in 0..FRAME_LINES {
            prefetch_line(self.suspended_sp.wrapping_add(i * LINE));
        }
        if let Some(s) = &self.stack {
            prefetch_line(s.base.as_ptr());
        }
    }

    pub fn resume(&mut self, arg: ResumeArg) -> Poll {
        assert!(!self.finished, "resumed a finished coroutine");
        let prev = CURRENT.with(|c| c.replace(CurrentYield::Switch(&*self.cb)));
        // SAFETY: coro_sp holds the suspended context's stack pointer (the
        // bootstrap frame on first resume, a swap frame afterwards); the
        // stack it points into is owned by self and alive.
        let out = unsafe {
            hupc_sim_ctx_swap(
                self.cb.sched_sp.as_ptr(),
                self.cb.coro_sp.get(),
                arg.encode(),
            )
        };
        CURRENT.with(|c| c.set(prev));
        self.suspended_sp = self.cb.coro_sp.get();
        if let Some(s) = &self.stack {
            s.check_canary();
        }
        let poll = Poll::decode(out);
        if poll == Poll::Finished {
            debug_assert!(self.cb.finished.get());
            self.finished = true;
        }
        poll
    }

    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Reclaim the stack of a finished coroutine for reuse.
    pub fn take_stack(&mut self) -> Option<Stack> {
        debug_assert!(self.finished);
        self.stack.take()
    }
}

// ---------------------------------------------------------------------------
// OS-thread fallback backend
// ---------------------------------------------------------------------------

/// Rendezvous state between the scheduler and one actor thread. `chan`
/// carries the resume argument one way and the poll result the other; the
/// strict run-one-party-at-a-time alternation makes a single slot race-free.
struct ThreadShared {
    to_actor: Handoff,
    to_sched: Handoff,
    chan: AtomicUsize,
}

impl ThreadShared {
    /// Actor-side park (runs on the actor's own OS thread).
    fn yield_parked(&self) -> ResumeArg {
        self.chan.store(Poll::Parked.encode(), Ordering::Release);
        self.to_sched.signal();
        self.to_actor.wait();
        ResumeArg::decode(self.chan.load(Ordering::Acquire))
    }
}

/// One actor on a dedicated OS thread, driven through the same
/// resume/yield protocol as [`SwitchCoro`].
pub(crate) struct ThreadCoro {
    shared: Arc<ThreadShared>,
    thread: Option<std::thread::JoinHandle<()>>,
    finished: bool,
}

impl ThreadCoro {
    pub fn new(name: String, stack_size: usize, body: CoroBody) -> ThreadCoro {
        let shared = Arc::new(ThreadShared {
            to_actor: Handoff::new(),
            to_sched: Handoff::new(),
            chan: AtomicUsize::new(0),
        });
        let ts = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(name)
            .stack_size(stack_size.max(MIN_STACK))
            .spawn(move || {
                ts.to_actor.wait();
                let arg = ResumeArg::decode(ts.chan.load(Ordering::Acquire));
                let prev = CURRENT.with(|c| c.replace(CurrentYield::Thread(&*ts)));
                body(arg);
                CURRENT.with(|c| c.set(prev));
                ts.chan.store(Poll::Finished.encode(), Ordering::Release);
                ts.to_sched.signal();
            })
            .expect("failed to spawn actor thread");
        ThreadCoro {
            shared,
            thread: Some(thread),
            finished: false,
        }
    }

    pub fn resume(&mut self, arg: ResumeArg) -> Poll {
        assert!(!self.finished, "resumed a finished actor thread");
        self.shared.chan.store(arg.encode(), Ordering::Release);
        self.shared.to_actor.signal();
        self.shared.to_sched.wait();
        let poll = Poll::decode(self.shared.chan.load(Ordering::Acquire));
        if poll == Poll::Finished {
            self.finished = true;
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
        poll
    }

    pub fn finished(&self) -> bool {
        self.finished
    }
}

impl Drop for ThreadCoro {
    fn drop(&mut self) {
        // A live thread here means the engine is dropping an unfinished
        // actor without the shutdown protocol — resume-with-Shutdown in
        // Simulation::drop is the ordinary path. Unblock and detach rather
        // than deadlock.
        if let Some(t) = self.thread.take() {
            if !self.finished {
                self.shared.chan.store(ResumeArg::Shutdown.encode(), Ordering::Release);
                self.shared.to_actor.signal();
            }
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Unified handle
// ---------------------------------------------------------------------------

/// One actor's execution context, whichever backend it runs on.
pub(crate) enum Coro {
    Switch(SwitchCoro),
    Thread(ThreadCoro),
}

impl Coro {
    pub fn resume(&mut self, arg: ResumeArg) -> Poll {
        match self {
            Coro::Switch(c) => c.resume(arg),
            Coro::Thread(c) => c.resume(arg),
        }
    }

    pub fn finished(&self) -> bool {
        match self {
            Coro::Switch(c) => c.finished(),
            Coro::Thread(c) => c.finished(),
        }
    }

    /// Warm the cache for an upcoming [`Coro::resume`]. The OS-thread
    /// backend has nothing to prefetch: its actor's state lives on another
    /// kernel thread's stack and the handoff is a futex, not a load.
    pub fn prefetch(&self) {
        if let Coro::Switch(c) = self {
            c.prefetch();
        }
    }

    /// Reclaim the coroutine stack (switch backend only) once finished.
    pub fn take_stack(&mut self) -> Option<Stack> {
        match self {
            Coro::Switch(c) => c.take_stack(),
            Coro::Thread(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StackArena;

    fn run_backend(mk: impl Fn(Box<dyn FnOnce(ResumeArg) + Send>) -> Coro) {
        // Full protocol: run → yield → run → yield → finish, with state
        // living across yields on the actor's stack.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let mut c = mk(Box::new(move |first| {
            assert_eq!(first, ResumeArg::Run);
            let mut local = vec![1u64, 2, 3]; // stack/heap state across yields
            l2.lock().unwrap().push("start");
            let a = yield_parked();
            assert_eq!(a, ResumeArg::Run);
            local.push(4);
            l2.lock().unwrap().push("mid");
            let b = yield_parked();
            assert_eq!(b, ResumeArg::Run);
            assert_eq!(local, vec![1, 2, 3, 4]);
            l2.lock().unwrap().push("end");
        }));
        assert!(!c.finished());
        assert_eq!(c.resume(ResumeArg::Run), Poll::Parked);
        assert_eq!(c.resume(ResumeArg::Run), Poll::Parked);
        assert_eq!(c.resume(ResumeArg::Run), Poll::Finished);
        assert!(c.finished());
        assert_eq!(*log.lock().unwrap(), vec!["start", "mid", "end"]);
    }

    #[test]
    fn thread_backend_protocol() {
        run_backend(|f| Coro::Thread(ThreadCoro::new("t".into(), 1 << 20, f)));
    }

    #[test]
    fn switch_backend_protocol() {
        if !SWITCH_SUPPORTED {
            return;
        }
        let mut arena = StackArena::new();
        let stack = Cell::new(Some(arena.take(64 * 1024)));
        run_backend(|f| Coro::Switch(SwitchCoro::new(stack.take().unwrap(), f)));
    }

    #[test]
    fn switch_stack_is_reusable() {
        if !SWITCH_SUPPORTED {
            return;
        }
        let mut arena = StackArena::new();
        let mut stack = Some(arena.take(64 * 1024));
        for round in 0..100u64 {
            let mut c = SwitchCoro::new(
                stack.take().unwrap(),
                Box::new(move |_| {
                    let v: Vec<u64> = (0..round).collect();
                    let _ = yield_parked();
                    assert_eq!(v.iter().sum::<u64>(), round * round.saturating_sub(1) / 2);
                }),
            );
            assert_eq!(c.resume(ResumeArg::Run), Poll::Parked);
            assert_eq!(c.resume(ResumeArg::Run), Poll::Finished);
            stack = c.take_stack();
            assert!(stack.is_some());
        }
    }

    #[test]
    fn switch_many_coroutines_interleave() {
        if !SWITCH_SUPPORTED {
            return;
        }
        let n = 64;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut arena = StackArena::new();
        let mut coros: Vec<Coro> = (0..n)
            .map(|i| {
                let c = Arc::clone(&counter);
                Coro::Switch(SwitchCoro::new(
                    arena.take(32 * 1024),
                    Box::new(move |_| {
                        for _ in 0..i % 5 {
                            let _ = yield_parked();
                        }
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                ))
            })
            .collect();
        // Round-robin until all finish, hinting the next context before
        // every resume the way the scheduler does — whether that context
        // is fresh, suspended or already finished.
        while coros.iter().any(|c| !c.finished()) {
            for i in 0..coros.len() {
                coros[(i + 1) % n].prefetch();
                if !coros[i].finished() {
                    let _ = coros[i].resume(ResumeArg::Run);
                }
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), n);
    }

    #[test]
    fn switch_panic_is_caught_inside_the_wrapper() {
        if !SWITCH_SUPPORTED {
            return;
        }
        // The engine wraps bodies in catch_unwind; model that here and check
        // the panic stays on the coroutine stack.
        let mut arena = StackArena::new();
        let mut c = SwitchCoro::new(
            arena.take(64 * 1024),
            Box::new(|_| {
                let r = std::panic::catch_unwind(|| panic!("inner boom"));
                assert!(r.is_err());
            }),
        );
        assert_eq!(c.resume(ResumeArg::Run), Poll::Finished);
    }

    /// `hupc_sim_ctx_swap(save, to, arg)` called straight from an `asm!`
    /// block that holds `regs` in r12–r15 across the call, so no compiler
    /// frame sits between the sentinels and the switch to mask a register
    /// the switch fails to restore. Returns the swap's result and what
    /// r12–r15 held when it returned.
    ///
    /// # Safety
    ///
    /// The same as for any `hupc_sim_ctx_swap` call: `save` is writable
    /// and `to` is the saved stack pointer of a suspended context whose
    /// stack is alive.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    unsafe fn swap_holding(
        save: *mut *mut u8,
        to: *mut u8,
        arg: usize,
        regs: [usize; 4],
    ) -> (usize, [usize; 4]) {
        let [mut r12, mut r13, mut r14, mut r15] = regs;
        let out: usize;
        // SAFETY: the caller upholds the swap's contract; the block names
        // every register the call can change (r12–r15 and rax as outputs,
        // the rest of the C caller-saved set through `clobber_abi`), and
        // its stack is aligned for a call because it is not `nostack`.
        core::arch::asm!(
            "call {swap}",
            swap = sym hupc_sim_ctx_swap,
            in("rdi") save,
            in("rsi") to,
            in("rdx") arg,
            lateout("rax") out,
            inout("r12") r12,
            inout("r13") r13,
            inout("r14") r14,
            inout("r15") r15,
            clobber_abi("C"),
        );
        (out, [r12, r13, r14, r15])
    }

    /// Both sides of a switch get their own r12–r15 back: the scheduler
    /// resumes with sentinels in them, the coroutine overwrites all four
    /// and yields, and the scheduler must see its sentinels again — then the
    /// same the other way round on the second resume.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn switch_preserves_callee_saved_registers() {
        const SCHED: [usize; 4] = [0x1212_1212, 0x1313_1313, 0x1414_1414, 0x1515_1515];
        const ACTOR: [usize; 4] = [0xA12, 0xA13, 0xA14, 0xA15];
        let seen = Arc::new(std::sync::Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        let mut arena = StackArena::new();
        let mut c = SwitchCoro::new(
            arena.take(64 * 1024),
            Box::new(move |_| {
                let CurrentYield::Switch(cb) = CURRENT.with(Cell::get) else {
                    unreachable!("a switch coroutine runs under its control block")
                };
                // SAFETY: as in `yield_parked`: the control block outlives
                // this body, and the scheduler side is suspended in a swap.
                let (_, back) = unsafe {
                    swap_holding(
                        (*cb).coro_sp.as_ptr(),
                        (*cb).sched_sp.get(),
                        Poll::Parked.encode(),
                        ACTOR,
                    )
                };
                *seen2.lock().unwrap() = Some(back);
            }),
        );
        let resume = |c: &mut SwitchCoro| {
            let prev = CURRENT.with(|x| x.replace(CurrentYield::Switch(&*c.cb)));
            // SAFETY: as in `SwitchCoro::resume`.
            let (out, back) = unsafe {
                swap_holding(
                    c.cb.sched_sp.as_ptr(),
                    c.cb.coro_sp.get(),
                    ResumeArg::Run.encode(),
                    SCHED,
                )
            };
            CURRENT.with(|x| x.set(prev));
            (Poll::decode(out), back)
        };
        assert_eq!(resume(&mut c), (Poll::Parked, SCHED), "scheduler lost r12-r15");
        assert_eq!(resume(&mut c), (Poll::Finished, SCHED), "scheduler lost r12-r15");
        assert_eq!(*seen.lock().unwrap(), Some(ACTOR), "coroutine lost r12-r15");
    }

    #[test]
    fn canary_detects_overflow_writes() {
        if !SWITCH_SUPPORTED {
            return;
        }
        let mut arena = StackArena::new();
        let s = arena.take(MIN_STACK);
        s.arm_canary();
        s.check_canary();
        unsafe { (s.base.as_ptr() as *mut usize).write(0xdead) };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.check_canary()));
        assert!(r.is_err(), "clobbered canary must be detected");
        s.arm_canary();
        arena.give(s);
    }
}
