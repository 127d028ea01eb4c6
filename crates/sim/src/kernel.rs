//! The simulation kernel: event queue, virtual clock, and the blocking /
//! resource primitives actors synchronize through.
//!
//! The kernel lives in one `KernelCell` (`kernel_cell.rs`): only the running
//! actor (or the scheduler between actors) ever touches it, so the run owns
//! it outright instead of locking it. All mutation goes through methods here
//! so invariants — monotone time, at most one pending wake per actor, FIFO
//! resource queues — hold in one place.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Identifies an actor within one simulation.
pub(crate) type ActorId = usize;

/// Handle to a FIFO queueing resource (a core, a NIC, a link, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) usize);

/// Handle to a one-shot completion (an async operation's "done" flag).
///
/// One word: the allocation serial (dense from 0, in creation order) in the
/// high 40 bits and the kernel slot it occupies in the low 24. A slot is
/// recycled once its completion fires, so an id whose serial no longer
/// matches its slot's belongs to a completion that has fired. Traces,
/// schedule policies and reports show only the serial.
///
/// `#[must_use]`: a dropped completion is a lost-completion bug — nobody can
/// ever wait on or poll the operation it represents.
#[must_use = "dropping a CompletionId loses the only way to observe the operation"]
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompletionId(pub(crate) u64);

/// Bits of a [`CompletionId`] that hold the slot.
const SLOT_BITS: u32 = 24;
/// Completions that may be live (created, not yet fired) at once.
const MAX_LIVE_COMPLETIONS: usize = 1 << SLOT_BITS;
/// Completions one kernel may create over its whole run.
const MAX_COMPLETION_SERIALS: u64 = 1 << (u64::BITS - SLOT_BITS);

impl CompletionId {
    fn new(serial: u64, slot: usize) -> Self {
        CompletionId(serial << SLOT_BITS | slot as u64)
    }

    /// Creation order within the run: 0 for the kernel's first completion.
    pub(crate) fn serial(self) -> u64 {
        self.0 >> SLOT_BITS
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 & (MAX_LIVE_COMPLETIONS as u64 - 1)) as usize
    }
}

/// Prints the serial, as traces and reports do; the slot is an internal
/// detail.
impl std::fmt::Debug for CompletionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CompletionId").field(&self.serial()).finish()
    }
}

/// Handle to a condition variable (standalone; the engine's serialization
/// makes the usual lost-wakeup race impossible).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CondId(pub(crate) usize);

/// Handle to a reusable N-party barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BarrierId(pub(crate) usize);

/// Handle to a FIFO-fair simulated mutex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MutexId(pub(crate) usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    Wake(ActorId),
    Complete(CompletionId),
    /// Timed-wait deadline for an actor; the `u64` is the actor's wake
    /// epoch at scheduling time — a stale epoch means the actor was woken
    /// (and possibly re-blocked) in the meantime and the timeout is void.
    Timeout(ActorId, u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

/// One entry of the set of events tied at the earliest pending virtual time,
/// as shown to a [`SchedulePolicy`]. Entries are sorted by sequence number;
/// index 0 is what the default (policy-free) scheduler would dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The shared virtual time of the tie.
    pub time: Time,
    /// Queue sequence number (smaller = scheduled earlier).
    pub seq: u64,
    pub kind: ReadyEventKind,
}

/// Public mirror of the internal event kinds, for schedule policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadyEventKind {
    /// An actor resumes.
    Wake { actor: usize },
    /// A completion fires (waking its registered waiters); `completion` is
    /// its serial: 0 for the run's first completion, dense in creation order.
    Complete { completion: usize },
    /// A timed-wait deadline (may be stale by the time it is processed).
    Timeout { actor: usize },
}

/// The schedule-exploration seam: a tie-break hook consulted whenever two or
/// more events are pending at the same earliest virtual time.
///
/// Events at *different* virtual times are causally ordered and never
/// reorderable; events tied at one instant model operations that are truly
/// concurrent on a real machine, where hardware would order them arbitrarily.
/// The default scheduler breaks ties by sequence number (a fixed, legal
/// ordering). A `SchedulePolicy` picks any other member of the tie instead,
/// which lets an explorer (see the `hupc-check` crate) enumerate or randomly
/// sample interleavings while keeping each individual run fully
/// deterministic: the same policy decisions always yield the same run.
///
/// The scheduler-bypass fast path is unaffected: bypass requires a wake
/// *strictly* earlier than every pending event, so ties — the only points a
/// policy is consulted — never take it, and explored schedules are identical
/// with the fast path on or off.
pub trait SchedulePolicy: Send {
    /// Choose which tied event dispatches next. `ready` has at least two
    /// entries, sorted by sequence number. Out-of-range returns are clamped.
    fn choose(&mut self, ready: &[ReadyEvent]) -> usize;
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ActorStatus {
    /// Has a pending `Wake` event in the queue.
    Runnable,
    /// Currently executing user code (resumed, wake consumed).
    Running,
    /// Parked in a simcall with no pending wake (waiting on a completion,
    /// condition, barrier or mutex).
    Blocked,
    Finished,
}

/// What a blocked actor is waiting for — typed, so the deadlock detector can
/// walk the wait graph (who holds the mutex, how many arrived at the
/// barrier) instead of printing an opaque string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Spawned, first wake not yet delivered.
    Start,
    /// Pure time delay ([`crate::Ctx::advance`]); always has a pending wake.
    Advance,
    /// FIFO resource service; always has a pending wake.
    Resource(ResourceId),
    Completion(CompletionId),
    Cond(CondId),
    Barrier(BarrierId),
    Mutex(MutexId),
}

/// Payload code for structured `Park` trace events.
fn park_code(on: BlockKind) -> u64 {
    match on {
        BlockKind::Start => hupc_trace::park::START,
        BlockKind::Advance => hupc_trace::park::ADVANCE,
        BlockKind::Resource(_) => hupc_trace::park::RESOURCE,
        BlockKind::Completion(_) => hupc_trace::park::COMPLETION,
        BlockKind::Cond(_) => hupc_trace::park::COND,
        BlockKind::Barrier(_) => hupc_trace::park::BARRIER,
        BlockKind::Mutex(_) => hupc_trace::park::MUTEX,
    }
}

pub(crate) struct ActorMeta {
    pub name: String,
    pub status: ActorStatus,
    /// Completed when the actor finishes; joiners wait on it.
    pub exit: CompletionId,
    /// What the actor is blocked on, for timeouts and deadlock diagnostics.
    pub blocked_on: BlockKind,
    /// Bumped on every wake; outstanding `Timeout` events carrying an older
    /// epoch are stale and ignored.
    pub wake_epoch: u64,
    /// Set when the last wake was a timed-wait expiry (consumed by `Ctx`).
    pub timed_out: bool,
    /// Virtual time of the most recent `mark_blocked` (for deadlock reports).
    pub blocked_since: Time,
    /// The actor's last few scheduler interactions, kept so a deadlock
    /// report can show what each stuck actor was doing just before it parked
    /// for good.
    pub recent: RecentRing,
}

/// How many trailing scheduler interactions are retained per actor for the
/// deadlock report's activity tail.
pub(crate) const RECENT_CAP: usize = 4;

/// One retained scheduler interaction of an actor (see [`ActorMeta::recent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecentOp {
    /// A wake was scheduled at `.1` while the clock stood at `.0`.
    Scheduled(Time, Time),
    /// The actor resumed inline via the scheduler-bypass fast path.
    Bypassed(Time),
    /// The actor parked, blocked on the given primitive.
    Parked(Time, BlockKind),
}

impl RecentOp {
    /// Compact single-token rendering (`sched@0ns->5ns`, `park@5ns(barrier#0)`).
    fn render(&self) -> String {
        fn block_tag(on: BlockKind) -> String {
            match on {
                BlockKind::Start => "start".into(),
                BlockKind::Advance => "advance".into(),
                BlockKind::Resource(r) => format!("resource#{}", r.0),
                BlockKind::Completion(c) => format!("completion#{}", c.serial()),
                BlockKind::Cond(c) => format!("cond#{}", c.0),
                BlockKind::Barrier(b) => format!("barrier#{}", b.0),
                BlockKind::Mutex(m) => format!("mutex#{}", m.0),
            }
        }
        match self {
            RecentOp::Scheduled(at, wake) => format!(
                "sched@{}->{}",
                crate::time::format(*at),
                crate::time::format(*wake)
            ),
            RecentOp::Bypassed(t) => format!("bypass@{}", crate::time::format(*t)),
            RecentOp::Parked(t, on) => {
                format!("park@{}({})", crate::time::format(*t), block_tag(*on))
            }
        }
    }
}

/// Inline ring of an actor's last [`RECENT_CAP`] scheduler interactions
/// (see [`ActorMeta::recent`]). Written on every park and wake and read only
/// by a deadlock report, so a push is a compare and a store into the actor's
/// own record — no heap, no pointer chase.
pub(crate) struct RecentRing {
    ops: [RecentOp; RECENT_CAP],
    /// Pushes accepted so far; the newest sits at `(pushed - 1) % RECENT_CAP`.
    pushed: usize,
}

impl RecentRing {
    pub(crate) fn new() -> Self {
        RecentRing {
            ops: [RecentOp::Bypassed(0); RECENT_CAP],
            pushed: 0,
        }
    }

    /// Push, dropping the oldest entry when full. Consecutive duplicates
    /// collapse (blocking simcalls mark the park twice: once registering the
    /// wait, once in the generic block path).
    #[inline]
    fn note(&mut self, op: RecentOp) {
        if self.pushed > 0 && self.ops[(self.pushed - 1) % RECENT_CAP] == op {
            return;
        }
        self.ops[self.pushed % RECENT_CAP] = op;
        self.pushed += 1;
    }

    /// Retained entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &RecentOp> {
        let len = self.pushed.min(RECENT_CAP);
        (self.pushed - len..self.pushed).map(|i| &self.ops[i % RECENT_CAP])
    }
}

#[derive(Debug)]
struct ResourceState {
    name: String,
    next_free: Time,
    busy_total: Time,
}

/// One slot of the completion table. A slot holds one live completion at a
/// time; when it fires, the slot goes back on the free list (keeping its
/// waiter buffer) for the next [`Kernel::new_completion`].
#[derive(Debug)]
struct CompletionSlot {
    /// Serial of the live completion in this slot, or [`FREE_SLOT`].
    serial: u64,
    waiters: Vec<ActorId>,
}

/// `CompletionSlot::serial` of a vacant slot: no id carries it.
const FREE_SLOT: u64 = u64::MAX;

#[derive(Debug, Default)]
struct CondState {
    waiters: Vec<ActorId>,
}

#[derive(Debug)]
struct BarrierState {
    parties: usize,
    arrived: Vec<ActorId>,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<ActorId>,
    queue: Vec<ActorId>,
}

/// Central simulation state. Obtain mutable access through
/// [`crate::Simulation::kernel`] (before the run) or
/// [`crate::Ctx::with_kernel`] (from inside an actor).
pub struct Kernel {
    now: Time,
    /// Near half of the split event queue: events scheduled *at* the current
    /// time, in push (= sequence) order. `wake_at(now, ..)`, every
    /// completion fire, mutex handover and cond notify land here, making
    /// the hot-path insert and pop O(1) instead of a heap churn. All entries
    /// share `time == now` (the clock cannot advance past a pending
    /// now-event, so the bucket drains before `now` moves).
    near: VecDeque<Event>,
    /// Everything scheduled into the future.
    far: BinaryHeap<Reverse<Event>>,
    /// Next event sequence number: the `(time, seq)` tie-break.
    seq: u64,
    events_processed: u64,
    resources: Vec<ResourceState>,
    /// Completion table: live completions, plus fired slots awaiting reuse.
    /// Its length is the most completions ever live at once.
    completions: Vec<CompletionSlot>,
    /// Vacant slots of `completions`, most recently freed last.
    free_completions: Vec<usize>,
    /// Completions created so far: the next [`CompletionId::serial`].
    completion_serials: u64,
    conds: Vec<CondState>,
    barriers: Vec<BarrierState>,
    mutexes: Vec<MutexState>,
    pub(crate) actors: Vec<ActorMeta>,
    pub(crate) live_actors: usize,
    /// Simcalls resolved inline without a scheduler handoff.
    pub(crate) fast_path_hits: u64,
    /// Scheduler → actor dispatches that went through a full handoff (a
    /// resume/yield context-switch round trip).
    pub(crate) handoffs: u64,
    /// Pushes + pops on the far (binary-heap) half of the event queue.
    pub(crate) heap_ops: u64,
    /// Optional tie-break hook for schedule exploration (see
    /// [`SchedulePolicy`]). `None` (the default) keeps the plain
    /// sequence-order pop path with zero overhead.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// First actor panic of the run: `(actor, payload rendering)`. Set by
    /// the panicking actor under the kernel guard (before it switches back to
    /// the scheduler) and drained by the scheduler loop — the typed channel
    /// behind [`crate::SimError::ActorPanic`].
    panic_note: Option<(ActorId, String)>,
    /// Structured virtual-time tracer (hupc-trace), if one is attached.
    /// Emitting never touches `now`, the queue, or any seq the simulation
    /// observes — tracing is observationally free by construction.
    tracer: Option<std::sync::Arc<hupc_trace::Tracer>>,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: 0,
            near: VecDeque::new(),
            far: BinaryHeap::new(),
            seq: 0,
            events_processed: 0,
            resources: Vec::new(),
            completions: Vec::new(),
            free_completions: Vec::new(),
            completion_serials: 0,
            conds: Vec::new(),
            barriers: Vec::new(),
            mutexes: Vec::new(),
            actors: Vec::new(),
            live_actors: 0,
            fast_path_hits: 0,
            handoffs: 0,
            heap_ops: 0,
            policy: None,
            panic_note: None,
            tracer: None,
        }
    }

    /// Install (or remove) a schedule-exploration tie-break policy. With a
    /// policy installed, every instant at which two or more events are
    /// pending becomes a decision point: the policy picks which one
    /// dispatches. Without one, ties break by sequence number as always.
    pub fn set_schedule_policy(&mut self, p: Option<Box<dyn SchedulePolicy>>) {
        self.policy = p;
    }

    /// Record the first actor panic of the run (later ones are dropped; the
    /// run is already doomed and the first failure is the one to report).
    pub(crate) fn note_panic(&mut self, actor: ActorId, message: String) {
        if self.panic_note.is_none() {
            self.panic_note = Some((actor, message));
        }
    }

    /// Drain the pending panic note, if any.
    pub(crate) fn take_panic_note(&mut self) -> Option<(ActorId, String)> {
        self.panic_note.take()
    }

    /// Attach (or detach) a structured tracer. All kernel-level events
    /// (schedule / wake / fast-path bypass / park / complete / timeout) are
    /// emitted through it when its level is `Full`.
    pub fn set_tracer(&mut self, t: Option<std::sync::Arc<hupc_trace::Tracer>>) {
        self.tracer = t;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&std::sync::Arc<hupc_trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Emit a structured trace event at the kernel clock (single branch when
    /// no tracer is attached or its level is below `Full`).
    #[inline]
    pub(crate) fn temit(&self, time: Time, actor: usize, kind: hupc_trace::EventKind, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            t.emit(time, actor as u32, kind, a, b);
        }
    }

    /// Emit the structured counterpart of a dispatched scheduler event.
    pub(crate) fn trace_dispatch(&self, e: &Event) {
        match e.kind {
            EventKind::Wake(a) => self.temit(e.time, a, hupc_trace::EventKind::Wake, e.seq, 0),
            EventKind::Complete(c) => {
                self.temit(e.time, usize::MAX, hupc_trace::EventKind::Complete, c.serial(), e.seq)
            }
            EventKind::Timeout(a, epoch) => {
                let live = self.timeout_is_live(a, epoch);
                self.temit(e.time, a, hupc_trace::EventKind::Timeout, live as u64, e.seq)
            }
        }
    }

    /// Whether the run has dispatched its first actor. From then on
    /// execution contexts exist, so the settings that shape them (stack
    /// size) are fixed.
    pub(crate) fn dispatched(&self) -> bool {
        self.handoffs > 0
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub(crate) fn set_now(&mut self, t: Time) {
        debug_assert!(t >= self.now, "virtual time must be monotone");
        self.now = t;
        self.events_processed += 1;
    }

    /// Draw the next sequence number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    pub(crate) fn push_event(&mut self, time: Time, kind: EventKind) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        let ev = Event {
            time,
            seq: self.next_seq(),
            kind,
        };
        if time == self.now {
            // FIFO order in the near bucket is sequence order: every entry
            // was pushed at this very instant, in seq order.
            self.near.push_back(ev);
        } else {
            self.heap_ops += 1;
            self.far.push(Reverse(ev));
        }
    }

    /// Dispatch one popped event, under the kernel guard the run loop
    /// already holds. `Complete` and `Timeout` events are handled entirely
    /// here; a `Wake` returns the actor to resume.
    #[inline]
    pub(crate) fn dispatch(&mut self, event: Event) -> Option<ActorId> {
        self.trace_dispatch(&event);
        self.set_now(event.time);
        match event.kind {
            EventKind::Complete(c) => {
                self.fire_completion(c);
                None
            }
            EventKind::Timeout(a, epoch) => {
                // A timed wait expired. If the actor was woken since the
                // deadline was armed the event is stale; otherwise pull the
                // actor out of its wait registration and wake it with the
                // timed-out flag set.
                if self.timeout_is_live(a, epoch) {
                    self.cancel_wait(a);
                    self.actors[a].timed_out = true;
                    let now = self.now();
                    self.wake_at(now, a);
                }
                None
            }
            EventKind::Wake(a) => {
                self.mark_running(a);
                self.handoffs += 1;
                Some(a)
            }
        }
    }

    /// The earliest pending event by `(time, seq)`, and whether it sits in
    /// the far heap.
    #[inline]
    fn head(&self) -> Option<(&Event, bool)> {
        match (self.near.front(), self.far.peek()) {
            (Some(n), Some(Reverse(f))) if f < n => Some((f, true)),
            (Some(n), _) => Some((n, false)),
            (None, Some(Reverse(f))) => Some((f, true)),
            (None, None) => None,
        }
    }

    /// Pop the earliest pending event by `(time, seq)` — or, with a
    /// [`SchedulePolicy`] installed, the member of the earliest tie it picks.
    pub(crate) fn pop_event(&mut self) -> Option<Event> {
        if self.policy.is_some() {
            return self.pop_event_policy();
        }
        if self.head()?.1 {
            self.heap_ops += 1;
            self.far.pop().map(|Reverse(e)| e)
        } else {
            self.near.pop_front()
        }
    }

    /// The actor the scheduler will resume next, if the event a policy-free
    /// [`Kernel::pop_event`] would return right now is a `Wake`.
    /// Read-only: the engine uses it purely as a cache-prefetch hint while
    /// it dispatches the current event, so the answer may go stale (the
    /// running actor can schedule something earlier, and a
    /// [`SchedulePolicy`] may pick another member of a tie) at no cost to
    /// correctness.
    pub(crate) fn peek_next_wake(&self) -> Option<ActorId> {
        match self.head()?.0.kind {
            EventKind::Wake(a) => Some(a),
            EventKind::Complete(_) | EventKind::Timeout(..) => None,
        }
    }

    /// Policy-mediated pop: gather every event tied at the earliest pending
    /// time, let the [`SchedulePolicy`] pick one, and reinsert the rest with
    /// their original sequence numbers (so the un-chosen members of the tie
    /// keep their identity for later decision points).
    fn pop_event_policy(&mut self) -> Option<Event> {
        let t = self.earliest_pending()?;
        let mut ready: Vec<Event> = Vec::new();
        while self.far.peek().is_some_and(|Reverse(f)| f.time == t) {
            self.heap_ops += 1;
            ready.push(self.far.pop().map(|Reverse(e)| e).unwrap());
        }
        // Near entries all share `now`; they tie only at it.
        while self.near.front().is_some_and(|n| n.time == t) {
            ready.push(self.near.pop_front().unwrap());
        }
        // Already in seq order: a far event at `t` was pushed before the
        // clock reached `t`, a near one after.
        debug_assert!(ready.windows(2).all(|w| w[0].seq < w[1].seq));
        let choice = if ready.len() > 1 {
            let view: Vec<ReadyEvent> = ready
                .iter()
                .map(|e| ReadyEvent {
                    time: e.time,
                    seq: e.seq,
                    kind: match e.kind {
                        EventKind::Wake(a) => ReadyEventKind::Wake { actor: a },
                        EventKind::Complete(c) => {
                            ReadyEventKind::Complete { completion: c.serial() as usize }
                        }
                        EventKind::Timeout(a, _) => ReadyEventKind::Timeout { actor: a },
                    },
                })
                .collect();
            // Temporarily lift the policy out to sidestep the simultaneous
            // &mut self borrow; `choose` must not touch the kernel anyway.
            let mut policy = self.policy.take().expect("checked in pop_event");
            let c = policy.choose(&view).min(ready.len() - 1);
            self.policy = Some(policy);
            c
        } else {
            0
        };
        let ev = ready.remove(choice);
        for e in ready {
            // Ties at the current instant go back to the near bucket — fully
            // drained above, and reinsertion in seq order keeps its
            // FIFO-by-seq invariant (future pushes carry strictly larger
            // seqs). Ties still ahead of the clock return to the far heap.
            if e.time == self.now {
                self.near.push_back(e);
            } else {
                self.heap_ops += 1;
                self.far.push(Reverse(e));
            }
        }
        Some(ev)
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    fn earliest_pending(&self) -> Option<Time> {
        self.head().map(|(e, _)| e.time)
    }

    /// Whether an actor resuming itself at `t` may take the scheduler-bypass
    /// fast path: its wake must be *strictly* earlier than every pending
    /// event. (An existing event at the same time holds a smaller sequence
    /// number and must run first, so ties disqualify.)
    pub(crate) fn bypass_eligible(&self, t: Time) -> bool {
        self.earliest_pending().is_none_or(|p| t < p)
    }

    /// Process an actor's own wake inline: consume the sequence number the
    /// wake event would have used, advance the clock, and account the event
    /// — without ever enqueueing it or handing off to the scheduler. The
    /// caller must have checked [`Kernel::bypass_eligible`]; the actor keeps
    /// running afterwards.
    pub(crate) fn bypass_resume(&mut self, actor: ActorId, t: Time) {
        // Bugfix-by-construction: taking the fast path while any other event
        // is pending at an earlier-or-equal (time, sequence) would silently
        // reorder the schedule — fail loudly instead.
        debug_assert!(
            self.earliest_pending().is_none_or(|p| t < p),
            "fast path taken at t={t} while an earlier event is pending"
        );
        debug_assert_eq!(
            self.actors[actor].status,
            ActorStatus::Running,
            "fast path requires the calling actor to be the running actor"
        );
        let seq = self.next_seq();
        self.actors[actor].wake_epoch += 1; // voids outstanding timeouts
        self.actors[actor].recent.note(RecentOp::Bypassed(t));
        self.temit(t, actor, hupc_trace::EventKind::FastPathBypass, seq, 0);
        self.set_now(t);
        self.fast_path_hits += 1;
    }

    /// Schedule a wake for `actor` at `time`, marking it runnable.
    pub(crate) fn wake_at(&mut self, time: Time, actor: ActorId) {
        debug_assert_ne!(
            self.actors[actor].status,
            ActorStatus::Runnable,
            "actor {} ({}) already has a pending wake",
            actor,
            self.actors[actor].name
        );
        self.actors[actor].status = ActorStatus::Runnable;
        self.actors[actor].wake_epoch += 1; // voids outstanding timeouts
        let now = self.now;
        self.actors[actor].recent.note(RecentOp::Scheduled(now, time));
        self.temit(self.now, actor, hupc_trace::EventKind::Schedule, time, 0);
        self.push_event(time, EventKind::Wake(actor));
    }

    pub(crate) fn mark_blocked(&mut self, actor: ActorId, on: BlockKind) {
        self.actors[actor].status = ActorStatus::Blocked;
        self.actors[actor].blocked_on = on;
        let now = self.now;
        self.actors[actor].blocked_since = now;
        self.actors[actor].recent.note(RecentOp::Parked(now, on));
        self.temit(self.now, actor, hupc_trace::EventKind::Park, park_code(on), 0);
    }

    /// Arm a timed-wait deadline for `actor` at `at`. Must be called while
    /// the actor is (about to be) blocked; voided automatically if the actor
    /// is woken before the deadline.
    pub(crate) fn schedule_timeout(&mut self, actor: ActorId, at: Time) {
        let epoch = self.actors[actor].wake_epoch;
        self.push_event(at, EventKind::Timeout(actor, epoch));
    }

    /// Whether a `Timeout(actor, epoch)` event is still live when popped.
    pub(crate) fn timeout_is_live(&self, actor: ActorId, epoch: u64) -> bool {
        self.actors[actor].status == ActorStatus::Blocked
            && self.actors[actor].wake_epoch == epoch
    }

    /// Withdraw `actor` from whatever wait registration it holds (the
    /// cleanup half of a timed-wait expiry). A barrier arrival is taken
    /// back — the barrier will need a fresh arrival from someone to release,
    /// which is exactly the "broken barrier" semantics a timeout reports.
    pub(crate) fn cancel_wait(&mut self, actor: ActorId) {
        match self.actors[actor].blocked_on {
            BlockKind::Completion(c) => {
                // A live timeout means the completion has not fired, so the
                // slot is still `c`'s.
                debug_assert!(!self.is_complete(c));
                self.completions[c.slot()].waiters.retain(|&w| w != actor);
            }
            BlockKind::Cond(c) => {
                self.conds[c.0].waiters.retain(|&w| w != actor);
            }
            BlockKind::Barrier(b) => {
                self.barriers[b.0].arrived.retain(|&w| w != actor);
            }
            BlockKind::Mutex(m) => {
                self.mutexes[m.0].queue.retain(|&w| w != actor);
            }
            BlockKind::Start | BlockKind::Advance | BlockKind::Resource(_) => {}
        }
    }

    pub(crate) fn mark_running(&mut self, actor: ActorId) {
        debug_assert_eq!(self.actors[actor].status, ActorStatus::Runnable);
        self.actors[actor].status = ActorStatus::Running;
    }

    // ----- resources ------------------------------------------------------

    /// Register a FIFO queueing resource.
    pub fn new_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(ResourceState {
            name: name.into(),
            next_free: 0,
            busy_total: 0,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// FIFO-acquire `res` for `service` time, starting no earlier than
    /// `earliest`. Returns the completion time. This is the single queueing
    /// primitive every contention effect in the platform model reduces to.
    pub fn acquire_after(
        &mut self,
        res: ResourceId,
        earliest: Time,
        service: Time,
    ) -> Time {
        let r = &mut self.resources[res.0];
        let start = earliest.max(r.next_free);
        r.next_free = start + service;
        r.busy_total += service;
        r.next_free
    }

    /// FIFO-acquire starting no earlier than the current time.
    pub fn acquire(&mut self, res: ResourceId, service: Time) -> Time {
        let now = self.now;
        self.acquire_after(res, now, service)
    }

    /// Earliest instant `res` is free (its queue tail).
    pub fn resource_free_at(&self, res: ResourceId) -> Time {
        self.resources[res.0].next_free
    }

    /// Total busy time accumulated on `res` (for utilization reporting).
    pub fn resource_busy_total(&self, res: ResourceId) -> Time {
        self.resources[res.0].busy_total
    }

    /// Name the resource was registered with.
    pub fn resource_name(&self, res: ResourceId) -> &str {
        &self.resources[res.0].name
    }

    // ----- completions ----------------------------------------------------

    /// Create a fresh not-yet-done completion, in a slot a fired one freed
    /// when there is one.
    pub fn new_completion(&mut self) -> CompletionId {
        let serial = self.completion_serials;
        assert!(
            serial < MAX_COMPLETION_SERIALS,
            "completion serials exhausted: a run may create at most 2^40 completions"
        );
        self.completion_serials += 1;
        let slot = match self.free_completions.pop() {
            Some(slot) => {
                self.completions[slot].serial = serial;
                slot
            }
            None => {
                assert!(
                    self.completions.len() < MAX_LIVE_COMPLETIONS,
                    "completion table full: at most {MAX_LIVE_COMPLETIONS} completions may be live at once"
                );
                self.completions.push(CompletionSlot { serial, waiters: Vec::new() });
                self.completions.len() - 1
            }
        };
        CompletionId::new(serial, slot)
    }

    /// Install `meta` under the next actor id.
    pub(crate) fn alloc_actor(&mut self, meta: ActorMeta) -> ActorId {
        self.actors.push(meta);
        self.actors.len() - 1
    }

    /// Number of actors registered so far (ids are dense from 0).
    pub fn registered_actors(&self) -> usize {
        self.actors.len()
    }

    /// Schedule `comp` to become done at `time`.
    pub fn complete_at(&mut self, time: Time, comp: CompletionId) {
        self.push_event(time, EventKind::Complete(comp));
    }

    /// Whether `comp` has fired: its slot no longer holds its serial.
    pub fn is_complete(&self, comp: CompletionId) -> bool {
        self.completions[comp.slot()].serial != comp.serial()
    }

    /// Mark done immediately, wake waiters at the current time and free the
    /// slot. Firing an already-fired completion is a no-op.
    pub(crate) fn fire_completion(&mut self, comp: CompletionId) {
        let slot = comp.slot();
        if self.completions[slot].serial != comp.serial() {
            return;
        }
        let now = self.now;
        // By index: the buffer stays in the slot for its next occupant.
        for i in 0..self.completions[slot].waiters.len() {
            let w = self.completions[slot].waiters[i];
            self.wake_at(now, w);
        }
        let c = &mut self.completions[slot];
        c.waiters.clear();
        c.serial = FREE_SLOT;
        self.free_completions.push(slot);
    }

    pub(crate) fn add_completion_waiter(&mut self, comp: CompletionId, actor: ActorId) {
        debug_assert!(!self.is_complete(comp));
        self.completions[comp.slot()].waiters.push(actor);
    }

    /// Slots in the completion table: the most completions live at once.
    #[cfg(test)]
    pub(crate) fn completion_slots(&self) -> usize {
        self.completions.len()
    }

    // ----- condition variables --------------------------------------------

    /// Create a condition variable.
    pub fn new_cond(&mut self) -> CondId {
        self.conds.push(CondState::default());
        CondId(self.conds.len() - 1)
    }

    pub(crate) fn add_cond_waiter(&mut self, cond: CondId, actor: ActorId) {
        self.conds[cond.0].waiters.push(actor);
    }

    /// Wake one waiter (FIFO). Returns whether anybody was woken.
    pub fn cond_notify_one(&mut self, cond: CondId) -> bool {
        if self.conds[cond.0].waiters.is_empty() {
            return false;
        }
        let w = self.conds[cond.0].waiters.remove(0);
        let now = self.now;
        self.wake_at(now, w);
        true
    }

    /// Wake all waiters. Returns how many were woken.
    pub fn cond_notify_all(&mut self, cond: CondId) -> usize {
        let waiters = std::mem::take(&mut self.conds[cond.0].waiters);
        let n = waiters.len();
        let now = self.now;
        for w in waiters {
            self.wake_at(now, w);
        }
        n
    }

    /// Number of actors currently parked on `cond`.
    pub fn cond_waiter_count(&self, cond: CondId) -> usize {
        self.conds[cond.0].waiters.len()
    }

    // ----- barriers ---------------------------------------------------------

    /// Create a reusable barrier for `parties` actors.
    pub fn new_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        self.barriers.push(BarrierState {
            parties,
            arrived: Vec::new(),
        });
        BarrierId(self.barriers.len() - 1)
    }

    /// Arrive at the barrier. Returns `true` if this arrival released the
    /// barrier (the caller is the last party and must NOT block); the kernel
    /// has then scheduled wakes for all the earlier arrivals at
    /// `now + release_cost`, and the caller should advance itself by
    /// `release_cost`.
    pub(crate) fn barrier_arrive(
        &mut self,
        bar: BarrierId,
        actor: ActorId,
        release_cost: Time,
    ) -> bool {
        let parties = self.barriers[bar.0].parties;
        self.barriers[bar.0].arrived.push(actor);
        if self.barriers[bar.0].arrived.len() < parties {
            return false;
        }
        // Borrow the arrival list out and hand it back cleared, so every
        // round reuses one allocation.
        let mut arrived = std::mem::take(&mut self.barriers[bar.0].arrived);
        let t = self.now + release_cost;
        for &w in &arrived {
            if w != actor {
                self.wake_at(t, w);
            }
        }
        arrived.clear();
        self.barriers[bar.0].arrived = arrived;
        true
    }

    /// Parties the barrier was created with.
    pub fn barrier_parties(&self, bar: BarrierId) -> usize {
        self.barriers[bar.0].parties
    }

    // ----- mutexes ----------------------------------------------------------

    /// Create a FIFO-fair simulated mutex.
    pub fn new_mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState::default());
        MutexId(self.mutexes.len() - 1)
    }

    /// Attempt the fast path of a lock. Returns `true` on success; on
    /// failure the caller was queued and must block.
    pub(crate) fn mutex_lock_or_enqueue(&mut self, m: MutexId, actor: ActorId) -> bool {
        let st = &mut self.mutexes[m.0];
        if st.owner.is_none() {
            st.owner = Some(actor);
            true
        } else {
            st.queue.push(actor);
            false
        }
    }

    /// Try-lock without queueing.
    pub(crate) fn mutex_try_lock(&mut self, m: MutexId, actor: ActorId) -> bool {
        let st = &mut self.mutexes[m.0];
        if st.owner.is_none() {
            st.owner = Some(actor);
            true
        } else {
            false
        }
    }

    pub(crate) fn mutex_unlock(&mut self, m: MutexId, actor: ActorId) {
        let st = &mut self.mutexes[m.0];
        assert_eq!(
            st.owner,
            Some(actor),
            "mutex unlocked by non-owner actor {actor}"
        );
        if st.queue.is_empty() {
            st.owner = None;
        } else {
            let next = st.queue.remove(0);
            st.owner = Some(next);
            let now = self.now;
            self.wake_at(now, next);
        }
    }

    /// Whether the mutex is currently held.
    pub fn mutex_is_locked(&self, m: MutexId) -> bool {
        self.mutexes[m.0].owner.is_some()
    }

    // ----- diagnostics ------------------------------------------------------

    /// Snapshot the wait graph of every blocked actor (the deadlock report).
    pub(crate) fn wait_graph(&self) -> WaitGraph {
        let name_of = |id: usize| self.actors[id].name.clone();
        let edges = self
            .actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.status == ActorStatus::Blocked)
            .map(|(i, a)| {
                let target = match a.blocked_on {
                    BlockKind::Start => WaitTarget::Start,
                    BlockKind::Advance => WaitTarget::Advance,
                    BlockKind::Resource(r) => WaitTarget::Resource {
                        id: r.0,
                        name: self.resources[r.0].name.clone(),
                    },
                    BlockKind::Completion(c) => WaitTarget::Completion { id: c.serial() as usize },
                    BlockKind::Cond(c) => WaitTarget::Cond {
                        id: c.0,
                        waiters: self.conds[c.0].waiters.len(),
                    },
                    BlockKind::Barrier(b) => WaitTarget::Barrier {
                        id: b.0,
                        arrived: self.barriers[b.0].arrived.len(),
                        parties: self.barriers[b.0].parties,
                        arrived_actors: self.barriers[b.0]
                            .arrived
                            .iter()
                            .map(|&w| (w, name_of(w)))
                            .collect(),
                    },
                    BlockKind::Mutex(m) => WaitTarget::Mutex {
                        id: m.0,
                        owner: self.mutexes[m.0].owner.map(|o| (o, name_of(o))),
                        queue_len: self.mutexes[m.0].queue.len(),
                    },
                };
                WaitEdge {
                    actor: i,
                    actor_name: a.name.clone(),
                    target,
                    blocked_since: a.blocked_since,
                    recent: a.recent.iter().map(RecentOp::render).collect(),
                }
            })
            .collect();
        WaitGraph { edges }
    }
}

/// What one blocked actor is waiting on, with enough context to see *why*
/// it cannot proceed (mutex owner, barrier arrival count, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitTarget {
    /// Spawned but never started (the scheduler quit first).
    Start,
    /// A pure time delay (cannot deadlock; shown for completeness).
    Advance,
    /// A FIFO resource service (cannot deadlock; shown for completeness).
    Resource { id: usize, name: String },
    Completion { id: usize },
    Cond { id: usize, waiters: usize },
    Barrier {
        id: usize,
        arrived: usize,
        parties: usize,
        arrived_actors: Vec<(usize, String)>,
    },
    Mutex {
        id: usize,
        owner: Option<(usize, String)>,
        queue_len: usize,
    },
}

/// One blocked actor and its blocking primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    pub actor: usize,
    pub actor_name: String,
    pub target: WaitTarget,
    /// Virtual time at which the actor parked on `target`.
    pub blocked_since: Time,
    /// The actor's last few scheduler interactions (oldest first), rendered
    /// as compact tokens — the activity tail leading up to the park.
    pub recent: Vec<String>,
}

/// The full set of blocked actors at the moment the event queue drained —
/// the structured deadlock report returned inside
/// [`crate::SimError::Deadlock`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WaitGraph {
    pub edges: Vec<WaitEdge>,
}

impl std::fmt::Display for WaitGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.edges.is_empty() {
            return writeln!(f, "  (no blocked actors)");
        }
        for e in &self.edges {
            write!(f, "  actor {} '{}' waiting on ", e.actor, e.actor_name)?;
            match &e.target {
                WaitTarget::Start => writeln!(f, "its first wake (never started)")?,
                WaitTarget::Advance => writeln!(f, "a time advance")?,
                WaitTarget::Resource { id, name } => {
                    writeln!(f, "resource #{id} '{name}'")?;
                }
                WaitTarget::Completion { id } => writeln!(f, "completion #{id}")?,
                WaitTarget::Cond { id, waiters } => {
                    writeln!(f, "cond #{id} ({waiters} parked, nobody to notify)")?;
                }
                WaitTarget::Barrier {
                    id,
                    arrived,
                    parties,
                    arrived_actors,
                } => {
                    let who: Vec<String> = arrived_actors
                        .iter()
                        .map(|(i, n)| format!("{i} '{n}'"))
                        .collect();
                    writeln!(
                        f,
                        "barrier #{id} ({arrived}/{parties} arrived: [{}])",
                        who.join(", ")
                    )?;
                }
                WaitTarget::Mutex {
                    id,
                    owner,
                    queue_len,
                } => match owner {
                    Some((o, n)) => writeln!(
                        f,
                        "mutex #{id} (held by actor {o} '{n}', {queue_len} queued)"
                    )?,
                    None => writeln!(f, "mutex #{id} (unowned, {queue_len} queued)")?,
                },
            }
            writeln!(
                f,
                "    blocked since t={}; recent: [{}]",
                crate::time::format(e.blocked_since),
                e.recent.join(", ")
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending_events", &(self.near.len() + self.far.len()))
            .field("actors", &self.actors.len())
            .field("live_actors", &self.live_actors)
            .field("resources", &self.resources.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Register `n` completions so tests can push `Complete` events.
    fn completions(k: &mut Kernel, n: usize) -> Vec<CompletionId> {
        (0..n).map(|_| k.new_completion()).collect()
    }

    #[test]
    fn event_ordering_is_time_then_seq() {
        let mut k = Kernel::new();
        let c = completions(&mut k, 3);
        k.push_event(10, EventKind::Complete(c[0]));
        k.push_event(5, EventKind::Complete(c[1]));
        k.push_event(5, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[1]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[0]));
        assert!(k.pop_event().is_none());
    }

    #[test]
    fn fifo_resource_queues_back_to_back() {
        let mut k = Kernel::new();
        let r = k.new_resource("nic");
        assert_eq!(k.acquire_after(r, 0, 100), 100);
        assert_eq!(k.acquire_after(r, 0, 100), 200); // queued behind first
        assert_eq!(k.acquire_after(r, 500, 100), 600); // idle gap respected
        assert_eq!(k.resource_busy_total(r), 300);
        assert_eq!(k.resource_free_at(r), 600);
    }

    #[test]
    fn completion_state_machine() {
        let mut k = Kernel::new();
        let c = k.new_completion();
        assert!(!k.is_complete(c));
        k.fire_completion(c);
        assert!(k.is_complete(c));
        // firing twice is idempotent
        k.fire_completion(c);
        assert!(k.is_complete(c));
    }

    #[test]
    #[should_panic(expected = "barrier needs at least one party")]
    fn zero_party_barrier_rejected() {
        let mut k = Kernel::new();
        k.new_barrier(0);
    }

    #[test]
    fn near_bucket_preserves_global_order() {
        // A far event at time 5 pushed while now=0 must pop before bucket
        // events pushed at now=5 (it has the smaller sequence number), and
        // bucket events pop FIFO among themselves.
        let mut k = Kernel::new();
        let c = completions(&mut k, 5);
        k.push_event(5, EventKind::Complete(c[0])); // far, seq 0
        k.push_event(3, EventKind::Complete(c[1])); // far, seq 1
        let e = k.pop_event().unwrap();
        assert_eq!(e.kind, EventKind::Complete(c[1]));
        k.set_now(e.time);
        let e = k.pop_event().unwrap();
        assert_eq!(e.kind, EventKind::Complete(c[0]));
        k.set_now(e.time); // now = 5
        k.push_event(5, EventKind::Complete(c[2])); // bucket
        k.push_event(5, EventKind::Complete(c[3])); // bucket
        k.push_event(9, EventKind::Complete(c[4])); // far
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[3]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[4]));
        assert!(k.pop_event().is_none());
    }

    #[test]
    fn near_far_boundary_is_exact() {
        // The near window is zero-width: an event at exactly `now`
        // lands in the near bucket, one nanosecond later goes to the heap.
        // Pinned at the boundary and boundary+1 because the bucket's FIFO
        // invariant only holds for events *at* the current instant.
        let mut k = Kernel::new();
        let c = completions(&mut k, 3);
        k.push_event(7, EventKind::Complete(c[0]));
        let e = k.pop_event().unwrap();
        k.set_now(e.time); // now = 7
        let heap_before = k.heap_ops;
        k.push_event(7, EventKind::Complete(c[1])); // boundary: near
        assert_eq!(k.heap_ops, heap_before, "event at now must take the near bucket");
        assert_eq!(k.near.len(), 1);
        k.push_event(8, EventKind::Complete(c[2])); // boundary+1: far
        assert_eq!(k.heap_ops, heap_before + 1, "event at now+1 must take the far heap");
        assert_eq!(k.far.len(), 1);
    }

    /// An actor record for tests: blocked before its first wake.
    fn meta(name: &str, exit: CompletionId) -> ActorMeta {
        ActorMeta {
            name: name.into(),
            status: ActorStatus::Blocked,
            exit,
            blocked_on: BlockKind::Start,
            wake_epoch: 0,
            timed_out: false,
            blocked_since: 0,
            recent: RecentRing::new(),
        }
    }

    #[test]
    fn ids_and_seqs_are_dense_in_allocation_order() {
        let mut k = Kernel::new();
        let c = completions(&mut k, 2);
        assert_eq!([c[0].serial(), c[1].serial()], [0, 1]);
        let a = k.alloc_actor(meta("a", c[1]));
        let b = k.alloc_actor(meta("b", c[0]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(k.new_completion().serial(), 2);
        assert_eq!(k.registered_actors(), k.actors.len());
        k.push_event(4, EventKind::Complete(c[0])); // seq 0
        k.push_event(3, EventKind::Wake(b)); // seq 1
        k.push_event(3, EventKind::Complete(c[1])); // seq 2
        let seqs: Vec<u64> = std::iter::from_fn(|| k.pop_event().map(|e| e.seq)).collect();
        assert_eq!(seqs, [1, 2, 0], "(time, seq) order over one counter");
    }

    #[test]
    fn bypass_eligibility_is_strict() {
        let mut k = Kernel::new();
        assert!(k.bypass_eligible(7), "empty queue: any future time is next");
        let c = k.new_completion();
        k.push_event(10, EventKind::Complete(c));
        assert!(k.bypass_eligible(9));
        assert!(!k.bypass_eligible(10), "tie must go to the queued event");
        assert!(!k.bypass_eligible(11));
    }

    #[test]
    fn bypass_resume_accounts_like_a_popped_event() {
        use hupc_trace::{Event, EventKind as K, TraceLevel, Tracer};
        let mut k = Kernel::new();
        let tracer = std::sync::Arc::new(Tracer::new(TraceLevel::Full));
        k.set_tracer(Some(std::sync::Arc::clone(&tracer)));
        let exit = k.new_completion();
        k.actors.push(ActorMeta {
            name: "a".into(),
            status: ActorStatus::Running,
            exit,
            blocked_on: BlockKind::Start,
            wake_epoch: 3,
            timed_out: false,
            blocked_since: 0,
            recent: RecentRing::new(),
        });
        k.bypass_resume(0, 42);
        assert_eq!(k.now(), 42);
        assert_eq!(k.events_processed(), 1);
        assert_eq!(k.fast_path_hits, 1);
        assert_eq!(k.actors[0].wake_epoch, 4);
        // Traced like a dispatched wake: at its time, carrying the kernel
        // sequence number it consumed.
        assert_eq!(
            tracer.merge(),
            [Event { time: 42, seq: 0, actor: 0, kind: K::FastPathBypass, a: 0, b: 0 }]
        );
        // the consumed sequence number is gone: the next push gets seq 1
        let c = k.new_completion();
        k.push_event(50, EventKind::Complete(c));
        assert_eq!(k.pop_event().unwrap().seq, 1);
    }

    /// A kernel with three actors and three completions to schedule for.
    fn peek_fixture() -> (Kernel, Vec<CompletionId>) {
        let mut k = Kernel::new();
        let comps = completions(&mut k, 3);
        for (i, &exit) in comps.iter().enumerate() {
            k.alloc_actor(meta(&format!("a{i}"), exit));
        }
        (k, comps)
    }

    /// Pop the next event the way the run loop does, first checking that
    /// `peek_next_wake` predicted it. Returns whether there was one.
    fn pop_checking_peek(k: &mut Kernel) -> bool {
        let hint = k.peek_next_wake();
        let Some(e) = k.pop_event() else {
            return false;
        };
        let woken = match e.kind {
            EventKind::Wake(a) => Some(a),
            EventKind::Complete(_) | EventKind::Timeout(..) => None,
        };
        assert_eq!(hint, woken, "peek disagrees with the pop of {e:?}");
        k.set_now(e.time);
        true
    }

    #[test]
    fn peek_next_wake_follows_near_far_and_seq_order() {
        let (mut k, c) = peek_fixture();
        assert_eq!(k.peek_next_wake(), None, "empty queue");
        k.push_event(4, EventKind::Wake(0)); // far, seq 0
        assert_eq!(k.peek_next_wake(), Some(0));
        k.push_event(0, EventKind::Complete(c[0])); // near: earlier, not a wake
        assert_eq!(k.peek_next_wake(), None, "a Complete at the head is no hint");
        assert!(pop_checking_peek(&mut k));
        k.push_event(5, EventKind::Wake(1)); // far, seq 2
        k.push_event(5, EventKind::Timeout(1, 0)); // far, same time, seq 3
        assert!(pop_checking_peek(&mut k)); // Wake(0) at 4
        k.push_event(4, EventKind::Wake(2)); // near at now = 4: before the far 5s
        assert_eq!(k.peek_next_wake(), Some(2));
        assert!(pop_checking_peek(&mut k));
        assert_eq!(k.peek_next_wake(), Some(1));
        assert!(pop_checking_peek(&mut k)); // Wake(1) at 5
        k.push_event(5, EventKind::Wake(0)); // near at now = 5, seq 5
        assert_eq!(
            k.peek_next_wake(),
            None,
            "the far Timeout ties at 5 with a smaller seq: it is the head"
        );
        assert!(pop_checking_peek(&mut k));
        assert_eq!(k.peek_next_wake(), Some(0));
        assert!(pop_checking_peek(&mut k));
        assert_eq!(k.peek_next_wake(), None);
        assert!(k.pop_event().is_none());
    }

    /// The parent's ring: a `VecDeque` with the same `note` rule — collapse
    /// consecutive duplicates, cap at `RECENT_CAP`, drop the oldest.
    fn model_note(model: &mut VecDeque<RecentOp>, op: RecentOp) {
        if model.back() == Some(&op) {
            return;
        }
        if model.len() == RECENT_CAP {
            model.pop_front();
        }
        model.push_back(op);
    }

    fn rendered(ring: &RecentRing) -> Vec<String> {
        ring.iter().map(RecentOp::render).collect()
    }

    /// A small alphabet, so consecutive duplicates are common.
    fn recent_op(word: u8) -> RecentOp {
        let t = Time::from(word >> 2 & 1);
        match word & 3 {
            0 => RecentOp::Scheduled(t, t + 5),
            1 => RecentOp::Bypassed(t),
            2 => RecentOp::Parked(t, BlockKind::Barrier(BarrierId(0))),
            _ => RecentOp::Parked(t, BlockKind::Advance),
        }
    }

    #[test]
    fn recent_ring_collapses_a_duplicate_arriving_at_the_wrap_boundary() {
        let mut ring = RecentRing::new();
        assert!(rendered(&ring).is_empty());
        for t in 0..RECENT_CAP as Time {
            ring.note(RecentOp::Bypassed(t));
        }
        // Full, next write slot is index 0: the newest entry sits in the
        // *last* slot, and a repeat of it must not overwrite the oldest.
        ring.note(RecentOp::Bypassed(RECENT_CAP as Time - 1));
        assert_eq!(rendered(&ring), ["bypass@0ns", "bypass@1ns", "bypass@2ns", "bypass@3ns"]);
        ring.note(RecentOp::Bypassed(9));
        assert_eq!(rendered(&ring), ["bypass@1ns", "bypass@2ns", "bypass@3ns", "bypass@9ns"]);
    }

    /// An actor record for tests that is running (free to park).
    fn running(k: &mut Kernel, name: &str) -> ActorId {
        let exit = k.new_completion();
        let a = k.alloc_actor(meta(name, exit));
        k.actors[a].status = ActorStatus::Running;
        a
    }

    /// Park `a` on `c` the way `Ctx::wait` does.
    fn park_on(k: &mut Kernel, a: ActorId, c: CompletionId) {
        k.add_completion_waiter(c, a);
        k.mark_blocked(a, BlockKind::Completion(c));
    }

    /// Pop and dispatch every pending event; returns the actors woken.
    fn drain(k: &mut Kernel) -> Vec<ActorId> {
        std::iter::from_fn(|| k.pop_event().map(|e| k.dispatch(e)))
            .flatten()
            .collect()
    }

    #[test]
    fn completion_ids_and_events_stay_one_word_and_forty_bytes() {
        assert_eq!(std::mem::size_of::<CompletionId>(), 8);
        assert_eq!(std::mem::size_of::<Event>(), 40);
        let id = CompletionId::new(MAX_COMPLETION_SERIALS - 1, MAX_LIVE_COMPLETIONS - 1);
        assert_eq!((id.serial(), id.slot()), (MAX_COMPLETION_SERIALS - 1, MAX_LIVE_COMPLETIONS - 1));
        assert_eq!(format!("{:?}", CompletionId::new(7, 3)), "CompletionId(7)");
    }

    #[test]
    fn stale_id_reads_complete_after_its_slot_is_reused() {
        let mut k = Kernel::new();
        let c = k.new_completion();
        k.complete_at(3, c);
        assert!(!k.is_complete(c), "pending until its event fires");
        drain(&mut k);
        let d = k.new_completion();
        assert_eq!(d.slot(), c.slot(), "the fired slot is reused");
        assert_eq!((c.serial(), d.serial()), (0, 1));
        assert!(k.is_complete(c), "a stale id reads complete");
        assert!(!k.is_complete(d), "the slot's new occupant is pending");
        assert_eq!(k.completion_slots(), 1);
    }

    #[test]
    fn second_complete_at_for_a_fired_id_spares_the_new_occupant() {
        let mut k = Kernel::new();
        let a = running(&mut k, "a");
        let c = k.new_completion();
        k.complete_at(5, c);
        k.complete_at(7, c); // a duplicate: must stay a no-op
        let e = k.pop_event().unwrap();
        assert_eq!((e.time, e.kind), (5, EventKind::Complete(c)));
        assert_eq!(k.dispatch(e), None);
        let d = k.new_completion();
        assert_eq!(d.slot(), c.slot());
        park_on(&mut k, a, d);
        let e = k.pop_event().unwrap();
        assert_eq!((e.time, e.kind), (7, EventKind::Complete(c)));
        k.dispatch(e);
        assert!(!k.is_complete(d), "the stale fire reached the new occupant");
        assert_eq!(k.actors[a].status, ActorStatus::Blocked);
        assert_eq!(k.completions[d.slot()].waiters, [a], "the waiter stays parked");
        assert!(k.pop_event().is_none(), "nobody was woken");
        k.complete_at(9, d);
        assert_eq!(drain(&mut k), [a]);
        assert_eq!(k.now(), 9);
    }

    #[test]
    fn fire_and_reuse_cycles_keep_the_table_at_the_live_count() {
        let mut k = Kernel::new();
        let mut held = k.new_completion();
        // The actor's exit is the first completion of the cycle; nothing
        // joins it here.
        let a = k.alloc_actor(meta("a", held));
        k.actors[a].status = ActorStatus::Running;
        for i in 0..1_000_000u64 {
            let next = k.new_completion();
            if i % 2 == 0 {
                park_on(&mut k, a, held);
            }
            let now = k.now();
            k.complete_at(now + 1, held);
            // Dispatching the wake leaves `a` running again.
            assert_eq!(drain(&mut k).len(), usize::from(i % 2 == 0));
            assert!(k.is_complete(held));
            held = next;
        }
        assert_eq!(held.serial(), 1_000_000);
        assert!(k.completion_slots() <= 2, "{} slots", k.completion_slots());
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum ModelEvent {
        Wake(ActorId),
        Complete(u64),
        Timeout(ActorId, u64),
    }

    impl ModelEvent {
        fn of(e: &Event) -> Self {
            match e.kind {
                EventKind::Wake(a) => ModelEvent::Wake(a),
                EventKind::Complete(c) => ModelEvent::Complete(c.serial()),
                EventKind::Timeout(a, epoch) => ModelEvent::Timeout(a, epoch),
            }
        }
    }

    /// The completion table before slots were recycled: one entry per
    /// completion ever created, indexed by serial, never freed, with a
    /// `done` flag — plus just enough of a queue and of actor state to
    /// replay waits, timeouts and wakes.
    #[derive(Default)]
    struct DenseModel {
        now: Time,
        seq: u64,
        queue: BinaryHeap<Reverse<(Time, u64, ModelEvent)>>,
        done: Vec<bool>,
        waiters: Vec<Vec<ActorId>>,
        /// Per actor: the serial it is parked on, and its wake epoch.
        parked: Vec<Option<u64>>,
        epoch: Vec<u64>,
        live: usize,
        live_high_water: usize,
    }

    impl DenseModel {
        fn new_completion(&mut self) -> u64 {
            self.done.push(false);
            self.waiters.push(Vec::new());
            self.live += 1;
            self.live_high_water = self.live_high_water.max(self.live);
            self.done.len() as u64 - 1
        }

        fn push(&mut self, time: Time, e: ModelEvent) {
            self.queue.push(Reverse((time, self.seq, e)));
            self.seq += 1;
        }

        fn wake(&mut self, a: ActorId) {
            self.epoch[a] += 1;
            self.parked[a] = None;
            self.push(self.now, ModelEvent::Wake(a));
        }

        fn pop(&mut self) -> Option<(Time, u64, ModelEvent)> {
            let Reverse((time, seq, e)) = self.queue.pop()?;
            self.now = time;
            match e {
                ModelEvent::Complete(s) if !self.done[s as usize] => {
                    self.done[s as usize] = true;
                    self.live -= 1;
                    for w in std::mem::take(&mut self.waiters[s as usize]) {
                        self.wake(w);
                    }
                }
                ModelEvent::Timeout(a, epoch) if self.epoch[a] == epoch => {
                    if let Some(s) = self.parked[a] {
                        self.waiters[s as usize].retain(|&w| w != a);
                        self.wake(a);
                    }
                }
                _ => {}
            }
            Some((time, seq, e))
        }
    }

    /// Drive `k` and the dense model through one script; every answer and
    /// every popped `(time, seq, event)` must agree.
    fn check_against_dense_model(script: &[u32]) {
        const ACTORS: usize = 3;
        let mut k = Kernel::new();
        let mut model = DenseModel::default();
        let mut ids = Vec::new();
        for i in 0..ACTORS {
            let exit = k.new_completion();
            assert_eq!(exit.serial(), model.new_completion());
            ids.push(exit);
            let a = k.alloc_actor(meta(&format!("a{i}"), exit));
            k.actors[a].status = ActorStatus::Running;
            model.parked.push(None);
            model.epoch.push(0);
        }
        // Running = not parked and no wake pending.
        let mut running = [true; ACTORS];
        fn pop_both(k: &mut Kernel, model: &mut DenseModel, running: &mut [bool]) -> bool {
            let got = k.pop_event();
            let want = model.pop();
            assert_eq!(got.map(|e| (e.time, e.seq, ModelEvent::of(&e))), want);
            if let Some(a) = got.and_then(|e| k.dispatch(e)) {
                running[a] = true;
            }
            got.is_some()
        }
        for &word in script {
            let (op, pick, dt) = (word % 6, (word >> 3) as usize, Time::from(word >> 20 & 3));
            match op {
                0 => {
                    let c = k.new_completion();
                    assert_eq!(c.serial(), model.new_completion());
                    ids.push(c);
                }
                1 => {
                    let c = ids[pick % ids.len()];
                    let at = k.now() + dt;
                    k.complete_at(at, c);
                    model.push(at, ModelEvent::Complete(c.serial()));
                }
                2 => {
                    pop_both(&mut k, &mut model, &mut running);
                }
                3 => {
                    let c = ids[pick % ids.len()];
                    assert_eq!(k.is_complete(c), model.done[c.serial() as usize], "{c:?}");
                }
                _ => {
                    let a = pick % ACTORS;
                    let c = ids[(pick / ACTORS) % ids.len()];
                    if !running[a] || k.is_complete(c) {
                        continue;
                    }
                    park_on(&mut k, a, c);
                    running[a] = false;
                    model.waiters[c.serial() as usize].push(a);
                    model.parked[a] = Some(c.serial());
                    if op == 5 {
                        let at = k.now() + dt;
                        k.schedule_timeout(a, at);
                        model.push(at, ModelEvent::Timeout(a, model.epoch[a]));
                    }
                }
            }
        }
        while pop_both(&mut k, &mut model, &mut running) {}
        for &c in &ids {
            assert_eq!(k.is_complete(c), model.done[c.serial() as usize], "{c:?}");
        }
        assert_eq!(k.completion_slots(), model.live_high_water);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The inline ring renders exactly what the `VecDeque` it replaced
        /// rendered, after every push of a random sequence.
        #[test]
        fn recent_ring_renders_like_the_vecdeque_model(
            script in proptest::collection::vec(proptest::any::<u8>(), 0..40),
        ) {
            let mut ring = RecentRing::new();
            let mut model = VecDeque::new();
            for word in script {
                ring.note(recent_op(word));
                model_note(&mut model, recent_op(word));
                let want: Vec<String> = model.iter().map(RecentOp::render).collect();
                proptest::prop_assert_eq!(rendered(&ring), want);
            }
        }

        /// Random creates, `complete_at`s (duplicates and stale ids
        /// included), pops, polls, waits and timed waits answer and pop
        /// exactly as the dense, never-freed table did.
        #[test]
        fn recycled_completions_match_the_dense_model(
            script in proptest::collection::vec(proptest::any::<u32>(), 0..200),
        ) {
            check_against_dense_model(&script);
        }

        /// Over random near / far pushes interleaved with pops,
        /// `peek_next_wake` names exactly the actor the very next
        /// `pop_event` wakes (and nothing when that event is not a wake).
        #[test]
        fn peek_next_wake_agrees_with_next_pop(
            script in proptest::collection::vec(proptest::any::<u32>(), 0..96),
        ) {
            let (mut k, comps) = peek_fixture();
            for word in script {
                let (op, target, dt) = (word & 3, (word >> 2) as usize % comps.len(), (word >> 8) % 4);
                if op == 3 {
                    pop_checking_peek(&mut k);
                    continue;
                }
                let kind = match op {
                    0 => EventKind::Wake(target),
                    1 => EventKind::Complete(comps[target]),
                    _ => EventKind::Timeout(target, 0),
                };
                k.push_event(k.now() + dt as Time, kind);
            }
            while pop_checking_peek(&mut k) {}
        }
    }
}
