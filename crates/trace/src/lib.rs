//! Virtual-time structured event tracing and metrics for the hupc runtime.
//!
//! The simulation core attributes every nanosecond of virtual time to a
//! modeled cause — a wake, a NIC service, a lock handover — but until this
//! crate the only observable outputs were a handful of aggregate counters.
//! `hupc-trace` records *structured events* `(time, seq, actor, kind,
//! payload)` into per-actor ring buffers and merges them deterministically,
//! plus a typed [`MetricsRegistry`] of counters and histograms keyed by
//! topology location.
//!
//! # Determinism contract
//!
//! - Recording is **observationally free**: emitting an event never touches
//!   the kernel clock, the event queue, or any PRNG. A run with tracing
//!   `Off` and a run with tracing `Full` produce bit-identical virtual-time
//!   behavior (`end_time`, kernel event seqs, fast-path hits, app results).
//! - The trace itself is deterministic: actors execute serialized under the
//!   discrete-event engine, so the global trace sequence counter observes a
//!   deterministic interleaving. Two runs with the same seed produce
//!   byte-identical JSONL exports (the golden-trace tests pin this).
//! - Trace `seq` numbers are allocated only when an event is actually
//!   recorded; they are unrelated to (and independent of) kernel event
//!   sequence numbers, which are carried in event payloads where relevant.
//!
//! # Cost model
//!
//! Tracing has one off switch, at run time: attach no tracer (the default)
//! or attach one at [`TraceLevel::Off`]. With no tracer attached an
//! instrumented site costs one branch on an `Option`, and sites whose
//! payload takes work to compute (a trace location, a distance, a span tag)
//! sit behind that same branch (`hupc_sim::Ctx::tracing`), so an untraced
//! run does no argument work. With a tracer attached the level check is a
//! single relaxed atomic load.

mod export;
mod metrics;

pub use export::{to_chrome_trace, to_jsonl};
pub use metrics::{Hist, Loc, MetricValue, MetricsRegistry, MetricsSnapshot};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Virtual-time timestamp in nanoseconds (mirrors `hupc_sim::Time`; this
/// crate keeps its own alias so the sim can depend on it without a cycle).
pub type Time = u64;

/// How much the tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// Record nothing (default). Instrumentation costs one branch.
    Off = 0,
    /// Update metrics (counters / histograms) but record no events.
    Counters = 1,
    /// Metrics plus full structured event recording.
    Full = 2,
}

impl TraceLevel {
    fn from_u8(v: u8) -> TraceLevel {
        match v {
            0 => TraceLevel::Off,
            1 => TraceLevel::Counters,
            _ => TraceLevel::Full,
        }
    }
}

/// What happened. Payload semantics (the `a` / `b` fields of [`Event`]) are
/// per-kind and documented on each variant; all payloads are plain integers
/// so exports are bit-stable across platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    // ----- kernel (crates/sim) ------------------------------------------
    /// A wake was scheduled for `actor`. `a` = wake time.
    Schedule,
    /// The scheduler dispatched a wake to `actor`. `a` = kernel event seq.
    Wake,
    /// A simcall resolved inline on the scheduler-bypass fast path.
    /// `a` = kernel event seq the bypassed wake consumed.
    FastPathBypass,
    /// `actor` parked (blocked). `a` = block-kind code (see `park` module).
    Park,
    /// A completion fired. `a` = completion id.
    Complete,
    /// A timed-wait deadline event was dispatched. `a` = 1 if live, 0 stale.
    Timeout,
    // ----- gasnet --------------------------------------------------------
    /// One-sided put issued. `a` = destination thread, `b` = bytes.
    PutIssue,
    /// Put charged to the platform. `a` = bytes, `b` = access-path code.
    PutCharge,
    /// One-sided get issued. `a` = source (remote) thread, `b` = bytes.
    GetIssue,
    /// Get charged to the platform. `a` = bytes, `b` = access-path code.
    GetCharge,
    /// A transmission was dropped and will be retried. `a` = attempt number
    /// (1-based), `b` = bytes.
    Retry,
    /// Exponential backoff before a retry. `a` = backoff delay (ns).
    Backoff,
    /// Entered a blocking barrier (quiesce + arrive). `a` = barrier cost.
    BarrierEnter,
    /// Released from a blocking barrier.
    BarrierExit,
    /// Split-phase `barrier_notify` arrival.
    BarrierNotify,
    /// Split-phase `barrier_wait` completed.
    BarrierWait,
    // ----- upc -----------------------------------------------------------
    /// UPC lock acquired. `a` = home thread, `b` = 1 if home is castable
    /// (same-node cheap path), 0 remote.
    LockAcquire,
    /// UPC lock released. `a` = home thread.
    LockRelease,
    /// Collective started. `a` = op code (see `coll` module), `b` = words.
    CollBegin,
    /// Collective finished. `a` = op code.
    CollEnd,
    // ----- apps ----------------------------------------------------------
    /// UTS steal attempt. `a` = victim thread, `b` = group distance
    /// (node-index distance between thief and victim; 0 = same node).
    StealAttempt,
    /// UTS steal success. `a` = victim thread, `b` = group distance.
    StealSuccess,
    /// A labeled span opened. `a` = span code (see `span` module).
    SpanBegin,
    /// A labeled span closed. `a` = span code.
    SpanEnd,
}

impl EventKind {
    /// Stable short name used by the exporters (part of the golden-trace
    /// format — do not rename without re-blessing goldens).
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            Schedule => "sched",
            Wake => "wake",
            FastPathBypass => "bypass",
            Park => "park",
            Complete => "complete",
            Timeout => "timeout",
            PutIssue => "put",
            PutCharge => "put_charge",
            GetIssue => "get",
            GetCharge => "get_charge",
            Retry => "retry",
            Backoff => "backoff",
            BarrierEnter => "bar_enter",
            BarrierExit => "bar_exit",
            BarrierNotify => "bar_notify",
            BarrierWait => "bar_wait",
            LockAcquire => "lock",
            LockRelease => "unlock",
            CollBegin => "coll_begin",
            CollEnd => "coll_end",
            StealAttempt => "steal_try",
            StealSuccess => "steal_ok",
            SpanBegin => "span_begin",
            SpanEnd => "span_end",
        }
    }
}

/// Block-kind payload codes for [`EventKind::Park`].
pub mod park {
    pub const START: u64 = 0;
    pub const ADVANCE: u64 = 1;
    pub const RESOURCE: u64 = 2;
    pub const COMPLETION: u64 = 3;
    pub const COND: u64 = 4;
    pub const BARRIER: u64 = 5;
    pub const MUTEX: u64 = 6;
}

/// Collective op codes for [`EventKind::CollBegin`] / [`EventKind::CollEnd`].
///
/// The `a` payload of a collective event packs three fields:
/// `op | (algo << ALGO_SHIFT) | (phase << PHASE_SHIFT)`. A flat whole-op
/// event is `algo == ALGO_FLAT` and `phase == 0`, so the packed value equals
/// the bare op code — existing goldens (which predate the tags) stay valid
/// byte-for-byte.
pub mod coll {
    pub const BROADCAST: u64 = 0;
    pub const ALLREDUCE: u64 = 1;
    pub const ALL_EXCHANGE: u64 = 2;
    pub const ALLGATHER: u64 = 3;
    pub const BARRIER: u64 = 4;

    /// Algorithm tag (which decomposition ran), packed above the op code.
    pub const ALGO_SHIFT: u32 = 8;
    pub const ALGO_FLAT: u64 = 0;
    pub const ALGO_TWO_LEVEL: u64 = 1;
    pub const ALGO_THREE_LEVEL: u64 = 2;

    /// Phase tag (which stage of a hierarchical op), packed above the algo.
    pub const PHASE_SHIFT: u32 = 12;
    /// Whole-op event (no phase).
    pub const PHASE_OP: u64 = 0;
    /// Intra-group shared-memory stage (gather / fan-out, no network).
    pub const PHASE_INTRA: u64 = 1;
    /// Inter-leader network stage (trees / rings over gasnet).
    pub const PHASE_INTER: u64 = 2;

    /// Pack an op + algorithm tag (whole-op event).
    pub fn tag(op: u64, algo: u64) -> u64 {
        op | (algo << ALGO_SHIFT)
    }

    /// Pack an op + algorithm + phase tag (stage event).
    pub fn phase_tag(op: u64, algo: u64, phase: u64) -> u64 {
        op | (algo << ALGO_SHIFT) | (phase << PHASE_SHIFT)
    }

    /// The bare op code of a packed collective payload.
    pub fn op_of(a: u64) -> u64 {
        a & ((1 << ALGO_SHIFT) - 1)
    }

    /// The algorithm tag of a packed collective payload.
    pub fn algo_of(a: u64) -> u64 {
        (a >> ALGO_SHIFT) & ((1 << (PHASE_SHIFT - ALGO_SHIFT)) - 1)
    }

    /// The phase tag of a packed collective payload.
    pub fn phase_of(a: u64) -> u64 {
        a >> PHASE_SHIFT
    }
}

/// Span codes for [`EventKind::SpanBegin`] / [`EventKind::SpanEnd`].
pub mod span {
    /// FT: local FFT compute (2-D planes or z-pencils).
    pub const FT_COMPUTE: u64 = 0;
    /// FT: global transpose exchange (pack + put + drain).
    pub const FT_EXCHANGE: u64 = 1;
    /// FT: spectral evolve.
    pub const FT_EVOLVE: u64 = 2;
    /// GUPS: update generation + routing (the communication phase).
    pub const GUPS_EXCHANGE: u64 = 3;
    /// GUPS: applying delivered updates to the local table.
    pub const GUPS_APPLY: u64 = 4;

    /// Human-readable span name for exporters.
    pub fn name(code: u64) -> &'static str {
        match code {
            FT_COMPUTE => "ft.compute",
            FT_EXCHANGE => "ft.exchange",
            FT_EVOLVE => "ft.evolve",
            GUPS_EXCHANGE => "gups.exchange",
            GUPS_APPLY => "gups.apply",
            _ => "span",
        }
    }
}

/// One recorded event. `seq` is the tracer-global emission sequence number:
/// unique across all actors, monotone in emission order, so `(time, seq)`
/// totally orders the merged trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub time: Time,
    pub seq: u64,
    pub actor: u32,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// Bounded per-actor event buffer: keeps the most recent `capacity` events,
/// counting (deterministically) how many older ones were evicted.
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event, capacity: usize) {
        if self.events.len() == capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// The tracer: level gate, global sequence counter, per-actor rings, and the
/// metrics registry. Cheap to share (`Arc`); all methods take `&self`.
pub struct Tracer {
    level: AtomicU8,
    seq: AtomicU64,
    capacity: usize,
    /// Per-actor rings, keyed by actor id (sparse: the engine emits under a
    /// `u32::MAX` sentinel actor).
    rings: Mutex<BTreeMap<u32, Ring>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("events", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Default per-actor ring capacity (events). Each event is 48 bytes, so the
/// default bounds tracing memory at ~3 MiB per actor.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

impl Tracer {
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer::with_capacity(level, DEFAULT_RING_CAPACITY)
    }

    /// Tracer whose per-actor rings keep at most `capacity` events each
    /// (drop-oldest). Eviction is deterministic, so bounded traces are still
    /// byte-identical across runs.
    pub fn with_capacity(level: TraceLevel, capacity: usize) -> Tracer {
        Tracer {
            level: AtomicU8::new(level as u8),
            seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            rings: Mutex::new(BTreeMap::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    pub fn level(&self) -> TraceLevel {
        TraceLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Single-branch gate: is the tracer at least at `min`?
    #[inline]
    pub fn enabled(&self, min: TraceLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= min as u8
    }

    /// Record one event at virtual time `time`. No-op below `Full`. Never
    /// blocks on anything but the (uncontended — actors are serialized)
    /// rings mutex; never touches virtual time.
    #[inline]
    pub fn emit(&self, time: Time, actor: u32, kind: EventKind, a: u64, b: u64) {
        if !self.enabled(TraceLevel::Full) {
            return;
        }
        self.emit_always(time, actor, kind, a, b);
    }

    fn emit_always(&self, time: Time, actor: u32, kind: EventKind, a: u64, b: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            time,
            seq,
            actor,
            kind,
            a,
            b,
        };
        let mut rings = lock(&self.rings);
        rings.entry(actor).or_insert_with(Ring::new).push(ev, self.capacity);
    }

    /// Bump a counter metric. No-op below `Counters`.
    #[inline]
    pub fn count(&self, name: &'static str, loc: Loc, v: u64) {
        if self.enabled(TraceLevel::Counters) {
            self.metrics.count(name, loc, v);
        }
    }

    /// Record a histogram observation. No-op below `Counters`.
    #[inline]
    pub fn observe(&self, name: &'static str, loc: Loc, v: u64) {
        if self.enabled(TraceLevel::Counters) {
            self.metrics.observe(name, loc, v);
        }
    }

    /// The metrics registry (readable at any level).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Total events recorded so far (= next seq to be allocated).
    pub fn events_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Total events evicted from full rings across all actors.
    pub fn events_dropped(&self) -> u64 {
        lock(&self.rings).values().map(|r| r.dropped).sum()
    }

    /// Merge every actor ring into one trace, totally ordered by
    /// `(time, seq)`. Deterministic: same run → same vector.
    pub fn merge(&self) -> Vec<Event> {
        let rings = lock(&self.rings);
        let mut all: Vec<Event> =
            rings.values().flat_map(|r| r.events.iter().copied()).collect();
        all.sort_by_key(|e| (e.time, e.seq));
        all
    }

    /// Discard all recorded events and metrics, keeping the level. The seq
    /// counter keeps counting up (uniqueness over the tracer's lifetime).
    pub fn clear(&self) {
        lock(&self.rings).clear();
        self.metrics.clear();
    }

    /// Install this tracer as the process-global default picked up by every
    /// subsequently created `Simulation`, returning a guard that uninstalls
    /// it on drop. Guards serialize: concurrent installs (e.g. parallel
    /// tests) block until the previous guard drops, so a simulation can
    /// never observe another test's tracer.
    pub fn install(self: &Arc<Self>) -> Installed {
        let lock = lock(&INSTALL_LOCK);
        set_global_tracer(Some(Arc::clone(self)));
        Installed { _lock: lock }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// process-global default tracer
// ---------------------------------------------------------------------------

static GLOBAL: Mutex<Option<Arc<Tracer>>> = Mutex::new(None);
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Set (or clear) the process-global default tracer. Its one public entry is
/// [`Tracer::install`], whose guard also serializes installs.
fn set_global_tracer(t: Option<Arc<Tracer>>) {
    *lock(&GLOBAL) = t;
}

/// The process-global default tracer, if one is installed.
pub fn global_tracer() -> Option<Arc<Tracer>> {
    lock(&GLOBAL).clone()
}

/// RAII guard from [`Tracer::install`]: uninstalls the global tracer on drop
/// and holds the install lock so installs are serialized process-wide.
pub struct Installed {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        set_global_tracer(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_allocates_no_seqs() {
        let t = Tracer::new(TraceLevel::Off);
        t.emit(10, 0, EventKind::Wake, 1, 2);
        t.count("x", Loc::global(), 5);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.merge().is_empty());
        assert!(t.metrics().snapshot().entries.is_empty());
    }

    #[test]
    fn counters_level_updates_metrics_but_records_no_events() {
        let t = Tracer::new(TraceLevel::Counters);
        t.emit(10, 0, EventKind::Wake, 1, 2);
        t.count("x", Loc::global(), 5);
        assert_eq!(t.events_recorded(), 0);
        assert_eq!(t.metrics().counter_value("x", Loc::global()), 5);
    }

    #[test]
    fn merge_orders_by_time_then_seq() {
        let t = Tracer::new(TraceLevel::Full);
        // Interleave actors with equal times: seq must break the tie in
        // emission order.
        t.emit(5, 1, EventKind::Park, 0, 0); // seq 0
        t.emit(5, 0, EventKind::Wake, 0, 0); // seq 1
        t.emit(3, 2, EventKind::Schedule, 3, 0); // seq 2
        let m = t.merge();
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 0, 1],
            "sorted by (time, seq): t=3 first, then the two t=5 in seq order"
        );
        assert!(m.windows(2).all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));
    }

    #[test]
    fn ring_drops_oldest_deterministically() {
        let t = Tracer::with_capacity(TraceLevel::Full, 4);
        for i in 0..10u64 {
            t.emit(i, 0, EventKind::Wake, i, 0);
        }
        assert_eq!(t.events_dropped(), 6);
        let m = t.merge();
        assert_eq!(m.len(), 4);
        assert_eq!(m.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn install_guard_sets_and_restores_global() {
        let t = Arc::new(Tracer::new(TraceLevel::Full));
        {
            let _g = t.install();
            assert!(global_tracer().is_some());
        }
        assert!(global_tracer().is_none());
    }

    #[test]
    fn coll_tags_round_trip_and_flat_is_bare_op() {
        use super::coll;
        // Flat whole-op payloads are the bare op code (golden stability).
        assert_eq!(coll::tag(coll::ALLREDUCE, coll::ALGO_FLAT), coll::ALLREDUCE);
        let a = coll::phase_tag(coll::BROADCAST, coll::ALGO_THREE_LEVEL, coll::PHASE_INTER);
        assert_eq!(coll::op_of(a), coll::BROADCAST);
        assert_eq!(coll::algo_of(a), coll::ALGO_THREE_LEVEL);
        assert_eq!(coll::phase_of(a), coll::PHASE_INTER);
    }

    #[test]
    fn kind_names_are_unique() {
        use EventKind::*;
        let kinds = [
            Schedule,
            Wake,
            FastPathBypass,
            Park,
            Complete,
            Timeout,
            PutIssue,
            PutCharge,
            GetIssue,
            GetCharge,
            Retry,
            Backoff,
            BarrierEnter,
            BarrierExit,
            BarrierNotify,
            BarrierWait,
            LockAcquire,
            LockRelease,
            CollBegin,
            CollEnd,
            StealAttempt,
            StealSuccess,
            SpanBegin,
            SpanEnd,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
