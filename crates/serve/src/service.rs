//! The sharded key-value service on the full `Upc` runtime (PGAS mode).
//!
//! Every UPC thread plays two roles at once:
//!
//! - **owner** of `partitions_per_thread` partitions, whose `[version,
//!   value]` pairs live in its shared segment — readable by anyone with a
//!   one-sided GET, writable only through its inbox;
//! - **frontend** admitting its own open-loop request stream on schedule.
//!
//! The wire protocol is pure PGAS: no request/reply actor pairs, just
//! one-sided puts and gets against symmetric segment offsets.
//!
//! * GET — a one-sided `memget` of the key's 2-word slot in the owner's
//!   segment. Owners apply a whole `[version, value]` pair in one local
//!   write, so a concurrent GET never observes a torn pair.
//! * PUT / BATCH — the frontend deposits `[seq, n, (key, delta)×n]` in its
//!   private inbox slot inside the owner's segment (one put), the owner's
//!   serve loop drains the inbox, bumps each key's version, adds the delta,
//!   appends to its committed log, and acks by writing `seq` into the
//!   frontend's ack slot. One outstanding update per frontend keeps slot
//!   reuse trivially safe; requests behind it queue — visibly, because
//!   arrivals are open-loop.
//!
//! Each thread runs a single event loop: admit due requests, drain the
//! inbox (serve), poll acks — and *always* drains while waiting, so two
//! threads updating each other's shards can never deadlock. Epoch
//! boundaries fan in through the hierarchical collectives (`hupc-coll`):
//! flag-sync, barrier, then group-staged `allreduce` snapshots of committed
//! counts and value sums — the "multi-key read" of the whole store.
//!
//! Overload control: `shed_after` bounds the queueing delay a request may
//! already have accumulated when the frontend gets to it; beyond the bound
//! it is shed (counted, never transmitted) instead of deepening the queue.

use std::sync::Arc;

use hupc_coll::CollDomain;
use hupc_gasnet::GasnetConfig;
use hupc_sim::{time, Kernel, SimCell, SimError, Time};
use hupc_trace::{Hist, Loc, MetricsRegistry};
use hupc_upc::{Upc, UpcConfig, UpcJob};

use crate::shard::ShardMap;
use crate::traffic::{OpKind, Request, TrafficConfig};

/// App-level retry bound on top of the transport's own retry budget.
/// Exhausting it marks the request `Failed` instead of panicking, so
/// adversarial schedule exploration keeps running.
const RETRY_CAP: u32 = 300;

/// Full serving-run configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub upc: UpcConfig,
    pub traffic: TrafficConfig,
    pub partitions_per_thread: usize,
    pub keys_per_partition: usize,
    /// Epoch snapshots: the schedule is split into this many chunks; each
    /// boundary runs a hierarchical fan-in snapshot. Use 1 for pure-latency
    /// experiments (no collective coupling between threads mid-run).
    pub epochs: usize,
    /// Admission control: shed a request whose queueing delay already
    /// exceeds this when the frontend dispatches it. `None` = queue without
    /// bound (saturation grows the tail unboundedly).
    pub shed_after: Option<Time>,
    /// Owner-side CPU cost per applied update, ns.
    pub apply_ns: u64,
    /// Frontend-side CPU cost to post-process a GET, ns.
    pub get_compute_ns: u64,
    /// Idle poll quantum for the event loop.
    pub poll_gap: Time,
}

impl ServeConfig {
    /// Test-sized run: 8 threads over 2 nodes, 512 keys, a few hundred
    /// requests.
    pub fn small(seed: u64) -> ServeConfig {
        ServeConfig {
            upc: UpcConfig::test_default(8, 2),
            traffic: TrafficConfig {
                process: crate::traffic::ArrivalProcess::Poisson {
                    mean_gap: time::us(20),
                },
                mix: crate::traffic::OpMix::read_heavy(),
                requests_per_frontend: 60,
                batch_len: 4,
                keys: crate::traffic::KeyDist::Uniform,
                seed,
            },
            partitions_per_thread: 2,
            keys_per_partition: 32,
            epochs: 2,
            shed_after: None,
            apply_ns: 200,
            get_compute_ns: 100,
            poll_gap: time::us(2),
        }
    }
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed; latency recorded.
    Done,
    /// Shed by admission control; never transmitted.
    Shed,
    /// Transport retry budget exhausted (only reachable under extreme fault
    /// plans or adversarial schedules).
    Failed,
}

/// Per-request record, in dispatch order per frontend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqRecord {
    pub arrival: Time,
    pub complete: Time,
    pub op: OpKind,
    pub key: u64,
    /// Version observed (GET) or committed (PUT/BATCH: version of the first
    /// key after the update).
    pub version: u64,
    pub outcome: Outcome,
    /// Loss/jitter perturbations drawn anywhere in the run while this
    /// request was in flight (global counter delta — a tagging heuristic,
    /// exact on single-tenant fault plans).
    pub faulted: bool,
    pub retries: u32,
}

/// Everything a serving run produces.
#[derive(Clone, Debug, Default)]
pub struct ServeResult {
    /// Per-frontend request records in dispatch order.
    pub records: Vec<Vec<ReqRecord>>,
    /// Per-owner committed log: `(key, version)` in apply order.
    pub committed: Vec<Vec<(u64, u64)>>,
    /// Per-epoch `(committed updates, value sum)` from the hierarchical
    /// fan-in snapshot.
    pub epoch_sums: Vec<(u64, u64)>,
    /// Latency histogram over all completed requests (ns).
    pub hist: Hist,
    /// Latency histogram over completed requests tagged as fault-affected.
    pub hist_faulted: Hist,
    pub generated: u64,
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    pub retries: u64,
    /// FNV hash over every owner's final store contents, in thread order.
    pub end_state: u64,
    pub end_time: Time,
}

impl ServeResult {
    /// Completed requests per second of virtual time.
    pub fn throughput_rps(&self) -> f64 {
        if self.end_time == 0 {
            return 0.0;
        }
        self.completed as f64 / hupc_sim::time::as_secs_f64(self.end_time)
    }
}

fn fnv(h: u64, w: u64) -> u64 {
    let mut h = h ^ w;
    h = h.wrapping_mul(0x100000001B3);
    h
}

/// Segment layout (word offsets are symmetric across threads).
#[derive(Clone, Copy, Debug)]
struct Layout {
    store_off: usize,
    inbox_off: usize,
    slot_words: usize,
    ack_off: usize,
    flag_off: usize,
}

struct Pending {
    seq: u64,
    owner: usize,
    arrival: Time,
    key: u64,
    op: OpKind,
    fault_snap: u64,
    retries: u32,
}

/// Per-thread mutable serving state.
struct ThreadState {
    sched: Vec<Request>,
    records: Vec<ReqRecord>,
    committed: Vec<(u64, u64)>,
    /// Last inbox seq applied, per source frontend.
    applied: Vec<u64>,
    pending: Option<Pending>,
    put_seq: u64,
    retries_total: u64,
}

fn fault_perturbations(upc: &Upc<'_>) -> u64 {
    upc.gasnet().fault().map(|f| f.perturbations()).unwrap_or(0)
}

/// Bounded-retry one-sided put; `false` = budget exhausted.
fn put_retry(upc: &Upc<'_>, dst: usize, off: usize, data: &[u64], retries: &mut u32) -> bool {
    let mut tries = 0u32;
    loop {
        match upc.try_memput(dst, off, data) {
            Ok(()) => return true,
            Err(_) => {
                tries += 1;
                *retries += 1;
                if tries > RETRY_CAP {
                    return false;
                }
                upc.ctx().advance(time::ns(300 * (1 + tries as u64 / 8)));
            }
        }
    }
}

fn get_retry(upc: &Upc<'_>, src: usize, off: usize, out: &mut [u64], retries: &mut u32) -> bool {
    let mut tries = 0u32;
    loop {
        match upc.try_memget(src, off, out) {
            Ok(()) => return true,
            Err(_) => {
                tries += 1;
                *retries += 1;
                if tries > RETRY_CAP {
                    return false;
                }
                upc.ctx().advance(time::ns(300 * (1 + tries as u64 / 8)));
            }
        }
    }
}

/// Serve everything currently in the inbox: apply updates to the local
/// store, append to the committed log, ack each source.
fn drain_inbox(upc: &Upc<'_>, shard: &ShardMap, lay: Layout, st: &mut ThreadState, cfg: &ServeConfig) {
    let me = upc.mythread();
    let n = upc.threads();
    let seg = upc.gasnet().segment(me);
    let mut from = 0;
    loop {
        // Frontend seqs increase monotonically across ALL its owners (one
        // outstanding update per frontend), so any seq above the last one
        // applied from this source is exactly one new message. Find the
        // next such source under one borrow of the segment: this scan runs
        // on every idle poll and almost always finds nothing.
        let ready = seg.with_range(lay.inbox_off, n * lay.slot_words, |inbox| {
            (from..n)
                .map(|src| (src, inbox[src * lay.slot_words]))
                .find(|&(src, seq)| seq > st.applied[src])
        });
        let Some((src, seq)) = ready else { return };
        // Serving the slot takes virtual time; the scan resumes behind it
        // with a fresh look at the inbox.
        from = src + 1;
        let slot = lay.inbox_off + src * lay.slot_words;
        let count = seg.read_word(slot + 1) as usize;
        let mut pairs = vec![0u64; 2 * count];
        seg.read(slot + 2, &mut pairs);
        for c in pairs.chunks_exact(2) {
            let (key, delta) = (c[0], c[1]);
            let off = lay.store_off + 2 * shard.local_index(key);
            let ver = seg.read_word(off);
            let val = seg.read_word(off + 1);
            // One 2-word write: a concurrent one-sided GET sees either the
            // old pair or the new pair, never a torn mix.
            seg.write(off, &[ver + 1, val.wrapping_add(delta)]);
            st.committed.push((key, ver + 1));
        }
        upc.compute(time::ns(cfg.apply_ns * count as u64));
        st.applied[src] = seq;
        let mut r = 0u32;
        // Ack into the source's segment; on (astronomically unlikely)
        // failure the source's own retry/shed path owns recovery.
        let _ = put_retry(upc, src, lay.ack_off + me, &[seq], &mut r);
        st.retries_total += r as u64;
    }
}

/// If the outstanding update has been acked, record its completion.
fn poll_ack(upc: &Upc<'_>, lay: Layout, st: &mut ThreadState, metrics: &MetricsRegistry, loc: Loc) {
    let me = upc.mythread();
    let Some(p) = &st.pending else { return };
    let acked = upc.gasnet().segment(me).read_word(lay.ack_off + p.owner);
    if acked < p.seq {
        return;
    }
    let p = st.pending.take().unwrap();
    let now = upc.now();
    let lat = now - p.arrival;
    let faulted = fault_perturbations(upc) != p.fault_snap;
    metrics.observe("serve.latency", loc, lat);
    if faulted {
        metrics.observe("serve.latency_faulted", loc, lat);
    }
    metrics.count("serve.completed", loc, 1);
    st.retries_total += p.retries as u64;
    st.records.push(ReqRecord {
        arrival: p.arrival,
        complete: now,
        op: p.op,
        key: p.key,
        version: 0,
        outcome: Outcome::Done,
        faulted,
        retries: p.retries,
    });
}

/// Admit one due request (the caller guarantees no update is outstanding).
#[allow(clippy::too_many_arguments)]
fn dispatch(
    upc: &Upc<'_>,
    shard: &ShardMap,
    lay: Layout,
    st: &mut ThreadState,
    cfg: &ServeConfig,
    req: Request,
    metrics: &MetricsRegistry,
    loc: Loc,
) {
    let me = upc.mythread();
    let now = upc.now();
    // Admission control: queueing delay already accumulated before the
    // frontend could even transmit. Shedding here keeps the served tail
    // bounded when offered load exceeds capacity.
    if let Some(bound) = cfg.shed_after {
        if now.saturating_sub(req.arrival) > bound {
            metrics.count("serve.shed", loc, 1);
            st.records.push(ReqRecord {
                arrival: req.arrival,
                complete: now,
                op: req.op,
                key: req.key,
                version: 0,
                outcome: Outcome::Shed,
                faulted: false,
                retries: 0,
            });
            return;
        }
    }
    let owner = shard.owner_of(req.key);
    match req.op {
        OpKind::Get => {
            let snap = fault_perturbations(upc);
            let mut buf = [0u64; 2];
            let off = lay.store_off + 2 * shard.local_index(req.key);
            let mut retries = 0u32;
            let ok = get_retry(upc, owner, off, &mut buf, &mut retries);
            st.retries_total += retries as u64;
            if cfg.get_compute_ns > 0 {
                upc.compute(time::ns(cfg.get_compute_ns));
            }
            let now = upc.now();
            let faulted = fault_perturbations(upc) != snap;
            let outcome = if ok { Outcome::Done } else { Outcome::Failed };
            if ok {
                let lat = now - req.arrival;
                metrics.observe("serve.latency", loc, lat);
                if faulted {
                    metrics.observe("serve.latency_faulted", loc, lat);
                }
                metrics.count("serve.completed", loc, 1);
            } else {
                metrics.count("serve.failed", loc, 1);
            }
            st.records.push(ReqRecord {
                arrival: req.arrival,
                complete: now,
                op: req.op,
                key: req.key,
                version: buf[0],
                outcome,
                faulted,
                retries,
            });
        }
        OpKind::Put | OpKind::Batch => {
            debug_assert!(st.pending.is_none(), "dispatch past an unacked update");
            let n_keys = if req.op == OpKind::Batch {
                cfg.traffic.batch_len as u64
            } else {
                1
            };
            let seq = st.put_seq + 1;
            let mut msg = Vec::with_capacity(2 + 2 * n_keys as usize);
            msg.push(seq);
            msg.push(n_keys);
            for i in 0..n_keys {
                let key = req.key + i;
                // Deterministic update payload; the oracle checks versions,
                // the epoch snapshot checks these sums.
                let delta = (seq.wrapping_mul(0x9E3779B9) ^ key) % 1000 + 1;
                msg.push(key);
                msg.push(delta);
            }
            let snap = fault_perturbations(upc);
            let mut retries = 0u32;
            let slot = lay.inbox_off + me * lay.slot_words;
            if !put_retry(upc, owner, slot, &msg, &mut retries) {
                metrics.count("serve.failed", loc, 1);
                st.retries_total += retries as u64;
                st.records.push(ReqRecord {
                    arrival: req.arrival,
                    complete: upc.now(),
                    op: req.op,
                    key: req.key,
                    version: 0,
                    outcome: Outcome::Failed,
                    faulted: true,
                    retries,
                });
                return;
            }
            st.put_seq = seq;
            st.pending = Some(Pending {
                seq,
                owner,
                arrival: req.arrival,
                key: req.key,
                op: req.op,
                fault_snap: snap,
                retries,
            });
        }
    }
}

/// Run the service (panics on simulation failure).
pub fn run_serve(cfg: ServeConfig) -> ServeResult {
    run_serve_prepared(cfg, |_| {}).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_serve`] but calls `prepare` on the kernel first (schedule
/// exploration hooks) and returns simulation failures as values — the
/// `hupc-check` seam.
pub fn run_serve_prepared(
    cfg: ServeConfig,
    prepare: impl FnOnce(&mut Kernel),
) -> Result<ServeResult, SimError> {
    let n = cfg.upc.gasnet.n_threads;
    assert!(n > 0 && cfg.epochs > 0);
    let slot_words = 2 + 2 * cfg.traffic.batch_len.max(1);
    // Make sure the symmetric segment can hold store + inbox + acks + flags.
    let mut gas: GasnetConfig = cfg.upc.gasnet.clone();
    let shard_probe =
        ShardMap::flat(n, cfg.partitions_per_thread, cfg.keys_per_partition);
    let need =
        shard_probe.keys_per_thread() * 2 + n * slot_words + 2 * n + 64;
    if gas.segment_words < need {
        gas.segment_words = need.next_power_of_two();
    }
    let job = UpcJob::new(UpcConfig {
        gasnet: gas,
        safety: cfg.upc.safety,
    });
    let shard = Arc::new(ShardMap::from_gasnet(
        job.gasnet(),
        cfg.partitions_per_thread,
        cfg.keys_per_partition,
    ));
    let lay = Layout {
        store_off: job.runtime().alloc_words(shard.keys_per_thread() * 2),
        inbox_off: job.runtime().alloc_words(n * slot_words),
        slot_words,
        ack_off: job.runtime().alloc_words(n),
        flag_off: job.runtime().alloc_words(n),
    };
    // Epoch fan-in goes through the topology-aware collective tree.
    CollDomain::install_auto(&job);
    prepare(&mut job.kernel());

    let metrics = Arc::new(MetricsRegistry::new());
    #[derive(Default)]
    struct PerThread {
        records: Vec<ReqRecord>,
        committed: Vec<(u64, u64)>,
        store_hash: u64,
        end_time: Time,
        epoch_sums: Vec<(u64, u64)>,
        retries: u64,
    }
    let out: Arc<Vec<SimCell<PerThread>>> =
        Arc::new((0..n).map(|_| SimCell::new(PerThread::default())).collect());

    let cfg2 = cfg.clone();
    let shard2 = Arc::clone(&shard);
    let metrics2 = Arc::clone(&metrics);
    let out2 = Arc::clone(&out);
    let stats = job.run_result(move |upc| {
        let me = upc.mythread();
        let loc = Loc::new(upc.gasnet().thread_node(me).0 as u32, me as u32);
        let mut st = ThreadState {
            sched: cfg2.traffic.schedule_for(me, &shard2),
            records: Vec::new(),
            committed: Vec::new(),
            applied: vec![0; upc.threads()],
            pending: None,
            put_seq: 0,
            retries_total: 0,
        };
        let total = st.sched.len();
        let mut epoch_sums = Vec::new();
        upc.barrier();
        for e in 0..cfg2.epochs {
            let lo = total * e / cfg2.epochs;
            let hi = total * (e + 1) / cfg2.epochs;
            let mut next = lo;
            let mut published = false;
            loop {
                drain_inbox(&upc, &shard2, lay, &mut st, &cfg2);
                poll_ack(&upc, lay, &mut st, &metrics2, loc);
                let now = upc.now();
                // Strict FIFO per frontend: nothing dispatches past an
                // unacked update, so records stay in dispatch order and a
                // queued GET's latency honestly includes head-of-line wait.
                if next < hi && st.pending.is_none() {
                    let req = st.sched[next];
                    if req.arrival <= now {
                        dispatch(&upc, &shard2, lay, &mut st, &cfg2, req, &metrics2, loc);
                        next += 1;
                        continue;
                    }
                }
                if next >= hi && st.pending.is_none() {
                    if !published {
                        // Zero outstanding updates: publish epoch-done to
                        // everyone (so seeing `flags[t] ≥ e+1` for all t
                        // really means no update of epoch ≤ e is in flight).
                        let mut r = 0u32;
                        for t in 0..upc.threads() {
                            let _ =
                                put_retry(&upc, t, lay.flag_off + me, &[(e + 1) as u64], &mut r);
                        }
                        st.retries_total += r as u64;
                        published = true;
                    }
                    let seg = upc.gasnet().segment(me);
                    let all = (0..upc.threads())
                        .all(|t| seg.read_word(lay.flag_off + t) >= (e + 1) as u64);
                    if all {
                        break;
                    }
                }
                // Sleep to the next interesting instant: the next arrival
                // if we're idle, else one poll quantum.
                let mut wake = now + cfg2.poll_gap;
                if next < hi && st.pending.is_none() {
                    wake = wake.min(st.sched[next].arrival.max(now + 1));
                }
                upc.ctx().advance(wake - now);
            }
            upc.barrier();
            // Hierarchical fan-in snapshot: committed count + value sum over
            // the whole store (the epoch's "multi-key read").
            let seg = upc.gasnet().segment(me);
            let mut vsum = 0u64;
            for i in 0..shard2.keys_per_thread() {
                vsum = vsum.wrapping_add(seg.read_word(lay.store_off + 2 * i + 1));
            }
            let tot_comm = upc.allreduce_sum_u64(st.committed.len() as u64);
            let tot_sum = upc.allreduce_sum_u64(vsum);
            epoch_sums.push((tot_comm, tot_sum));
        }
        upc.staged_barrier();
        let seg = upc.gasnet().segment(me);
        let mut h = 0xcbf29ce484222325u64;
        for i in 0..shard2.keys_per_thread() * 2 {
            h = fnv(h, seg.read_word(lay.store_off + i));
        }
        let end = upc.now();
        out2[me].with_mut(|o| {
            o.records = std::mem::take(&mut st.records);
            o.committed = std::mem::take(&mut st.committed);
            o.store_hash = h;
            o.end_time = end;
            o.epoch_sums = epoch_sums.clone();
            o.retries = st.retries_total;
        });
    });
    stats?;

    let mut res = ServeResult {
        hist: metrics.histogram_total("serve.latency"),
        hist_faulted: metrics.histogram_total("serve.latency_faulted"),
        ..Default::default()
    };
    let mut h = 0xcbf29ce484222325u64;
    for cell in out.iter() {
        cell.with(|o| {
            res.generated += o.records.len() as u64;
            res.completed += o
                .records
                .iter()
                .filter(|r| r.outcome == Outcome::Done)
                .count() as u64;
            res.shed += o.records.iter().filter(|r| r.outcome == Outcome::Shed).count() as u64;
            res.failed += o
                .records
                .iter()
                .filter(|r| r.outcome == Outcome::Failed)
                .count() as u64;
            res.retries += o.retries;
            res.records.push(o.records.clone());
            res.committed.push(o.committed.clone());
            h = fnv(h, o.store_hash);
            res.end_time = res.end_time.max(o.end_time);
            if res.epoch_sums.is_empty() {
                res.epoch_sums = o.epoch_sums.clone();
            }
        });
    }
    res.end_state = h;
    Ok(res)
}

/// Linearizability-lite oracle over a run's logs.
///
/// Invariants checked (per the serving protocol's contract):
/// 1. Per-key committed versions are dense and monotone: the k-th update an
///    owner applies to a key carries version exactly `k` (owners serialize
///    their shards).
/// 2. No GET observes a version newer than the key's final committed count
///    (reads cannot come from the future).
/// 3. Per (frontend, key), observed GET versions are non-decreasing in
///    dispatch order (monotonic reads: one-sided gets from one frontend to
///    one owner slot serialize).
/// 4. Outcome accounting: every generated request is exactly one of
///    completed / shed / failed, and every completed update was committed.
pub fn verify_linearizable_lite(r: &ServeResult, batch_len: usize) -> Result<(), String> {
    use std::collections::HashMap;
    let mut final_ver: HashMap<u64, u64> = HashMap::new();
    for (owner, log) in r.committed.iter().enumerate() {
        for &(key, ver) in log {
            let v = final_ver.entry(key).or_insert(0);
            if ver != *v + 1 {
                return Err(format!(
                    "owner {owner}: key {key} committed version {ver}, expected {}",
                    *v + 1
                ));
            }
            *v = ver;
        }
    }
    let mut applied_updates = 0u64;
    for (f, recs) in r.records.iter().enumerate() {
        let mut last_read: HashMap<u64, u64> = HashMap::new();
        for rec in recs {
            match (rec.op, rec.outcome) {
                (OpKind::Get, Outcome::Done) => {
                    let fin = final_ver.get(&rec.key).copied().unwrap_or(0);
                    if rec.version > fin {
                        return Err(format!(
                            "frontend {f}: GET key {} saw version {} > final {}",
                            rec.key, rec.version, fin
                        ));
                    }
                    let prev = last_read.entry(rec.key).or_insert(0);
                    if rec.version < *prev {
                        return Err(format!(
                            "frontend {f}: GET key {} went backwards {} -> {}",
                            rec.key, *prev, rec.version
                        ));
                    }
                    *prev = rec.version;
                }
                (OpKind::Put, Outcome::Done) => applied_updates += 1,
                (OpKind::Batch, Outcome::Done) => applied_updates += batch_len as u64,
                _ => {}
            }
        }
    }
    let committed_total: u64 = r.committed.iter().map(|l| l.len() as u64).sum();
    if committed_total != applied_updates {
        return Err(format!(
            "committed log has {committed_total} updates, acked requests imply {applied_updates}"
        ));
    }
    if r.completed + r.shed + r.failed != r.generated {
        return Err(format!(
            "outcome accounting: {} + {} + {} != {}",
            r.completed, r.shed, r.failed, r.generated
        ));
    }
    Ok(())
}
