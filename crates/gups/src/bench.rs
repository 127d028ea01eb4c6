//! The Random Access benchmark proper: table, update streams, routing
//! strategies, verification.

use std::sync::Arc;

use hupc_groups::{GroupLevel, GroupSet};
use hupc_sim::{time, SimCell};
use hupc_topo::MachineSpec;
use hupc_upc::{Conduit, FaultPlan, SharedArray, Upc, UpcConfig, UpcJob};

/// How updates travel to their home partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Fine-grained remote read-modify-write per update (naive, racy).
    Direct,
    /// Bucket per destination thread, bulk one-sided delivery, local apply.
    PerThread,
    /// Bucket per destination *node*; only group leaders receive over the
    /// network and apply through the group's cast tables (thesis-style
    /// thread-group aggregation).
    Hierarchical,
}

impl Routing {
    pub fn name(&self) -> &'static str {
        match self {
            Routing::Direct => "direct RMW",
            Routing::PerThread => "per-thread buckets",
            Routing::Hierarchical => "per-node buckets (groups)",
        }
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct GupsConfig {
    pub machine: MachineSpec,
    pub threads: usize,
    pub nodes_used: usize,
    pub conduit: Conduit,
    pub routing: Routing,
    /// Table words with affinity to each thread.
    pub table_per_thread: usize,
    /// Updates generated by each thread.
    pub updates_per_thread: usize,
    pub seed: u64,
    /// Optional deterministic fault plan applied to the network.
    pub fault: Option<FaultPlan>,
}

impl GupsConfig {
    /// Small configuration for tests.
    pub fn small(threads: usize, nodes: usize, routing: Routing) -> GupsConfig {
        GupsConfig {
            machine: MachineSpec::small_test(nodes),
            threads,
            nodes_used: nodes,
            conduit: Conduit::ib_qdr(),
            routing,
            table_per_thread: 1 << 8,
            updates_per_thread: 300,
            seed: 0xD00D,
            fault: None,
        }
    }

    /// A Pyramid-scale configuration for the ablation harness.
    pub fn pyramid(threads: usize, conduit: Conduit, routing: Routing) -> GupsConfig {
        GupsConfig {
            machine: MachineSpec::pyramid().with_nodes(8),
            threads,
            nodes_used: 8,
            conduit,
            routing,
            table_per_thread: 1 << 14,
            updates_per_thread: 1 << 12,
            seed: 0xD00D,
            fault: None,
        }
    }
}

/// Outcome + verification.
#[derive(Clone, Debug, Default)]
pub struct GupsResult {
    pub seconds: f64,
    /// Bucketing + delivery time (the routed exchange).
    pub exchange_seconds: f64,
    /// Inbox-drain / apply time.
    pub apply_seconds: f64,
    /// Giga-updates per second.
    pub gups: f64,
    pub total_updates: u64,
    /// Table words differing from the serial reference (lost updates; must
    /// be 0 for the conflict-free routings).
    pub errors: u64,
}

/// xorshift64* update stream for one thread.
fn stream(cfg_seed: u64, thread: usize, k: usize) -> (u64, u64) {
    let mut x = cfg_seed ^ ((thread as u64 + 1) << 32) ^ (k as u64 + 1);
    let mut step = || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    };
    (step(), step())
}

fn update_of(cfg: &GupsConfig, thread: usize, k: usize) -> (usize, u64) {
    let total = cfg.table_per_thread * cfg.threads;
    let (a, b) = stream(cfg.seed, thread, k);
    ((a % total as u64) as usize, b | 1)
}

/// Serial reference table (global index → value).
fn reference_table(cfg: &GupsConfig) -> Vec<u64> {
    let mut t = vec![0u64; cfg.table_per_thread * cfg.threads];
    for thread in 0..cfg.threads {
        for k in 0..cfg.updates_per_thread {
            let (idx, val) = update_of(cfg, thread, k);
            t[idx] ^= val;
        }
    }
    t
}

/// Run the benchmark; the returned result includes full verification
/// against the serial reference.
pub fn run_gups(cfg: GupsConfig) -> GupsResult {
    let job = UpcJob::new(UpcConfig::standard(
        cfg.machine.clone(),
        cfg.threads,
        cfg.nodes_used,
        cfg.conduit.clone(),
        1 << 10,
        cfg.fault.clone(),
    ));
    let p = cfg.threads;
    let tpt = cfg.table_per_thread;
    let upd = cfg.updates_per_thread;
    // Table: blocked distribution, tpt words per thread.
    let table = job.alloc_shared::<u64>(tpt * p, tpt);
    // Inboxes: one slot per source, each [count, (idx,val)×upd].
    let slot_words = 1 + 2 * upd;
    let inbox = job.alloc_shared::<u64>(slot_words * p * p, slot_words * p);
    let groups = Arc::new(GroupSet::partition(
        &mut job.kernel(),
        job.runtime(),
        GroupLevel::Node,
    ));
    // Verification reductions use the staged (hierarchical) allreduce.
    hupc_coll::CollDomain::install_auto(&job);

    let out: Arc<SimCell<GupsResult>> = Arc::new(SimCell::default());
    let out2 = Arc::clone(&out);
    let cfg = Arc::new(cfg);
    let cfg2 = Arc::clone(&cfg);

    job.run(move |upc| {
        let me = upc.mythread();
        // Zero the table and inbox counts (untimed init).
        table.with_local_words(&upc, |w| w.fill(0));
        inbox.with_local_words(&upc, |w| {
            for s in 0..p {
                w[s * slot_words] = 0;
            }
        });
        upc.barrier();
        let t0 = upc.now();
        upc.ctx().trace_emit(
            hupc_trace::EventKind::SpanBegin,
            hupc_trace::span::GUPS_EXCHANGE,
            upd as u64,
        );
        let mid = match cfg2.routing {
            Routing::Direct => {
                direct(&upc, &cfg2, &table, me);
                upc.now()
            }
            Routing::PerThread => per_thread(&upc, &cfg2, &table, &inbox, slot_words, me),
            Routing::Hierarchical => {
                hierarchical(&upc, &cfg2, &table, &inbox, slot_words, &groups, me)
            }
        };
        if upc.ctx().tracing() {
            upc.ctx().trace_emit(
                hupc_trace::EventKind::SpanEnd,
                hupc_trace::span::GUPS_EXCHANGE,
                mid - t0,
            );
            upc.ctx()
                .trace_emit(hupc_trace::EventKind::SpanBegin, hupc_trace::span::GUPS_APPLY, 0);
            upc.trace_count("gups.updates", upd as u64);
        }
        upc.barrier();
        let dt = upc.now() - t0;
        upc.ctx().trace_emit(
            hupc_trace::EventKind::SpanEnd,
            hupc_trace::span::GUPS_APPLY,
            dt.saturating_sub(mid - t0),
        );
        let exchange = upc.allreduce_max_u64(mid - t0);
        let apply = dt.saturating_sub(exchange);

        // Untimed verification against the serial reference.
        let reference = reference_table(&cfg2);
        let mut errors = 0u64;
        table.with_local_words(&upc, |w| {
            for (i, v) in w.iter().enumerate().take(tpt) {
                if *v != reference[me * tpt + i] {
                    errors += 1;
                }
            }
        });
        let errors = upc.allreduce_sum_u64(errors);
        if me == 0 {
            let secs = time::as_secs_f64(dt);
            let total = (upd * p) as u64;
            out2.with_mut(|r| {
                *r = GupsResult {
                    seconds: secs,
                    exchange_seconds: time::as_secs_f64(exchange),
                    apply_seconds: time::as_secs_f64(apply),
                    gups: total as f64 / secs / 1e9,
                    total_updates: total,
                    errors,
                }
            });
        }
    });
    Arc::try_unwrap(out).expect("result still shared").into_inner()
}

/// Naive fine-grained remote read-modify-write.
fn direct(upc: &Upc<'_>, cfg: &GupsConfig, table: &SharedArray<u64>, me: usize) {
    for k in 0..cfg.updates_per_thread {
        let (idx, val) = update_of(cfg, me, k);
        let v = table.get(upc, idx);
        table.put(upc, idx, v ^ val);
    }
}

/// Bucket by owner thread; one bulk put per destination; owners apply.
fn per_thread(
    upc: &Upc<'_>,
    cfg: &GupsConfig,
    table: &SharedArray<u64>,
    inbox: &SharedArray<u64>,
    slot_words: usize,
    me: usize,
) -> hupc_sim::Time {
    let p = cfg.threads;
    let tpt = cfg.table_per_thread;
    // Bucketing is local compute: ~8 ns per update.
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); p];
    for k in 0..cfg.updates_per_thread {
        let (idx, val) = update_of(cfg, me, k);
        let owner = idx / tpt;
        buckets[owner].push((idx % tpt) as u64);
        buckets[owner].push(val);
    }
    upc.compute(time::ns(8 * cfg.updates_per_thread as u64));
    // Deliver: my slot (index `me`) in every destination's inbox, writing
    // header + bucket straight into the destination segment (no payload Vec).
    let mut handles = Vec::new();
    for step in 0..p {
        let dest = (me + step) % p;
        let b = &buckets[dest];
        let off = inbox.word_offset() + me * slot_words;
        let ((), h) = upc.memput_nb_with(dest, off, 1 + b.len(), |w| {
            w[0] = (b.len() / 2) as u64;
            w[1..].copy_from_slice(b);
        });
        handles.push(h);
    }
    for h in handles {
        upc.wait_sync(h);
    }
    upc.barrier();
    let mid = upc.now();
    apply_inbox(upc, cfg, table, inbox, slot_words, me, 0..p);
    mid
}

/// Bucket by destination node; only one network message per remote node;
/// the receiving node's members are reached through the group cast table.
#[allow(clippy::too_many_arguments)]
fn hierarchical(
    upc: &Upc<'_>,
    cfg: &GupsConfig,
    table: &SharedArray<u64>,
    inbox: &SharedArray<u64>,
    slot_words: usize,
    groups: &GroupSet,
    me: usize,
) -> hupc_sim::Time {
    let tpt = cfg.table_per_thread;
    let my_group = groups.group_of(me);
    let n_groups = groups.len();
    // Bucket updates per destination node (global idx + val pairs).
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n_groups];
    for k in 0..cfg.updates_per_thread {
        let (idx, val) = update_of(cfg, me, k);
        let gi = groups.group_index_of(idx / tpt);
        buckets[gi].push(idx as u64);
        buckets[gi].push(val);
    }
    upc.compute(time::ns(8 * cfg.updates_per_thread as u64));
    // One message per destination group, addressed to its leader's inbox
    // (slot = my thread id). Destinations are staggered per sender so the
    // receiving NICs drain in parallel (no incast convoy). Local-group
    // updates go through the same protocol into my own leader's inbox.
    let mut handles = Vec::new();
    for step in 0..n_groups {
        let gi = (groups.group_index_of(me) + step + me) % n_groups;
        let b = &buckets[gi];
        let leader = groups.groups()[gi].leader();
        let off = inbox.word_offset() + me * slot_words;
        let ((), h) = upc.memput_nb_with(leader, off, 1 + b.len(), |w| {
            w[0] = (b.len() / 2) as u64;
            w[1..].copy_from_slice(b);
        });
        handles.push(h);
    }
    for h in handles {
        upc.wait_sync(h);
    }
    upc.barrier();
    let mid = upc.now();
    // Leaders apply everything destined for their node, writing members'
    // table words through the pre-cast pointer tables (zero software cost;
    // memory traffic charged below).
    if my_group.leader() == me {
        let p = cfg.threads;
        let mut applied = 0u64;
        for src in 0..p {
            let slot_off = inbox.word_offset() + src * slot_words;
            let count = upc.gasnet().segment(me).read_word(slot_off) as usize;
            // Drain through the reusable scratch (uncharged reads, as before).
            upc.with_scratch(count * 2, |pairs| {
                upc.gasnet().segment(me).read(slot_off + 1, pairs);
                for q in pairs.chunks_exact(2) {
                    let idx = q[0] as usize;
                    let owner = idx / tpt;
                    let local = idx % tpt;
                    debug_assert!(my_group.rank_of(owner).is_some());
                    table.with_cast_words(upc, owner, |w| w[local] ^= q[1]);
                    applied += 1;
                }
            });
        }
        // Apply cost: read pair + RMW a table word ≈ 24 B of traffic.
        upc.note_socket_traffic(upc.segment_home(me), applied * 24);
        upc.note_translation(applied / 8); // amortized table addressing
    }
    mid
}

/// Owners drain their inbox slots from `sources` and apply locally.
fn apply_inbox(
    upc: &Upc<'_>,
    cfg: &GupsConfig,
    table: &SharedArray<u64>,
    inbox: &SharedArray<u64>,
    slot_words: usize,
    me: usize,
    sources: std::ops::Range<usize>,
) {
    let tpt = cfg.table_per_thread;
    let mut applied = 0u64;
    for src in sources {
        let slot_off = inbox.word_offset() + src * slot_words;
        let count = upc.gasnet().segment(me).read_word(slot_off) as usize;
        // Drain through the reusable scratch (uncharged reads, as before).
        upc.with_scratch(count * 2, |pairs| {
            upc.gasnet().segment(me).read(slot_off + 1, pairs);
            table.with_local_words(upc, |w| {
                for q in pairs.chunks_exact(2) {
                    w[q[0] as usize % tpt] ^= q[1];
                    applied += 1;
                }
            });
        });
    }
    upc.note_socket_traffic(upc.segment_home(me), applied * 24);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_routings_match_reference_exactly() {
        for routing in [Routing::PerThread, Routing::Hierarchical] {
            let r = run_gups(GupsConfig::small(4, 2, routing));
            assert_eq!(r.errors, 0, "{routing:?}");
            assert_eq!(r.total_updates, 1200);
            assert!(r.gups > 0.0);
        }
    }

    #[test]
    fn direct_routing_error_rate_is_tiny() {
        let r = run_gups(GupsConfig::small(4, 2, Routing::Direct));
        // HPCC allows 1% lost updates; the serialized engine usually loses 0.
        assert!(
            (r.errors as f64) < 0.01 * r.total_updates as f64,
            "errors {} of {}",
            r.errors,
            r.total_updates
        );
    }

    #[test]
    fn aggregation_beats_direct_on_slow_networks() {
        let mut direct = GupsConfig::small(4, 2, Routing::Direct);
        direct.conduit = Conduit::gige();
        let mut agg = GupsConfig::small(4, 2, Routing::PerThread);
        agg.conduit = Conduit::gige();
        let d = run_gups(direct);
        let a = run_gups(agg);
        assert!(
            a.seconds < d.seconds / 5.0,
            "aggregated {} vs direct {}",
            a.seconds,
            d.seconds
        );
    }

    #[test]
    fn hierarchical_sends_fewer_network_messages() {
        // Per-node routing pays off when per-message costs dominate: many
        // threads, many nodes, small per-destination buckets on a
        // high-overhead network. (In bandwidth-bound regimes the two
        // bucketed routings converge — aggregation is an overhead
        // optimization, exactly as in the thesis.)
        let mk = |routing| {
            let mut c = GupsConfig::small(16, 4, routing);
            c.conduit = Conduit::gige();
            c.updates_per_thread = 64;
            c
        };
        let per_thread = run_gups(mk(Routing::PerThread));
        let hier = run_gups(mk(Routing::Hierarchical));
        assert_eq!(hier.errors, 0);
        assert!(
            hier.seconds < per_thread.seconds,
            "hierarchical {} vs per-thread {}",
            hier.seconds,
            per_thread.seconds
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_gups(GupsConfig::small(4, 2, Routing::Hierarchical));
        let b = run_gups(GupsConfig::small(4, 2, Routing::Hierarchical));
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.errors, b.errors);
    }
}
