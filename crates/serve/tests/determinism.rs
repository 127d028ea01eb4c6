//! Serving-path determinism and safety pins.
//!
//! Open-loop serving is only a measurement instrument if it is repeatable:
//! the same seed must reproduce the same arrival schedule byte-for-byte,
//! the same request log, the same end state, and the same latency
//! histogram — fault-free and under fault plans.

use hupc_fault::FaultPlan;
use hupc_serve::{
    encode_schedule, run_serve, verify_linearizable_lite, Outcome, ServeConfig, ShardMap,
};
use hupc_sim::time;

#[test]
fn schedules_are_byte_identical_across_generations() {
    let cfg = ServeConfig::small(1234);
    let shard = ShardMap::flat(8, cfg.partitions_per_thread, cfg.keys_per_partition);
    for f in 0..8 {
        let a = encode_schedule(&cfg.traffic.schedule_for(f, &shard));
        let b = encode_schedule(&cfg.traffic.schedule_for(f, &shard));
        assert_eq!(a, b, "frontend {f} schedule not reproducible");
    }
}

#[test]
fn pgas_serve_completes_and_satisfies_the_oracle() {
    let cfg = ServeConfig::small(42);
    let r = run_serve(cfg.clone());
    assert_eq!(r.generated, 8 * 60);
    assert_eq!(r.completed, r.generated, "fault-free run must complete all");
    assert_eq!(r.shed + r.failed, 0);
    assert_eq!(r.hist.count, r.completed);
    assert_eq!(r.epoch_sums.len(), cfg.epochs);
    // Epoch snapshots are cumulative: committed counts never decrease.
    for w in r.epoch_sums.windows(2) {
        assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
    }
    // The final snapshot equals the committed logs it aggregated.
    let committed_total: u64 = r.committed.iter().map(|l| l.len() as u64).sum();
    assert_eq!(r.epoch_sums.last().unwrap().0, committed_total);
    verify_linearizable_lite(&r, cfg.traffic.batch_len).unwrap();
    // Some GETs must actually observe updated versions for the monotone
    // check to be exercising anything.
    let observed: u64 = r
        .records
        .iter()
        .flatten()
        .filter(|rec| rec.op == hupc_serve::OpKind::Get && rec.version > 0)
        .count() as u64;
    assert!(observed > 0, "no GET ever saw a committed version");
}

#[test]
fn pgas_serve_is_deterministic_and_seed_sensitive() {
    let a = run_serve(ServeConfig::small(7));
    let b = run_serve(ServeConfig::small(7));
    assert_eq!(a.end_state, b.end_state);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.records, b.records);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.hist, b.hist);
    assert_eq!(a.epoch_sums, b.epoch_sums);
    let c = run_serve(ServeConfig::small(8));
    assert_ne!(a.end_state, c.end_state, "seed must actually steer the run");
}

#[test]
fn pgas_serve_under_loss_and_straggler_stays_linearizable() {
    let mut cfg = ServeConfig::small(21);
    cfg.epochs = 1;
    cfg.upc.gasnet.fault = Some(FaultPlan::new(0xFEED).loss(0.10).straggler(1, 3.0));
    let r = run_serve(cfg.clone());
    assert_eq!(r.generated, 8 * 60);
    assert!(r.completed > 0);
    assert_eq!(r.failed, 0, "retry budget must absorb 10% loss");
    verify_linearizable_lite(&r, cfg.traffic.batch_len).unwrap();
    // Loss/jitter retransmissions mark at least one request as
    // fault-affected, and the tagged subset is slower at the median.
    assert!(r.hist_faulted.count > 0, "no request tagged fault-affected");
    assert!(r.hist_faulted.p50() >= r.hist.p50());
    // Determinism holds under the fault plan too.
    let r2 = run_serve(cfg);
    assert_eq!(r.end_state, r2.end_state);
    assert_eq!(r.records, r2.records);
    assert_eq!(r.hist, r2.hist);
}

#[test]
fn pgas_shedding_bounds_queueing_delay() {
    let mut cfg = ServeConfig::small(33);
    // Saturate: arrivals far faster than the service path.
    cfg.traffic.process = hupc_serve::ArrivalProcess::Poisson {
        mean_gap: time::ns(300),
    };
    cfg.traffic.mix = hupc_serve::OpMix {
        get_pct: 0,
        put_pct: 100,
        batch_pct: 0,
    };
    cfg.apply_ns = 20_000;
    cfg.epochs = 1;
    let unbounded = run_serve(cfg.clone());
    assert_eq!(unbounded.shed, 0);
    cfg.shed_after = Some(time::us(100));
    let shedding = run_serve(cfg.clone());
    assert!(shedding.shed > 0, "saturation must trigger the shed knob");
    assert!(
        shedding.hist.p999() < unbounded.hist.p999(),
        "shed {} vs unbounded {}",
        shedding.hist.p999(),
        unbounded.hist.p999()
    );
    verify_linearizable_lite(&shedding, cfg.traffic.batch_len).unwrap();
}

#[test]
fn bursty_arrivals_fatten_the_tail_at_equal_mean_load() {
    // Same mean gap (10µs/request per frontend): Poisson vs ON/OFF bursts of
    // 10, with an apply cost high enough that burst coincidence actually
    // queues at the owners.
    let mut poisson = ServeConfig::small(55);
    poisson.traffic.process = hupc_serve::ArrivalProcess::Poisson {
        mean_gap: time::us(10),
    };
    poisson.traffic.requests_per_frontend = 200;
    poisson.apply_ns = 1_000;
    poisson.epochs = 1;
    let mut bursty = poisson.clone();
    bursty.traffic.process = hupc_serve::ArrivalProcess::OnOff {
        on_gap: time::us(1),
        off_gap: time::us(91),
        burst_len: 10,
    };
    let p = run_serve(poisson);
    let b = run_serve(bursty);
    assert!(
        b.hist.p999() > p.hist.p999(),
        "bursty p999 {} must exceed poisson p999 {}",
        b.hist.p999(),
        p.hist.p999()
    );
    assert!(b.hist.p50() > p.hist.p50(), "bursts queue even the median");
}

#[test]
fn records_and_outcomes_are_consistent() {
    let r = run_serve(ServeConfig::small(64));
    for (f, recs) in r.records.iter().enumerate() {
        // Dispatch order ⇒ non-decreasing completion per frontend is NOT
        // guaranteed (GETs overtake queued PUT acks is impossible here
        // because dispatch is FIFO), but arrivals must be non-decreasing
        // and completions never precede arrivals.
        for w in recs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "frontend {f} arrivals out of order");
        }
        for rec in recs {
            assert!(rec.complete >= rec.arrival);
            if rec.outcome == Outcome::Done {
                assert!(rec.retries <= 1000);
            }
        }
    }
}
