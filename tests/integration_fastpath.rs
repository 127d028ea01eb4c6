//! The scheduler-bypass fast path, the near bucket and the lazy clock are
//! host-speed machinery: none of them may leak into observable virtual time.
//! The kernel unit tests pin the bypass's accounting event by event; this
//! pins an end time against its closed form.

use hupc::sim::{time, Simulation};

/// A simple two-actor producer/consumer program's end time is a
/// closed-form value: the slower actor's 100 lazy 2 µs charges, after which
/// the barrier releases both.
#[test]
fn closed_form_end_time() {
    let mut sim = Simulation::new();
    let bar = sim.kernel().new_barrier(2);
    for id in 0..2u64 {
        sim.spawn(format!("w{id}"), move |ctx| {
            for _ in 0..100 {
                ctx.advance_lazy(time::us(1) * (id + 1));
            }
            ctx.barrier_wait(bar);
        });
    }
    let stats = sim.run();
    assert_eq!(stats.end_time, time::us(200));
}
