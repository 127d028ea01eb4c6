//! Actor stacks stay off the global allocator, so a finished simulation
//! leaves the process heap as it found it.
//!
//! An 8 MiB stack (the default) is above glibc's initial mmap threshold:
//! allocated with malloc, it would be mapped alone, and freeing it would
//! raise the dynamic threshold to about 8 MiB and the trim threshold to
//! about 16 MiB. A later 6 MiB buffer would then come from the heap and stay
//! resident after it is freed. Stacks are slots of the simulation's own
//! slabs instead, so the buffer is mapped and unmapped on its own.
//!
//! One test in its own binary, outside `hupc-sim` and `hupc-check`, whose
//! tests also run under AddressSanitizer's allocator. No other test
//! allocates in the process while the resident set is read. The resident set
//! is summed from `/proc/self/smaps_rollup`, which walks the page tables,
//! rather than read from `VmRSS`, whose per-CPU counters may lag.

#![cfg(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use hupc::sim::{time, Simulation};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

fn resident_kib() -> usize {
    let s = std::fs::read_to_string("/proc/self/smaps_rollup").expect("read smaps_rollup");
    s.lines()
        .find_map(|l| l.strip_prefix("Rss:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("an Rss line in smaps_rollup")
}

#[test]
fn a_buffer_freed_after_a_simulation_returns_its_pages() {
    let mut sim = Simulation::new();
    let bar = sim.kernel().new_barrier(4);
    for i in 0..4u64 {
        sim.spawn(format!("a{i}"), move |ctx| {
            ctx.advance(time::ns(i + 1));
            ctx.barrier_wait(bar);
        });
    }
    assert_eq!(sim.run().actors, 4);
    drop(sim);

    let before = resident_kib();
    let mut buf = vec![0u8; 6 * MIB];
    for (i, b) in buf.iter_mut().enumerate().step_by(4 * KIB) {
        *b = i as u8 | 1;
    }
    std::hint::black_box(&buf);
    let touched = resident_kib();
    drop(buf);
    let after = resident_kib();
    assert!(
        touched >= before + 5 * KIB,
        "touching a 6 MiB buffer made only {} KiB resident",
        touched.saturating_sub(before)
    );
    assert!(
        after <= before + KIB,
        "a freed 6 MiB buffer left {} KiB resident: a finished simulation \
         raised the allocator's mmap threshold",
        after.saturating_sub(before)
    );
}
