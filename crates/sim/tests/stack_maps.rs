//! A simulation unmaps its stack slabs when it drops, after tearing down
//! its actors, whether they finished or were left suspended.
//!
//! One test in its own binary, so no other test maps or unmaps memory while
//! `/proc/self/maps` is counted. The line count alone cannot show a leak:
//! adjacent slabs with the same flags merge into one line, so the test also
//! reads the address space the process holds.

#![cfg(all(
    not(miri),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hupc_sim::{time, SimError, Simulation};

const MIB: usize = 1 << 20;

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Address space the process holds (`VmSize`), bytes.
fn vm_size() -> usize {
    let s = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: usize = s
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmSize line in /proc/self/status");
    kb * 1024
}

/// A run of 48 actors over three stack sizes, sixteen of them 8 MiB, all
/// live at once. With `stuck`, one more actor waits on a barrier nobody
/// else reaches, so the run ends in a deadlock and dropping the simulation
/// tears that actor down from its suspended state. Returns the address
/// space held while every stack was live.
fn run(stuck: bool) -> usize {
    let live_vm = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    let n = 48;
    let bar = sim.kernel().new_barrier(n);
    let never = sim.kernel().new_barrier(2);
    let arrived = Arc::new(AtomicUsize::new(0));
    for i in 0..n {
        let (arrived, live_vm) = (Arc::clone(&arrived), Arc::clone(&live_vm));
        let stack = [16 << 10, 64 << 10, 8 << 20][i % 3];
        sim.spawn_with_stack(format!("a{i}"), stack, move |ctx| {
            ctx.advance(time::ns(i as u64 + 1));
            if arrived.fetch_add(1, Ordering::Relaxed) + 1 == n {
                live_vm.store(vm_size(), Ordering::Relaxed);
            }
            ctx.barrier_wait(bar);
        });
    }
    if stuck {
        sim.spawn("stuck", move |ctx| ctx.barrier_wait(never));
    }
    match sim.run_result() {
        Ok(stats) => assert!(!stuck && stats.actors == n),
        Err(SimError::Deadlock { .. }) => assert!(stuck),
        Err(e) => panic!("{e}"),
    }
    drop(sim);
    live_vm.load(Ordering::Relaxed)
}

#[test]
fn dropping_a_simulation_unmaps_its_stack_slabs() {
    // The first pass over both kinds of run only warms up: whatever the
    // allocator maps for a run, or for reading `/proc`, stays mapped.
    for (warm_up, stuck) in [(true, false), (true, true), (false, false), (false, true)] {
        let (lines, vm) = (maps_lines(), vm_size());
        let live = run(stuck);
        let (lines_after, vm_after) = (maps_lines(), vm_size());
        if warm_up {
            continue;
        }
        assert!(
            live >= vm + 16 * 8 * MIB,
            "sixteen live 8 MiB stacks added only {} MiB of address space",
            live.saturating_sub(vm) / MIB
        );
        assert_eq!(
            lines_after, lines,
            "dropping the simulation (stuck: {stuck}) left mappings behind"
        );
        assert!(
            vm_after < vm + 8 * MIB,
            "dropping the simulation (stuck: {stuck}) left {} MiB mapped",
            vm_after.saturating_sub(vm) / MIB
        );
    }
}
