//! The NUMA memory system: one FIFO memory-controller resource per socket.
//!
//! Traffic is charged against the *home* socket of the data (first-touch
//! placement decides homes, in the UPC layer) in fixed-size chunks, so
//! concurrent streams through one controller share its bandwidth fairly —
//! the mechanism behind STREAM's socket-placement results (thesis
//! Tables 3.1 / 4.1). Accesses from a PU on a different socket pay the
//! ccNUMA remote factor (the thesis quotes 15–40% slower; we model ~28%).

use hupc_sim::{time, Ctx, Kernel, ResourceId, Time};
use hupc_topo::{Machine, PuId, SocketId};

/// Default fair-sharing granularity for long streams.
const DEFAULT_CHUNK: usize = 4 << 20;

/// Per-socket memory-controller model.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    socket_res: Vec<ResourceId>,
    bw_per_socket: f64,
    numa_remote_factor: f64,
}

impl MemoryModel {
    pub fn build(kernel: &mut Kernel, machine: &Machine) -> Self {
        let spec = machine.spec();
        let sockets = spec.nodes * spec.sockets_per_node;
        let socket_res = (0..sockets)
            .map(|s| kernel.new_resource(format!("mem[{s}]")))
            .collect();
        MemoryModel {
            socket_res,
            bw_per_socket: spec.mem_bw_per_socket,
            numa_remote_factor: spec.numa_remote_factor,
        }
    }

    /// Sustained bandwidth of one controller, bytes/s.
    pub fn bandwidth_per_socket(&self) -> f64 {
        self.bw_per_socket
    }

    /// Cost factor for a PU touching memory homed on `home`.
    pub fn numa_factor(&self, machine: &Machine, pu: PuId, home: SocketId) -> f64 {
        if machine.pu_socket(pu) == home {
            1.0
        } else {
            self.numa_remote_factor
        }
    }

    fn service(&self, bytes: usize, factor: f64) -> Time {
        time::from_secs_f64(bytes as f64 * factor / self.bw_per_socket)
    }

    /// Non-blocking: queue `bytes` of traffic on `home`'s controller
    /// starting no earlier than `earliest`; returns the drain time.
    pub fn traffic_after(
        &self,
        kernel: &mut Kernel,
        machine: &Machine,
        pu: PuId,
        home: SocketId,
        bytes: usize,
        earliest: Time,
    ) -> Time {
        let factor = self.numa_factor(machine, pu, home);
        kernel.acquire_after(self.socket_res[home.0], earliest, self.service(bytes, factor))
    }

    /// Blocking: stream `bytes` through `home`'s controller from `pu`,
    /// chunked for fair sharing with concurrent streams.
    pub fn stream(&self, ctx: &Ctx, machine: &Machine, pu: PuId, home: SocketId, bytes: usize) {
        let factor = self.numa_factor(machine, pu, home);
        let mut left = bytes;
        while left > 0 {
            let b = left.min(DEFAULT_CHUNK);
            left -= b;
            ctx.acquire(self.socket_res[home.0], self.service(b, factor));
        }
    }

    /// Blocking memcpy-style charge: read `bytes` homed on `src`, write
    /// `bytes` homed on `dst`, from `pu`, chunk-interleaved.
    pub fn copy(
        &self,
        ctx: &Ctx,
        machine: &Machine,
        pu: PuId,
        src: SocketId,
        dst: SocketId,
        bytes: usize,
    ) {
        let fr = self.numa_factor(machine, pu, src);
        let fw = self.numa_factor(machine, pu, dst);
        let mut left = bytes;
        while left > 0 {
            let b = left.min(DEFAULT_CHUNK);
            left -= b;
            ctx.acquire(self.socket_res[src.0], self.service(b, fr));
            ctx.acquire(self.socket_res[dst.0], self.service(b, fw));
        }
    }

    /// Non-blocking memcpy completion time (async intra-node transfers).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_after(
        &self,
        kernel: &mut Kernel,
        machine: &Machine,
        pu: PuId,
        src: SocketId,
        dst: SocketId,
        bytes: usize,
        earliest: Time,
    ) -> Time {
        let t = self.traffic_after(kernel, machine, pu, src, bytes, earliest);
        self.traffic_after(kernel, machine, pu, dst, bytes, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hupc_sim::Simulation;
    use hupc_topo::MachineSpec;
    use std::sync::{Arc, Mutex};

    fn setup() -> (Arc<Machine>, Simulation, Arc<MemoryModel>) {
        let machine = Arc::new(Machine::new(MachineSpec::lehman()));
        let sim = Simulation::new();
        let mem = Arc::new(MemoryModel::build(&mut sim.kernel(), &machine));
        (machine, sim, mem)
    }

    #[test]
    fn local_stream_runs_at_socket_bandwidth() {
        let (machine, mut sim, mem) = setup();
        let bytes = 123 << 20;
        let (m2, mm) = (Arc::clone(&machine), Arc::clone(&mem));
        sim.spawn("t", move |ctx| {
            mm.stream(ctx, &m2, PuId(0), SocketId(0), bytes);
            let secs = time::as_secs_f64(ctx.now());
            let ideal = bytes as f64 / mm.bandwidth_per_socket();
            assert!((secs - ideal).abs() / ideal < 1e-6);
        });
        sim.run();
    }

    #[test]
    fn remote_stream_pays_numa_factor() {
        let (machine, mut sim, mem) = setup();
        let bytes = 64 << 20;
        let (m2, mm) = (Arc::clone(&machine), Arc::clone(&mem));
        sim.spawn("t", move |ctx| {
            // PU 0 is socket 0; home socket 1 → remote
            mm.stream(ctx, &m2, PuId(0), SocketId(1), bytes);
            let secs = time::as_secs_f64(ctx.now());
            let ideal = bytes as f64 * 1.28 / mm.bandwidth_per_socket();
            assert!((secs - ideal).abs() / ideal < 1e-6, "{secs} vs {ideal}");
        });
        sim.run();
    }

    #[test]
    fn two_streams_share_one_controller() {
        let (machine, mut sim, mem) = setup();
        let bytes = 64 << 20;
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2usize {
            let (m2, mm, e2) = (Arc::clone(&machine), Arc::clone(&mem), Arc::clone(&ends));
            sim.spawn(format!("t{i}"), move |ctx| {
                // PUs 0 and 2: two cores of socket 0, same home socket.
                mm.stream(ctx, &m2, PuId(i * 2), SocketId(0), bytes);
                e2.lock().unwrap().push(ctx.now());
            });
        }
        sim.run();
        let ends = ends.lock().unwrap();
        let ideal = time::from_secs_f64(2.0 * bytes as f64 / mem.bandwidth_per_socket());
        let max = *ends.iter().max().unwrap();
        assert!((max as f64 - ideal as f64).abs() / (ideal as f64) < 0.01);
        // Chunked fair sharing: both finish within one chunk of each other.
        let min = *ends.iter().min().unwrap();
        assert!(max - min <= time::from_secs_f64((4 << 20) as f64 / mem.bandwidth_per_socket()) + 1);
    }

    #[test]
    fn streams_on_distinct_sockets_do_not_interfere() {
        let (machine, mut sim, mem) = setup();
        let bytes = 64 << 20;
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2usize {
            let (m2, mm, e2) = (Arc::clone(&machine), Arc::clone(&mem), Arc::clone(&ends));
            sim.spawn(format!("t{i}"), move |ctx| {
                let pu = PuId(i * 8); // sockets 0 and 1
                mm.stream(ctx, &m2, pu, SocketId(i), bytes);
                e2.lock().unwrap().push(ctx.now());
            });
        }
        sim.run();
        let ends = ends.lock().unwrap();
        let ideal = time::from_secs_f64(bytes as f64 / mem.bandwidth_per_socket());
        for &e in ends.iter() {
            assert!((e as f64 - ideal as f64).abs() / (ideal as f64) < 1e-6);
        }
    }

    #[test]
    fn copy_charges_both_controllers() {
        let (machine, mut sim, mem) = setup();
        let bytes = 32 << 20;
        let (m2, mm) = (Arc::clone(&machine), Arc::clone(&mem));
        sim.spawn("t", move |ctx| {
            mm.copy(ctx, &m2, PuId(0), SocketId(0), SocketId(1), bytes);
            let secs = time::as_secs_f64(ctx.now());
            // read local (1.0) + write remote (1.28), serialized chunks
            let ideal = bytes as f64 * (1.0 + 1.28) / mm.bandwidth_per_socket();
            assert!((secs - ideal).abs() / ideal < 1e-6);
        });
        sim.run();
    }

    #[test]
    fn copy_after_is_consistent_with_copy() {
        let (machine, mut sim, mem) = setup();
        let bytes = 8 << 20;
        let (m2, mm) = (Arc::clone(&machine), Arc::clone(&mem));
        sim.spawn("t", move |ctx| {
            let t = ctx.with_kernel(|k| {
                mm.copy_after(k, &m2, PuId(0), SocketId(0), SocketId(0), bytes, 0)
            });
            let ideal = time::from_secs_f64(2.0 * bytes as f64 / mm.bandwidth_per_socket());
            assert!(t.abs_diff(ideal) <= 2, "{t} vs {ideal}"); // per-leg rounding
        });
        sim.run();
    }
}
