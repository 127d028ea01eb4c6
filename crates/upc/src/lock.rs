//! `upc_lock_t`: global locks with affinity, used by the UTS steal-stacks.
//!
//! Acquiring a lock whose home is remote costs a network round trip (the
//! lock state lives in the home thread's partition); local acquisition is a
//! few hundred nanoseconds of software. Fairness is FIFO.

use hupc_sim::{time, Kernel, MutexId, Time};

use crate::runtime::{Upc, UpcRuntime};

/// Software cost of an uncontended local lock operation.
const LOCAL_LOCK_COST: Time = time::ns(150);

/// A UPC lock. `Copy` handle; state lives in the simulation kernel.
#[derive(Clone, Copy, Debug)]
pub struct UpcLock {
    mutex: MutexId,
    home: usize,
}

impl UpcLock {
    pub(crate) fn allocate(kernel: &mut Kernel, _rt: &UpcRuntime, home: usize) -> Self {
        UpcLock {
            mutex: kernel.new_mutex(),
            home,
        }
    }

    /// Thread the lock has affinity to.
    pub fn home(&self) -> usize {
        self.home
    }

    /// The per-operation messaging cost for `me`: free-ish locally, a round
    /// trip remotely.
    fn op_cost(&self, upc: &Upc<'_>) -> Time {
        let me = upc.mythread();
        if upc.gasnet().castable(me, self.home) {
            LOCAL_LOCK_COST
        } else {
            let c = upc.gasnet().fabric().conduit();
            // CAS-style remote atomic: request + response.
            2 * (c.wire_latency + c.send_overhead) + c.conn_gap
        }
    }

    /// Whether the lock's home partition is memory-reachable from `me`.
    fn is_local_for(&self, upc: &Upc<'_>) -> bool {
        upc.gasnet().castable(upc.mythread(), self.home)
    }

    /// `upc_lock`.
    pub fn lock(&self, upc: &Upc<'_>) {
        upc.ctx().advance(self.op_cost(upc));
        upc.ctx().mutex_lock(self.mutex);
        if upc.ctx().tracing() {
            upc.ctx().trace_emit(
                hupc_trace::EventKind::LockAcquire,
                self.home as u64,
                self.is_local_for(upc) as u64,
            );
            upc.trace_count("upc.locks", 1);
        }
    }

    /// `upc_lock_attempt`: try without blocking. Costs a message either way.
    pub fn try_lock(&self, upc: &Upc<'_>) -> bool {
        upc.ctx().advance(self.op_cost(upc));
        let got = upc.ctx().mutex_try_lock(self.mutex);
        if got && upc.ctx().tracing() {
            upc.ctx().trace_emit(
                hupc_trace::EventKind::LockAcquire,
                self.home as u64,
                self.is_local_for(upc) as u64,
            );
            upc.trace_count("upc.locks", 1);
        }
        got
    }

    /// `upc_unlock`.
    pub fn unlock(&self, upc: &Upc<'_>) {
        upc.ctx().advance(self.op_cost(upc));
        upc.ctx().mutex_unlock(self.mutex);
        upc.ctx()
            .trace_emit(hupc_trace::EventKind::LockRelease, self.home as u64, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{UpcConfig, UpcJob};
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_across_threads() {
        let job = UpcJob::new(UpcConfig::test_default(4, 2));
        let lock = job.alloc_lock();
        let rt = Arc::clone(job.runtime());
        let off = rt.alloc_words(1);
        job.run(move |upc| {
            let me = upc.mythread();
            for _ in 0..8 {
                lock.lock(&upc);
                // critical section: read-modify-write a shared counter
                let mut v = [0u64];
                upc.gasnet().segment(0).read(off, &mut v);
                upc.compute(time::ns(50));
                upc.gasnet().segment(0).write(off, &[v[0] + 1]);
                lock.unlock(&upc);
            }
            upc.barrier();
            if me == 0 {
                assert_eq!(upc.gasnet().segment(0).read_word(off), 32);
            }
        });
    }

    #[test]
    fn remote_lock_costs_more_than_local() {
        let job = UpcJob::new(UpcConfig::test_default(2, 2)); // 1 thread/node
        let lock = job.alloc_lock_at(0);
        job.run(move |upc| {
            let t0 = upc.now();
            lock.lock(&upc);
            lock.unlock(&upc);
            let dt = upc.now() - t0;
            if upc.mythread() == 0 {
                assert!(dt < time::us(2), "local lock {dt}");
            } else {
                assert!(dt > time::us(4), "remote lock {dt}");
            }
            upc.barrier();
        });
    }

    #[test]
    fn try_lock_fails_when_held() {
        let job = UpcJob::new(UpcConfig::test_default(2, 1));
        let lock = job.alloc_lock();
        job.run(move |upc| {
            if upc.mythread() == 0 {
                lock.lock(&upc);
                upc.barrier(); // let thread 1 try while held
                upc.barrier();
                lock.unlock(&upc);
            } else {
                upc.barrier();
                assert!(!lock.try_lock(&upc));
                upc.barrier();
            }
        });
    }
}
