//! `hupc` — **Hierarchical parallelism for a UPC-style PGAS runtime.**
//!
//! A from-scratch Rust reproduction of *"Exploiting Hierarchical Parallelism
//! Using UPC"* (L. Wang, GWU, 2010): a UPC-like partitioned-global-address-
//! space runtime over a deterministic cluster simulator, extended with the
//! thesis' two mechanisms for hierarchical parallelism —
//!
//! 1. **Thread groups** ([`groups`]): topology-driven subsets of SPMD
//!    threads with pre-cast pointer tables and group collectives
//!    (thesis Chapter 3);
//! 2. **Hierarchical sub-threads** ([`subthreads`]): dynamically forked
//!    shared-memory workers under each UPC thread, backed by OpenMP-,
//!    Cilk++- or thread-pool-profiled runtimes (thesis Chapter 4);
//!
//! plus the full application suite the thesis evaluates with (STREAM triad,
//! Unbalanced Tree Search, NAS FT) and an MPI baseline.
//!
//! # Layer map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`sim`] | `hupc-sim` | discrete-event engine, actors, virtual time |
//! | [`topo`] | `hupc-topo` | machine topology, placement, binding |
//! | [`net`] | `hupc-net` | conduits, NICs, CPU + NUMA memory models |
//! | [`gasnet`] | `hupc-gasnet` | segments, one-sided put/get, PSHM, teams |
//! | [`upc`] | `hupc-upc` | SPMD launcher, shared arrays, collectives, locks |
//! | [`groups`] | `hupc-groups` | Chapter 3: cooperative thread groups |
//! | [`coll`] | `hupc-coll` | topology-aware hierarchical collectives |
//! | [`subthreads`] | `hupc-subthreads` | Chapter 4: nested sub-threads |
//! | [`mpi`] | `hupc-mpi` | two-sided baseline substrate |
//! | [`stream`] / [`uts`] / [`fft`] | apps | the evaluation workloads |
//! | [`app`] | `hupc-app` | workload plugin SDK: registry, runner, oracles |
//!
//! # Quickstart
//!
//! ```
//! use hupc::prelude::*;
//!
//! let job = UpcJob::new(UpcConfig::test_default(4, 2));
//! let a = job.alloc_shared::<f64>(1024, 0); // shared [*] double a[1024]
//! job.run(move |upc| {
//!     let me = upc.mythread();
//!     // write my block through a privatized local pointer
//!     a.with_local_words(&upc, |w| {
//!         for (k, x) in w.iter_mut().enumerate() {
//!             *x = ((me * 256 + k) as f64).to_bits();
//!         }
//!     });
//!     upc.barrier();
//!     // one-sided read of a remote element
//!     if me == 0 {
//!         assert_eq!(a.get(&upc, 1000), 1000.0);
//!     }
//! });
//! ```

pub use hupc_app as app;
pub use hupc_coll as coll;
pub use hupc_fft as fft;
pub use hupc_gasnet as gasnet;
pub use hupc_groups as groups;
pub use hupc_mpi as mpi;
pub use hupc_net as net;
pub use hupc_sim as sim;
pub use hupc_stream as stream;
pub use hupc_subthreads as subthreads;
pub use hupc_topo as topo;
pub use hupc_upc as upc;
pub use hupc_uts as uts;
pub use hupc_gups as gups;
pub use hupc_serve as serve;
pub use hupc_trace as trace;

/// The names almost every program needs.
pub mod prelude {
    pub use hupc_app::{Params, RunEnv, Verified, Workload};
    pub use hupc_gasnet::{
        AccessPath, Backend, CommError, FaultPlan, Gasnet, GasnetConfig, Handle, Jitter,
        RetryPolicy,
    };
    pub use hupc_coll::{CollAlgo, CollDomain, CollPlan};
    pub use hupc_groups::{GroupLevel, GroupSet, ThreadGroup};
    pub use hupc_net::Conduit;
    pub use hupc_sim::{time, Ctx, SimCell, SimError, Simulation, Time};
    pub use hupc_subthreads::{Profile, SubPool, SubthreadModel, WorkerCtx};
    pub use hupc_topo::{BindPolicy, Machine, MachineSpec, PuId};
    pub use hupc_upc::{
        PgasElem, SharedArray, ThreadSafety, Upc, UpcConfig, UpcJob, UpcLock, UpcRuntime,
    };
}
