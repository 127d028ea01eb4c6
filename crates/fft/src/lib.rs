//! `hupc-fft` — the NAS FT benchmark: 3-D FFTs over a distributed grid,
//! with every variant the thesis evaluates.
//!
//! FT solves a PDE by repeated spectral steps: one forward 3-D FFT, then per
//! iteration an *evolve* (frequency-space exponential damping), an inverse
//! 3-D FFT and a checksum. With the 1-D slab decomposition (thesis Fig 4.3)
//! the third-dimension FFT needs a global all-to-all exchange — the
//! communication phase every figure of Chapters 3–4 dissects.
//!
//! Variants (all sharing the same numerics and the same cost model):
//!
//! * transport: **UPC** one-sided puts vs the **MPI** pairwise-exchange
//!   collective;
//! * schedule: **split-phase** (compute, then exchange) vs **overlap**
//!   (per-plane non-blocking puts, thesis §4.3.3.1);
//! * execution: pure UPC (process/pthread/PSHM backends) vs **hierarchical
//!   UPC × sub-threads** (OpenMP / Cilk++ / thread-pool profiles);
//! * [`ComputeMode::Execute`] runs the real butterflies and verifies
//!   checksums; [`ComputeMode::Model`] charges identical virtual time
//!   without touching data (for class-B figure regeneration on a laptop).

mod ftcore;
mod grid;
mod kernel;
mod mpi_ft;
mod upc_ft;

pub use grid::{fft3d, seq_checksums, FtClass, Grid};
pub use kernel::{dft_reference, Complex, Direction, FftPlan};
pub use mpi_ft::run_ft_mpi;
pub use upc_ft::{run_ft_upc, ComputeMode, ExchangeKind, FtConfig, FtResult, SubthreadSpec};
