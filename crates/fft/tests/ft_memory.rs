//! FT holds per-run data once per run: the spatial plane, the evolve table,
//! the FFT plans and lanes are shared by every rank, so a run's resident
//! memory is its two grids (`u0` and the PGAS receive slots, one chunk of
//! each per rank) plus a few MiB, however many ranks share it.
//!
//! One test in its own binary, so no other test allocates in the process
//! while the peak resident set is being read. It reads `VmHWM`, the peak,
//! because the planes are freed before the run returns.

#![cfg(all(not(miri), target_os = "linux"))]

use hupc_fft::{run_ft_upc, ExchangeKind, FtConfig};

const MIB: usize = 1 << 20;

fn peak_resident_bytes() -> usize {
    let s = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: usize = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kb * 1024
}

// 5 s in a debug build; CI runs it in the release `hupc-fft` step.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn sixteen_ranks_hold_two_grids_and_a_few_mib() {
    let cfg = FtConfig {
        exchange: ExchangeKind::Overlap,
        ..FtConfig::test_custom(256, 256, 16, 2, 16, 4)
    };
    let grid = cfg.class.grid().total() * 16;
    assert_eq!(grid, 16 * MIB);
    let before = peak_resident_bytes();
    let r = run_ft_upc(cfg);
    let grown = peak_resident_bytes() - before;
    assert_eq!(r.checksums.len(), 2);
    assert!(
        grown <= 2 * grid + 6 * MIB,
        "a 16-rank run of a {} MiB grid grew the peak resident set by {:.1} MiB",
        grid / MIB,
        grown as f64 / MIB as f64
    );
}
