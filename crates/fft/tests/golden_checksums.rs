//! Golden pin: FT's per-iteration checksums, bit for bit, on a 64×32×32
//! grid (3 iterations, 4 threads on 2 nodes). The other FT tests compare
//! variants to 1e-9; this one fails on any change to the real-data path's
//! numerics — FFT passes, evolution factors, pack/unpack, buffer reuse — in
//! the sequential reference or in any distributed schedule.
//!
//! The distributed variants agree with each other exactly; the sequential
//! reference sums its probes in another order, so it has its own bits.

use hupc_fft::{run_ft_mpi, run_ft_upc, seq_checksums, ExchangeKind, FtConfig, SubthreadSpec};
use hupc_subthreads::SubthreadModel;

const SEQ: [(u64, u64); 3] = [
    (0x40805c586e60ea47, 0x408143b488afb247),
    (0x408057b3a1ed09c1, 0x40813be6cfe0d918),
    (0x4080533ec764b50c, 0x40813449d395a21f),
];

const DISTRIBUTED: [(u64, u64); 3] = [
    (0x40805c586e60ea43, 0x408143b488afb240),
    (0x408057b3a1ed09c5, 0x40813be6cfe0d91b),
    (0x4080533ec764b508, 0x40813449d395a21b),
];

fn cfg() -> FtConfig {
    FtConfig::test_custom(64, 32, 32, 3, 4, 2)
}

fn assert_bits(what: &str, got: &[(f64, f64)], want: &[(u64, u64)]) {
    let got: Vec<(u64, u64)> = got.iter().map(|(re, im)| (re.to_bits(), im.to_bits())).collect();
    assert_eq!(got, want, "{what}");
}

#[test]
fn sequential_reference_checksums_are_pinned() {
    let got: Vec<(f64, f64)> = seq_checksums(cfg().class).iter().map(|c| (c.re, c.im)).collect();
    assert_bits("seq_checksums", &got, &SEQ);
}

#[test]
fn upc_split_phase_checksums_are_pinned() {
    assert_bits("split-phase", &run_ft_upc(cfg()).checksums, &DISTRIBUTED);
}

#[test]
fn upc_overlap_with_subthreads_checksums_are_pinned() {
    let mut c = cfg();
    c.exchange = ExchangeKind::Overlap;
    c.subthreads = Some(SubthreadSpec {
        n: 2,
        model: SubthreadModel::OpenMp,
    });
    assert_bits("overlap + 2 OpenMP sub-threads", &run_ft_upc(c).checksums, &DISTRIBUTED);
}

#[test]
fn upc_hierarchical_checksums_are_pinned() {
    let mut c = cfg();
    c.exchange = ExchangeKind::Hierarchical;
    assert_bits("hierarchical", &run_ft_upc(c).checksums, &DISTRIBUTED);
}

#[test]
fn mpi_checksums_are_pinned() {
    assert_bits("mpi", &run_ft_mpi(cfg()).checksums, &DISTRIBUTED);
}

#[test]
fn upc_split_phase_blocking_checksums_are_pinned() {
    let mut c = cfg();
    c.exchange = ExchangeKind::SplitPhaseBlocking;
    assert_bits("split-phase (blocking)", &run_ft_upc(c).checksums, &DISTRIBUTED);
}

#[test]
fn upc_overlap_checksums_are_pinned() {
    let mut c = cfg();
    c.exchange = ExchangeKind::Overlap;
    assert_bits("overlap", &run_ft_upc(c).checksums, &DISTRIBUTED);
}
