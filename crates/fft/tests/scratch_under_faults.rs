//! FT's per-run scratch under reordering: every rank borrows one shared
//! spatial plane and one set of FFT lanes, and the run's evolve table is
//! computed by whichever rank begins a step first. Packet loss makes puts
//! retry, which moves the yields and so the order in which ranks reach
//! those borrows. A borrow held across a yield would panic in `SimCell`; a
//! rank reading another step's table would panic on the step check. So
//! every schedule must finish under loss with the fault-free checksums, bit
//! for bit.

use hupc_fft::{run_ft_mpi, run_ft_upc, ExchangeKind, FtConfig, FtResult, SubthreadSpec};
use hupc_subthreads::SubthreadModel;
use hupc_upc::FaultPlan;

const EXCHANGES: [ExchangeKind; 4] = [
    ExchangeKind::SplitPhaseBlocking,
    ExchangeKind::SplitPhase,
    ExchangeKind::Overlap,
    ExchangeKind::Hierarchical,
];

fn cfg() -> FtConfig {
    FtConfig::test_custom(16, 8, 8, 2, 4, 2)
}

/// Run `cfg` without and with 5 % loss; the checksums must agree bit for
/// bit. Returns whether the loss moved the run's virtual time.
fn same_bits_under_loss(what: &str, run: impl Fn(FtConfig) -> FtResult, cfg: FtConfig) -> bool {
    let clean = run(cfg.clone());
    let lossy = run(FtConfig { fault: Some(FaultPlan::new(7).loss(0.05)), ..cfg });
    let bits = |r: &FtResult| -> Vec<(u64, u64)> {
        r.checksums.iter().map(|(re, im)| (re.to_bits(), im.to_bits())).collect()
    };
    assert_eq!(clean.checksums.len(), 2, "{what}");
    assert_eq!(bits(&lossy), bits(&clean), "{what}");
    lossy.total_seconds != clean.total_seconds
}

#[test]
fn every_schedule_keeps_its_checksums_under_loss() {
    let openmp = SubthreadSpec { n: 2, model: SubthreadModel::OpenMp };
    for exchange in EXCHANGES {
        for subthreads in [None, Some(openmp)] {
            let what = format!("{} with sub-threads {subthreads:?}", exchange.name());
            let moved =
                same_bits_under_loss(&what, run_ft_upc, FtConfig { exchange, subthreads, ..cfg() });
            // The coalesced schedule sends one inter-node message per rank
            // and exchange here, and this plan drops none of them; every
            // other schedule must actually have been reordered.
            assert!(
                moved || exchange == ExchangeKind::Hierarchical,
                "{what}: the loss moved nothing"
            );
        }
    }
    assert!(same_bits_under_loss("mpi", run_ft_mpi, cfg()), "mpi: the loss moved nothing");
}
