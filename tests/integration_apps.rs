//! Cross-application / cross-variant agreement: the evaluation workloads
//! must compute identical answers regardless of transport, schedule,
//! backend, or execution hierarchy.

use hupc::fft::{
    fft3d, run_ft_mpi, run_ft_upc, seq_checksums, Complex, ComputeMode, Direction, ExchangeKind,
    FftPlan, FtClass, FtConfig, SubthreadSpec,
};
use hupc::net::Conduit;
use hupc::stream::{run_twisted_triad, TriadVariant, TwistedConfig};
use hupc::subthreads::SubthreadModel;
use hupc::uts::{run_uts, sequential_traverse, StealStrategy, TreeParams, UtsConfig};

#[test]
fn ft_all_variants_agree_with_reference_and_each_other() {
    let class = FtClass::Custom {
        nx: 16,
        ny: 8,
        nz: 8,
        iters: 2,
    };
    let want = seq_checksums(class);
    let mk = || {
        let mut c = FtConfig::test_custom(16, 8, 8, 2, 4, 2);
        c.class = class;
        c
    };
    let mut variants: Vec<(String, Vec<(f64, f64)>)> = Vec::new();

    let split = run_ft_upc(mk());
    variants.push(("upc split".into(), split.checksums));

    let mut c = mk();
    c.exchange = ExchangeKind::Overlap;
    variants.push(("upc overlap".into(), run_ft_upc(c).checksums));

    let mut c = mk();
    c.exchange = ExchangeKind::SplitPhaseBlocking;
    variants.push(("upc blocking".into(), run_ft_upc(c).checksums));

    let mut c = mk();
    c.threads = 2;
    c.subthreads = Some(SubthreadSpec {
        n: 2,
        model: SubthreadModel::Pool,
    });
    variants.push(("hybrid".into(), run_ft_upc(c).checksums));

    variants.push(("mpi".into(), run_ft_mpi(mk()).checksums));

    for (name, sums) in &variants {
        assert_eq!(sums.len(), want.len(), "{name}");
        for (i, ((re, im), c)) in sums.iter().zip(&want).enumerate() {
            let s = c.re.abs().max(c.im.abs()).max(1.0);
            assert!(
                (re - c.re).abs() / s < 1e-9 && (im - c.im).abs() / s < 1e-9,
                "{name} iter {i}"
            );
        }
    }
}

#[test]
fn public_fft3d_is_one_transform_per_line() {
    // `hupc::fft::fft3d` (the batched passes) against `FftPlan::transform`
    // along x, then y, then z: the same bits, both directions.
    let g = FtClass::Custom {
        nx: 8,
        ny: 4,
        nz: 16,
        iters: 1,
    }
    .grid();
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let u0: Vec<Complex> = (0..nz)
        .flat_map(|z| (0..ny).flat_map(move |y| (0..nx).map(move |x| (x, y, z))))
        .map(|(x, y, z)| g.initial(x, y, z))
        .collect();
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut want = u0.clone();
        // (length, element stride, first element of every line)
        let axes = [
            (nx, 1, (0..ny * nz).map(|r| r * nx).collect::<Vec<_>>()),
            (
                ny,
                nx,
                (0..nz)
                    .flat_map(|z| (0..nx).map(move |x| x + z * nx * ny))
                    .collect(),
            ),
            (nz, nx * ny, (0..nx * ny).collect()),
        ];
        for (n, stride, starts) in axes {
            let plan = FftPlan::new(n);
            for s in starts {
                let mut line: Vec<Complex> = (0..n).map(|k| want[s + k * stride]).collect();
                plan.transform(&mut line, dir);
                for (k, v) in line.into_iter().enumerate() {
                    want[s + k * stride] = v;
                }
            }
        }
        let mut got = u0.clone();
        fft3d(&mut got, &g, dir);
        let bits = |v: &[Complex]| {
            v.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want), "{dir:?}");
    }
}

#[test]
fn uts_invariant_under_everything() {
    let seq = sequential_traverse(&TreeParams::small_binomial(21));
    for (threads, nodes, strategy, conduit) in [
        (2, 2, StealStrategy::Random, Conduit::ib_qdr()),
        (4, 2, StealStrategy::LocalFirst, Conduit::gige()),
        (6, 2, StealStrategy::LocalFirstRapid, Conduit::ib_ddr()),
        (8, 2, StealStrategy::LocalFirstRapid, Conduit::ib_qdr()),
    ] {
        let mut cfg = UtsConfig::small(threads, nodes, strategy, 21);
        cfg.conduit = conduit;
        let r = run_uts(cfg);
        assert_eq!(
            (r.total_nodes, r.max_depth as u32, r.leaves),
            seq,
            "threads={threads} {strategy:?}"
        );
    }
}

#[test]
fn uts_faster_network_is_never_slower() {
    let mut a = UtsConfig::small(4, 2, StealStrategy::Random, 13);
    a.conduit = Conduit::ib_qdr();
    let mut b = UtsConfig::small(4, 2, StealStrategy::Random, 13);
    b.conduit = Conduit::gige();
    let fast = run_uts(a);
    let slow = run_uts(b);
    assert!(
        fast.seconds <= slow.seconds,
        "IB {} vs GigE {}",
        fast.seconds,
        slow.seconds
    );
}

#[test]
fn stream_variants_all_verify_and_order_correctly() {
    let mut results = Vec::new();
    for v in TriadVariant::all() {
        let r = run_twisted_triad(TwistedConfig::small(v));
        assert_eq!(r.max_error, 0.0, "{}", r.variant);
        results.push((r.variant.clone(), r.gbps));
    }
    // baseline < re-localization < cast
    assert!(results[0].1 < results[1].1);
    assert!(results[1].1 < results[2].1);
}

#[test]
fn ft_model_and_execute_modes_agree_on_time_shape() {
    // Time ratios between thread counts must match across modes (the Model
    // mode is what regenerates class-B figures).
    fn total(threads: usize, mode: ComputeMode) -> f64 {
        let mut c = FtConfig::test_custom(16, 16, 16, 2, threads, 2);
        c.mode = mode;
        run_ft_upc(c).total_seconds
    }
    let e2 = total(2, ComputeMode::Execute);
    let e4 = total(4, ComputeMode::Execute);
    let m2 = total(2, ComputeMode::Model);
    let m4 = total(4, ComputeMode::Model);
    let exec_ratio = e2 / e4;
    let model_ratio = m2 / m4;
    assert!(
        (exec_ratio / model_ratio - 1.0).abs() < 0.05,
        "execute {exec_ratio:.3} vs model {model_ratio:.3}"
    );
}

#[test]
fn mpi_collective_beats_blocking_upc_exchange() {
    // The thesis' observation: the optimized MPI collective outperforms the
    // naive blocking UPC exchange (Fig 4.5's MPI advantage) — at realistic
    // message sizes, where bandwidth rather than per-message software
    // dominates (Model mode keeps the large grid cheap).
    let mut upc = FtConfig::test_custom(128, 64, 64, 2, 8, 2);
    upc.mode = ComputeMode::Model;
    upc.exchange = ExchangeKind::SplitPhaseBlocking;
    let mut mpi = upc.clone();
    mpi.exchange = ExchangeKind::SplitPhase; // ignored by MPI
    let u = run_ft_upc(upc);
    let m = run_ft_mpi(mpi);
    assert!(
        m.comm_seconds < u.comm_seconds * 1.05,
        "mpi {} vs blocking upc {}",
        m.comm_seconds,
        u.comm_seconds
    );
}
