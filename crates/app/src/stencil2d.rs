//! 2-D Jacobi heat stencil, promoted from `examples/stencil.rs` to a
//! registry workload.
//!
//! Row-block decomposition: each thread owns a band of grid rows plus a
//! ghost row above and below. Ghost exchange follows the Chapter 3
//! pattern — a cast-table memory copy when the neighbour shares a node, a
//! one-sided put otherwise. Insulated boundaries, so total heat is
//! conserved; the oracle additionally demands bit-identity with a
//! sequential sweep of the same update.

use std::sync::Arc;

use hupc_groups::{GroupLevel, GroupSet};
use hupc_sim::rng::SplitMix64;
use hupc_sim::{time, SimCell};
use hupc_upc::{SharedArray, Upc, UpcJob};

use crate::params::Params;
use crate::workload::{require, AppError, RunEnv, Verified, Workload};

/// Initial temperature of cell `(r, c)`: uniform in [0, 1).
fn init_cell(seed: u64, n: usize, r: usize, c: usize) -> f64 {
    (SplitMix64(seed ^ (r * n + c) as u64).next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One conservative update: add `alpha * (neighbour - v)` per existing
/// neighbour, in up/down/left/right order. Every flux term appears in both
/// cells with opposite sign, so the global sum is invariant; the fixed
/// order makes the float result bit-reproducible, which is what lets the
/// distributed sweep be compared bit-for-bit with this sequential one.
fn seq_step(cur: &[f64], next: &mut [f64], n: usize, alpha: f64) {
    for r in 0..n {
        for c in 0..n {
            let v = cur[r * n + c];
            let mut acc = v;
            if r > 0 {
                acc += alpha * (cur[(r - 1) * n + c] - v);
            }
            if r + 1 < n {
                acc += alpha * (cur[(r + 1) * n + c] - v);
            }
            if c > 0 {
                acc += alpha * (cur[r * n + c - 1] - v);
            }
            if c + 1 < n {
                acc += alpha * (cur[r * n + c + 1] - v);
            }
            next[r * n + c] = acc;
        }
    }
}

/// Sequential reference: the full grid after `steps` sweeps.
fn seq_reference(seed: u64, n: usize, steps: usize, alpha: f64) -> Vec<f64> {
    let mut cur: Vec<f64> = (0..n * n)
        .map(|i| init_cell(seed, n, i / n, i % n))
        .collect();
    let mut next = vec![0.0; n * n];
    for _ in 0..steps {
        seq_step(&cur, &mut next, n, alpha);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Send one full edge row into `neighbor`'s ghost slot: cast-table copy
/// inside a node, one-sided put across nodes (the `examples/stencil.rs`
/// idiom, widened from one cell to a row).
#[allow(clippy::too_many_arguments)]
fn send_ghost_row(
    upc: &Upc<'_>,
    groups: &GroupSet,
    arr: &SharedArray<f64>,
    neighbor: usize,
    slot_row: usize,
    row: &[u64],
    n: usize,
) {
    let g = groups.group_of(upc.mythread());
    if g.rank_of(neighbor).is_some() && g.has_cast_table() {
        g.with_member_words(upc, arr, neighbor, |w| {
            w[slot_row * n..(slot_row + 1) * n].copy_from_slice(row)
        });
        upc.note_socket_traffic(upc.segment_home(neighbor), 8 * n as u64);
    } else {
        upc.memput(neighbor, arr.word_offset() + slot_row * n, row);
    }
}

/// The registered workload.
pub struct Stencil2dWorkload;

impl Workload for Stencil2dWorkload {
    fn name(&self) -> &'static str {
        "stencil2d"
    }

    fn description(&self) -> &'static str {
        "2-D Jacobi heat: row-block halo exchange, bit-exact vs sequential sweep"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("n", "64".into(), "grid edge (rows divisible by threads)"),
            ("steps", "8".into(), "Jacobi sweeps"),
            ("alpha", "0.2".into(), "diffusion coefficient (< 0.25)"),
            ("seed", "11".into(), "initial-temperature seed"),
        ]
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let mut r = params.reader();
        let n = r.usize_or("n", 64)?;
        let steps = r.usize_or("steps", 8)?;
        let alpha = r.f64_or("alpha", 0.2)?;
        let seed = r.u64_or("seed", 11)?;
        r.finish()?;
        require("stencil2d", "steps", steps, steps > 0, "at least 1")?;
        require("stencil2d", "alpha", alpha, alpha.is_finite(), "finite")?;
        env.check_layout()?;
        let p = env.threads;
        if n % p != 0 || n / p < 1 {
            return Err(AppError::Unsupported(format!(
                "stencil2d: grid rows {n} must divide evenly over {p} threads"
            )));
        }
        let rows = n / p; // interior rows per thread
        let block = (rows + 2) * n; // + ghost row above and below

        let seg = (hupc_upc::SCRATCH_WORDS + 2 * block + 256)
            .next_power_of_two()
            .max(1 << 10);
        let job = UpcJob::new(env.upc_config(seg));
        let a = job.alloc_shared::<f64>(p * block, block);
        let b = job.alloc_shared::<f64>(p * block, block);
        let groups = Arc::new(GroupSet::partition(
            &mut job.kernel(),
            job.runtime(),
            GroupLevel::Node,
        ));
        hupc_coll::CollDomain::install_auto(&job);

        let out: Arc<SimCell<(u64, f64, f64, f64)>> = Arc::new(SimCell::default());
        let out2 = Arc::clone(&out);

        job.run(move |upc| {
            let me = upc.mythread();
            // Init my band (untimed setup) and zero the ghosts.
            a.with_local_words(&upc, |w| {
                w.fill(0.0f64.to_bits());
                for lr in 0..rows {
                    for c in 0..n {
                        w[(lr + 1) * n + c] = init_cell(seed, n, me * rows + lr, c).to_bits();
                    }
                }
            });
            b.with_local_words(&upc, |w| w.fill(0.0f64.to_bits()));
            upc.barrier();
            let t0 = upc.now();

            let (mut cur, mut next) = (a, b);
            for _ in 0..steps {
                // Halo: my first interior row to the upper neighbour's
                // bottom ghost, my last to the lower neighbour's top ghost.
                let (first, last) = cur.with_local_words(&upc, |w| {
                    (w[n..2 * n].to_vec(), w[rows * n..(rows + 1) * n].to_vec())
                });
                if me > 0 {
                    send_ghost_row(&upc, &groups, &cur, me - 1, rows + 1, &first, n);
                }
                if me + 1 < p {
                    send_ghost_row(&upc, &groups, &cur, me + 1, 0, &last, n);
                }
                upc.barrier();

                // Local sweep (privatized), same flux order as `seq_step`.
                let vals: Vec<f64> = cur.with_local_words(&upc, |w| {
                    w.iter().map(|&x| f64::from_bits(x)).collect()
                });
                next.with_local_words(&upc, |dst| {
                    for lr in 0..rows {
                        let gr = me * rows + lr; // global row
                        let row0 = (lr + 1) * n;
                        for c in 0..n {
                            let v = vals[row0 + c];
                            let mut acc = v;
                            if gr > 0 {
                                acc += alpha * (vals[row0 - n + c] - v);
                            }
                            if gr + 1 < n {
                                acc += alpha * (vals[row0 + n + c] - v);
                            }
                            if c > 0 {
                                acc += alpha * (vals[row0 + c - 1] - v);
                            }
                            if c + 1 < n {
                                acc += alpha * (vals[row0 + c + 1] - v);
                            }
                            dst[row0 + c] = acc.to_bits();
                        }
                    }
                });
                upc.charge_mem_traffic(upc.segment_home(me), rows * n * 48);
                upc.barrier();
                std::mem::swap(&mut cur, &mut next);
            }
            let dt = upc.now() - t0;

            // Oracle (untimed): bit-identity with the sequential sweep plus
            // heat conservation.
            let want = seq_reference(seed, n, steps, alpha);
            let mut mismatches = 0u64;
            let mut local_sum = 0.0f64;
            cur.with_local_words(&upc, |w| {
                for lr in 0..rows {
                    for c in 0..n {
                        let got = f64::from_bits(w[(lr + 1) * n + c]);
                        local_sum += got;
                        if got.to_bits() != want[(me * rows + lr) * n + c].to_bits() {
                            mismatches += 1;
                        }
                    }
                }
            });
            let mismatches = upc.allreduce_sum_u64(mismatches);
            let total = upc.allreduce_sum_f64(local_sum);
            if me == 0 {
                let want_total: f64 = (0..n * n)
                    .map(|i| init_cell(seed, n, i / n, i % n))
                    .sum();
                out2.set((
                    mismatches,
                    total,
                    want_total,
                    time::as_secs_f64(dt),
                ));
            }
        });

        let (mismatches, total, want_total, secs) = out.get();
        let drift = (total - want_total).abs() / want_total.max(1.0);
        let passed = mismatches == 0 && drift < 1e-9;
        Ok(Verified {
            passed,
            oracle: format!(
                "{mismatches} cells diverge from the sequential sweep; \
                 heat drift {drift:.3e} (tol 1e-9)"
            ),
            metrics: vec![
                ("mismatches".into(), mismatches as f64),
                ("total_heat".into(), total),
                ("cells_per_sec".into(), (n * n * steps) as f64 / secs.max(1e-12)),
            ],
            end_seconds: secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil2d_is_bit_exact_and_conservative() {
        let v = run(4, 2);
        assert!(v.passed, "{}", v.oracle);
        assert_eq!(v.metric("mismatches"), Some(0.0));
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        // Both layouts must be bit-identical to the same sequential
        // reference (that's what `passed` asserts); the reduced totals may
        // round differently per layout, so compare those loosely.
        let a = run(2, 1);
        let b = run(4, 2);
        assert!(a.passed, "{}", a.oracle);
        assert!(b.passed, "{}", b.oracle);
        let (ta, tb) = (a.metric("total_heat").unwrap(), b.metric("total_heat").unwrap());
        assert!((ta - tb).abs() / ta.abs() < 1e-12, "{ta} vs {tb}");
    }

    #[test]
    fn stencil2d_rejects_degenerate_params() {
        let env = RunEnv::small(4, 2);
        for bad in ["steps=0", "alpha=NaN", "alpha=-inf"] {
            let got = Stencil2dWorkload.run(&env, &Params::parse(&[bad]).unwrap());
            assert!(matches!(got, Err(AppError::Unsupported(_))), "{bad}: {got:?}");
        }
        // The smallest valid run still verifies.
        let params = Params::parse(&["n=4", "steps=1"]).unwrap();
        let v = Stencil2dWorkload.run(&env, &params).unwrap();
        assert!(v.passed, "{}", v.oracle);
    }

    fn run(threads: usize, nodes: usize) -> Verified {
        let env = RunEnv::small(threads, nodes);
        let params = Params::parse(&["n=32", "steps=5"]).unwrap();
        Stencil2dWorkload.run(&env, &params).unwrap()
    }
}
