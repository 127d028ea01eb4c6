//! NAS CG (conjugate gradient): sparse symmetric mat-vec with allreduce
//! dot products over the hierarchical collective layer.
//!
//! The matrix is generated, never stored globally: an undirected edge
//! `(i, j)` exists iff a symmetric hash of the unordered pair clears a
//! density threshold, and the diagonal is `1 + Σ|a_ij|`, so the matrix is
//! symmetric and strictly diagonally dominant (hence SPD and CG
//! converges). Each thread owns a block of rows; every iteration
//! allgathers the direction vector and allreduces the two dot products —
//! exactly the collective mix NAS CG stresses.

use std::sync::Arc;

use hupc_sim::rng::SplitMix64;
use hupc_sim::{time, SimCell};
use hupc_upc::UpcJob;

use crate::params::Params;
use crate::workload::{require, AppError, RunEnv, Verified, Workload};

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Off-diagonal value of the unordered pair `(i, j)`; `None` when the edge
/// does not exist. Symmetric by construction: both orders hash the same.
fn edge(seed: u64, n: usize, degree: usize, i: usize, j: usize) -> Option<f64> {
    debug_assert_ne!(i, j);
    let (a, b) = (i.min(j) as u64, i.max(j) as u64);
    let h = SplitMix64(seed ^ (a * n as u64 + b).wrapping_mul(0x9E3779B97F4A7C15)).next_u64();
    // Edge probability degree/n ⇒ expected `degree` off-diagonals per row.
    if h % n as u64 >= degree as u64 {
        return None;
    }
    Some(0.1 + 0.4 * unit(SplitMix64(h).next_u64()))
}

/// Row `i` of the matrix as `(columns, values, diagonal)`.
fn row(seed: u64, n: usize, degree: usize, i: usize) -> (Vec<u32>, Vec<f64>, f64) {
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    let mut sum = 0.0;
    for j in 0..n {
        if j == i {
            continue;
        }
        if let Some(v) = edge(seed, n, degree, i, j) {
            cols.push(j as u32);
            vals.push(v);
            sum += v;
        }
    }
    (cols, vals, 1.0 + sum)
}

/// The registered workload.
pub struct CgWorkload;

impl Workload for CgWorkload {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn description(&self) -> &'static str {
        "NAS CG: sparse SPD solve, allgather + allreduce per iteration"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("n", "256".into(), "matrix order (divisible by threads)"),
            ("degree", "8".into(), "expected off-diagonals per row"),
            ("iters", "25".into(), "CG iterations (fewer at an exact solve)"),
            ("seed", "17".into(), "matrix seed"),
            ("tol", "1e-8".into(), "relative-residual pass threshold"),
        ]
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let mut r = params.reader();
        let n = r.usize_or("n", 256)?;
        let degree = r.usize_or("degree", 8)?;
        let iters = r.usize_or("iters", 25)?;
        let seed = r.u64_or("seed", 17)?;
        let tol = r.f64_or("tol", 1e-8)?;
        r.finish()?;
        require("cg", "n", n, n > 0, "at least 1")?;
        require("cg", "iters", iters, iters > 0, "at least 1")?;
        require("cg", "tol", tol, tol.is_finite() && tol > 0.0, "finite and positive")?;
        env.check_layout()?;
        let p = env.threads;
        if n % p != 0 {
            return Err(AppError::Unsupported(format!(
                "cg: order {n} must divide evenly over {p} threads"
            )));
        }
        let rows_per = n / p;

        let job = UpcJob::new(env.upc_config(1 << 12));
        hupc_coll::CollDomain::install_auto(&job);

        // Thread 0's report: true and recurrence relative residuals, nonzeros,
        // iterations run, timed virtual seconds.
        type Report = (f64, f64, u64, usize, f64);
        let out: Arc<SimCell<Report>> = Arc::new(SimCell::default());
        let out2 = Arc::clone(&out);

        job.run(move |upc| {
            let me = upc.mythread();
            let lo = me * rows_per;
            // Build my rows (untimed setup — generation is not the kernel).
            let my_rows: Vec<(Vec<u32>, Vec<f64>, f64)> =
                (lo..lo + rows_per).map(|i| row(seed, n, degree, i)).collect();
            let nnz_local: u64 = my_rows.iter().map(|(c, _, _)| c.len() as u64 + 1).sum();
            upc.barrier();
            let t0 = upc.now();

            // CG on A x = b with b = 1: my blocks of x, r, d are private;
            // the direction vector is allgathered for the local mat-vec.
            let b = vec![1.0f64; rows_per];
            let mut x = vec![0.0f64; rows_per];
            let mut res = b.clone(); // r = b - A·0
            let mut d = res.clone();
            let mut d_full = vec![0u64; n];
            let dot = |a: &[f64], b: &[f64]| -> f64 {
                a.iter().zip(b).map(|(x, y)| x * y).sum()
            };
            let mut rs_old = {
                let mut v = [dot(&res, &res)];
                upc.allreduce_sum_f64_vec(&mut v);
                v[0]
            };
            let mut done = 0;
            while done < iters && rs_old != 0.0 {
                // `rs_old` is allreduced, so every thread leaves together;
                // at an exact solve it is 0 and the next alpha would be 0/0.
                done += 1;
                let mine: Vec<u64> = d.iter().map(|v| v.to_bits()).collect();
                upc.allgather_words(&mine, &mut d_full);
                // q = A d over my rows; CPU charge ≈ 4 ns per nonzero FMA.
                let q: Vec<f64> = my_rows
                    .iter()
                    .enumerate()
                    .map(|(k, (cols, vals, diag))| {
                        let mut acc = diag * f64::from_bits(d_full[lo + k]);
                        for (c, v) in cols.iter().zip(vals) {
                            acc += v * f64::from_bits(d_full[*c as usize]);
                        }
                        acc
                    })
                    .collect();
                upc.compute(time::ns(4 * nnz_local));
                let mut dq = [dot(&d, &q)];
                upc.allreduce_sum_f64_vec(&mut dq);
                let alpha = rs_old / dq[0];
                for k in 0..rows_per {
                    x[k] += alpha * d[k];
                    res[k] -= alpha * q[k];
                }
                let mut rs = [dot(&res, &res)];
                upc.allreduce_sum_f64_vec(&mut rs);
                let beta = rs[0] / rs_old;
                rs_old = rs[0];
                for k in 0..rows_per {
                    d[k] = res[k] + beta * d[k];
                }
            }
            let dt = upc.now() - t0;

            // Untimed verification: the *true* residual ‖b − A x‖ from the
            // final iterate (guards the recurrence), plus the recurrence
            // residual CG itself tracked.
            let xm: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let mut x_full = vec![0u64; n];
            upc.allgather_words(&xm, &mut x_full);
            let mut true_sq = 0.0f64;
            for (k, (cols, vals, diag)) in my_rows.iter().enumerate() {
                let mut ax = diag * f64::from_bits(x_full[lo + k]);
                for (c, v) in cols.iter().zip(vals) {
                    ax += v * f64::from_bits(x_full[*c as usize]);
                }
                true_sq += (b[k] - ax) * (b[k] - ax);
            }
            let mut sums = [true_sq];
            upc.allreduce_sum_f64_vec(&mut sums);
            let nnz = upc.allreduce_sum_u64(nnz_local);
            if me == 0 {
                let b_norm = (n as f64).sqrt();
                out2.set((
                    sums[0].sqrt() / b_norm,
                    rs_old.sqrt() / b_norm,
                    nnz,
                    done,
                    time::as_secs_f64(dt),
                ));
            }
        });

        let (true_rel, rec_rel, nnz, done, secs) = out.get();
        let passed = true_rel < tol && rec_rel < tol;
        Ok(Verified {
            passed,
            oracle: format!(
                "relative residual: true {true_rel:.3e}, recurrence {rec_rel:.3e} \
                 (tol {tol:.1e}) after {done} iterations"
            ),
            metrics: vec![
                ("true_rel_residual".into(), true_rel),
                ("rec_rel_residual".into(), rec_rel),
                ("nnz".into(), nnz as f64),
                ("mflops".into(), 2.0 * nnz as f64 * done as f64 / secs.max(1e-12) / 1e6),
            ],
            end_seconds: secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_converges_on_the_default_problem() {
        let v = CgWorkload
            .run(&RunEnv::small(4, 2), &Params::empty())
            .unwrap();
        assert!(v.passed, "{}", v.oracle);
        assert!(v.metric("true_rel_residual").unwrap() < 1e-8);
        assert!(v.metric("nnz").unwrap() > 256.0); // off-diagonals exist
    }

    #[test]
    fn cg_residual_is_deterministic() {
        let env = RunEnv::small(4, 2);
        let a = CgWorkload.run(&env, &Params::empty()).unwrap();
        let b = CgWorkload.run(&env, &Params::empty()).unwrap();
        assert_eq!(
            a.metric("true_rel_residual").unwrap().to_bits(),
            b.metric("true_rel_residual").unwrap().to_bits()
        );
        assert_eq!(a.end_seconds.to_bits(), b.end_seconds.to_bits());
    }

    #[test]
    fn cg_rejects_degenerate_params() {
        let env = RunEnv::small(4, 2);
        for bad in ["n=0", "iters=0", "tol=NaN", "tol=inf", "tol=0", "tol=-1e-8"] {
            let got = CgWorkload.run(&env, &Params::parse(&[bad]).unwrap());
            assert!(matches!(got, Err(AppError::Unsupported(_))), "{bad}: {got:?}");
        }
        // The smallest valid run still verifies.
        let params = Params::parse(&["n=4", "degree=0", "iters=1"]).unwrap();
        let v = CgWorkload.run(&env, &params).unwrap();
        assert!(v.passed, "{}", v.oracle);
    }

    /// `degree=0` makes A = I, which one iteration solves exactly: the
    /// solver stops there instead of dividing 0 by 0 on the next.
    #[test]
    fn cg_stops_at_an_exact_solve() {
        let params = Params::parse(&["degree=0"]).unwrap();
        let v = CgWorkload.run(&RunEnv::small(4, 2), &params).unwrap();
        assert!(v.passed, "{}", v.oracle);
        assert_eq!(v.metric("true_rel_residual"), Some(0.0));
        assert_eq!(v.metric("nnz"), Some(256.0));
    }
}
