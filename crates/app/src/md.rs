//! Molecular dynamics with 3-D domain decomposition and halo exchange —
//! the workload PAPERS.md's UPC-MD study evaluates, on our group
//! machinery: boundary-band particles travel to neighbouring subdomains
//! over one-sided puts (or a cast-table memory copy when the neighbour
//! shares a node), and the force loop runs privatized over local +
//! received halo particles.
//!
//! Physics: cut-and-shifted Lennard-Jones in an open (non-periodic) box,
//! velocity-Verlet integration. The system is isolated, so total energy
//! is conserved; the oracle bounds the relative drift of `KE + PE`
//! between the first and last step. Pair visibility is symmetric by
//! construction — a particle is sent to every neighbour whose shared
//! boundary it sits within `rc + skin` of, and `skin` dominates any drift
//! a particle can accumulate over the run — so forces obey Newton's third
//! law across subdomain boundaries and the halo PE half-counts exactly.
//!
//! Determinism: particles are generated from a seeded hash of their
//! global id, halo slots are read in a fixed direction order after a
//! barrier, and every float accumulates in a fixed order — the result is
//! bit-identical across runs and engine backends.

use std::sync::Arc;

use hupc_groups::{GroupLevel, GroupSet};
use hupc_sim::rng::SplitMix64;
use hupc_sim::{time, SimCell};
use hupc_upc::{Upc, UpcJob};

use crate::params::Params;
use crate::workload::{require, AppError, RunEnv, Verified, Workload};

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Factor `p` into a near-cubic `(px, py, pz)` process grid.
fn grid3(p: usize) -> (usize, usize, usize) {
    let mut best = (p, 1, 1);
    let mut best_surface = usize::MAX;
    for px in 1..=p {
        if !p.is_multiple_of(px) {
            continue;
        }
        let q = p / px;
        for py in 1..=q {
            if !q.is_multiple_of(py) {
                continue;
            }
            let pz = q / py;
            let surface = px * py + py * pz + pz * px;
            if surface < best_surface {
                best_surface = surface;
                best = (px, py, pz);
            }
        }
    }
    best
}

/// The 26 halo directions in fixed lexicographic order (slot index order).
fn directions() -> Vec<(i64, i64, i64)> {
    let mut d = Vec::with_capacity(26);
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            for dz in -1i64..=1 {
                if (dx, dy, dz) != (0, 0, 0) {
                    d.push((dx, dy, dz));
                }
            }
        }
    }
    d
}

/// One particle: position, velocity, force (all f64 triples).
#[derive(Clone, Copy, Default)]
struct Particle {
    x: [f64; 3],
    v: [f64; 3],
    f: [f64; 3],
}

/// Cut-and-shifted LJ: returns `(force/r², potential)` for squared
/// distance `r2 < rc2`, both continuous at the cutoff.
fn lj(r2: f64, u_shift: f64) -> (f64, f64) {
    let inv2 = 1.0 / r2;
    let sr6 = inv2 * inv2 * inv2;
    let sr12 = sr6 * sr6;
    (24.0 * (2.0 * sr12 - sr6) * inv2, 4.0 * (sr12 - sr6) - u_shift)
}

/// The registered workload.
pub struct MdWorkload;

impl Workload for MdWorkload {
    fn name(&self) -> &'static str {
        "md"
    }

    fn description(&self) -> &'static str {
        "LJ molecular dynamics: 3-D halo exchange, energy-conservation oracle"
    }

    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
        vec![
            ("n_per", "32".into(), "particles per thread"),
            ("steps", "10".into(), "velocity-Verlet steps"),
            ("dt", "0.002".into(), "timestep (LJ units)"),
            ("rc", "2.0".into(), "interaction cutoff"),
            ("skin", "0.5".into(), "halo band margin beyond rc"),
            ("density", "0.4".into(), "particles per unit volume"),
            ("tol", "1e-4".into(), "relative energy-drift pass threshold"),
            ("seed", "23".into(), "initial-state seed"),
        ]
    }

    fn default_env(&self) -> RunEnv {
        // 8 threads factor into a 2×2×2 domain grid.
        RunEnv::small(8, 2)
    }

    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError> {
        let mut r = params.reader();
        let n_per = r.usize_or("n_per", 32)?;
        let steps = r.usize_or("steps", 10)?;
        let dt = r.f64_or("dt", 0.002)?;
        let rc = r.f64_or("rc", 2.0)?;
        let skin = r.f64_or("skin", 0.5)?;
        let density = r.f64_or("density", 0.4)?;
        let tol = r.f64_or("tol", 1e-4)?;
        let seed = r.u64_or("seed", 23)?;
        r.finish()?;
        require("md", "steps", steps, steps > 0, "at least 1")?;
        for (key, v) in [("dt", dt), ("rc", rc), ("density", density), ("tol", tol)] {
            require("md", key, v, v.is_finite() && v > 0.0, "finite and positive")?;
        }
        require("md", "skin", skin, skin.is_finite() && skin >= 0.0, "finite and non-negative")?;
        env.check_layout()?;
        let p = env.threads;
        let (px, py, pz) = grid3(p);
        let cell_l = (n_per as f64 / density).cbrt();
        // Interacting pairs must live in the same or adjacent subdomains,
        // even after a run's worth of drift — that's what `skin` buys.
        if cell_l < rc + skin {
            return Err(AppError::Unsupported(format!(
                "md: subdomain edge {cell_l:.2} must be ≥ rc+skin = {:.2} \
                 (raise n_per or lower density/rc)",
                rc + skin
            )));
        }

        // Halo inbox: one slot per direction, [count, 3·n_per coordinates].
        let slot_words = 1 + 3 * n_per;
        let block = 26 * slot_words;
        let seg = (hupc_upc::SCRATCH_WORDS + block + 256)
            .next_power_of_two()
            .max(1 << 10);
        let job = UpcJob::new(env.upc_config(seg));
        let inbox = job.alloc_shared::<u64>(p * block, block);
        let groups = Arc::new(GroupSet::partition(
            &mut job.kernel(),
            job.runtime(),
            GroupLevel::Node,
        ));
        hupc_coll::CollDomain::install_auto(&job);

        let out: Arc<SimCell<(f64, f64, u64, f64)>> = Arc::new(SimCell::default());
        let out2 = Arc::clone(&out);
        let dirs = directions();

        job.run(move |upc| {
            let me = upc.mythread();
            let (cx, cy, cz) = (me % px, (me / px) % py, me / (px * py));
            let lo = [
                cx as f64 * cell_l,
                cy as f64 * cell_l,
                cz as f64 * cell_l,
            ];
            let hi = [lo[0] + cell_l, lo[1] + cell_l, lo[2] + cell_l];
            let rc2 = rc * rc;
            let u_shift = {
                let sr6 = 1.0 / (rc2 * rc2 * rc2);
                4.0 * (sr6 * sr6 - sr6)
            };
            let band = rc + skin;

            // My neighbours: direction index → rank, for directions whose
            // cell exists (open box, no wrap).
            let neighbor_of = |d: (i64, i64, i64)| -> Option<usize> {
                let nx = cx as i64 + d.0;
                let ny = cy as i64 + d.1;
                let nz = cz as i64 + d.2;
                if (0..px as i64).contains(&nx)
                    && (0..py as i64).contains(&ny)
                    && (0..pz as i64).contains(&nz)
                {
                    Some((nx + px as i64 * (ny + py as i64 * nz)) as usize)
                } else {
                    None
                }
            };

            // Init (untimed): jittered lattice, small hashed velocities.
            let m = (n_per as f64).cbrt().ceil() as usize;
            let spacing = cell_l / m as f64;
            let mut parts: Vec<Particle> = (0..n_per)
                .map(|k| {
                    let gid = (me * n_per + k) as u64;
                    let (ix, iy, iz) = (k % m, (k / m) % m, k / (m * m));
                    let mut part = Particle::default();
                    for (a, i) in [ix, iy, iz].into_iter().enumerate() {
                        let jit =
                            0.04 * (unit(SplitMix64(seed ^ (gid * 3 + a as u64)).next_u64()) - 0.5);
                        part.x[a] = lo[a] + (i as f64 + 0.5) * spacing + jit;
                        part.v[a] = 0.1
                            * (unit(SplitMix64(seed ^ (gid * 3 + a as u64) ^ 0xABCD).next_u64())
                                - 0.5);
                    }
                    part
                })
                .collect();
            upc.staged_barrier();
            let t0 = upc.now();

            // One halo exchange + force/PE computation. Returns local PE
            // (halo pairs half-counted) and the pair count it evaluated.
            let exchange_and_force = |upc: &Upc<'_>, parts: &mut Vec<Particle>| -> (f64, u64) {
                // Publish boundary bands to every existing neighbour.
                let mut handles = Vec::new();
                for (di, &d) in dirs.iter().enumerate() {
                    let Some(nb) = neighbor_of(d) else { continue };
                    let mut sent: Vec<u64> = Vec::new();
                    for part in parts.iter() {
                        let within = |a: usize| match [d.0, d.1, d.2][a] {
                            -1 => part.x[a] < lo[a] + band,
                            1 => part.x[a] > hi[a] - band,
                            _ => true,
                        };
                        if within(0) && within(1) && within(2) {
                            sent.extend(part.x.iter().map(|v| v.to_bits()));
                        }
                    }
                    let slot = di * slot_words;
                    let words = 1 + sent.len();
                    let g = groups.group_of(me);
                    if g.rank_of(nb).is_some() && g.has_cast_table() {
                        // Privatized path: straight memory copy through the
                        // group cast table.
                        g.with_member_words(upc, &inbox, nb, |w| {
                            w[slot] = (sent.len() / 3) as u64;
                            w[slot + 1..slot + words].copy_from_slice(&sent);
                        });
                        upc.note_socket_traffic(upc.segment_home(nb), 8 * words as u64);
                    } else {
                        let off = inbox.word_offset() + slot;
                        let ((), h) = upc.memput_nb_with(nb, off, words, |w| {
                            w[0] = (sent.len() / 3) as u64;
                            w[1..].copy_from_slice(&sent);
                        });
                        handles.push(h);
                    }
                }
                for h in handles {
                    upc.wait_sync(h);
                }
                upc.barrier();

                // Drain halo slots in fixed direction order: slot `di`
                // holds particles from the neighbour at `-d`.
                let mut halo: Vec<[f64; 3]> = Vec::new();
                for (di, &d) in dirs.iter().enumerate() {
                    if neighbor_of((-d.0, -d.1, -d.2)).is_none() {
                        continue;
                    }
                    let slot_off = inbox.word_offset() + di * slot_words;
                    let seg = upc.gasnet().segment(me);
                    let count = seg.read_word(slot_off) as usize;
                    let mut w = vec![0u64; count * 3];
                    seg.read(slot_off + 1, &mut w);
                    for t in w.chunks_exact(3) {
                        halo.push([
                            f64::from_bits(t[0]),
                            f64::from_bits(t[1]),
                            f64::from_bits(t[2]),
                        ]);
                    }
                }

                // Force loop, privatized: local-local pairs in full,
                // local-halo pairs with half-counted PE.
                for part in parts.iter_mut() {
                    part.f = [0.0; 3];
                }
                let mut pe = 0.0f64;
                let mut pairs = 0u64;
                for i in 0..parts.len() {
                    for j in i + 1..parts.len() {
                        let mut dr = [0.0; 3];
                        let mut r2 = 0.0;
                        for (a, d) in dr.iter_mut().enumerate() {
                            *d = parts[i].x[a] - parts[j].x[a];
                            r2 += *d * *d;
                        }
                        pairs += 1;
                        if r2 < rc2 {
                            let (fr, u) = lj(r2, u_shift);
                            pe += u;
                            for (a, &d) in dr.iter().enumerate() {
                                parts[i].f[a] += fr * d;
                                parts[j].f[a] -= fr * d;
                            }
                        }
                    }
                    for h in &halo {
                        let mut dr = [0.0; 3];
                        let mut r2 = 0.0;
                        for (a, d) in dr.iter_mut().enumerate() {
                            *d = parts[i].x[a] - h[a];
                            r2 += *d * *d;
                        }
                        pairs += 1;
                        if r2 < rc2 {
                            let (fr, u) = lj(r2, u_shift);
                            pe += 0.5 * u; // the neighbour counts the other half
                            for (a, &d) in dr.iter().enumerate() {
                                parts[i].f[a] += fr * d;
                            }
                        }
                    }
                }
                // ~40 ns per evaluated pair + streaming the halo coordinates.
                upc.compute(time::ns(40 * pairs));
                upc.note_socket_traffic(upc.segment_home(me), halo.len() as u64 * 24);
                (pe, pairs)
            };

            let ke = |parts: &[Particle]| -> f64 {
                parts
                    .iter()
                    .map(|p| 0.5 * (p.v[0] * p.v[0] + p.v[1] * p.v[1] + p.v[2] * p.v[2]))
                    .sum()
            };

            // Forces + energy at t = 0.
            let (pe0, _) = exchange_and_force(&upc, &mut parts);
            let mut e = [ke(&parts) + pe0];
            upc.allreduce_sum_f64_vec(&mut e);
            let e0 = e[0];

            // Velocity Verlet.
            let mut total_pairs = 0u64;
            let mut pe_last = pe0;
            for _ in 0..steps {
                for part in parts.iter_mut() {
                    for a in 0..3 {
                        part.v[a] += 0.5 * dt * part.f[a];
                        part.x[a] += dt * part.v[a];
                    }
                }
                upc.compute(time::ns(6 * n_per as u64));
                let (pe, pairs) = exchange_and_force(&upc, &mut parts);
                total_pairs += pairs;
                pe_last = pe;
                for part in parts.iter_mut() {
                    for a in 0..3 {
                        part.v[a] += 0.5 * dt * part.f[a];
                    }
                }
                upc.compute(time::ns(3 * n_per as u64));
            }
            let mut e = [ke(&parts) + pe_last];
            upc.allreduce_sum_f64_vec(&mut e);
            let e_final = e[0];
            let dt_v = upc.now() - t0;
            let pairs_total = upc.allreduce_sum_u64(total_pairs);
            if me == 0 {
                out2.set((e0, e_final, pairs_total, time::as_secs_f64(dt_v)));
            }
        });

        let (e0, e_final, pairs, secs) = out.get();
        let drift = (e_final - e0).abs() / e0.abs().max(1.0);
        let passed = drift < tol && e0.is_finite() && e_final.is_finite();
        Ok(Verified {
            passed,
            oracle: format!(
                "energy E0 = {e0:.6}, E({steps}) = {e_final:.6}, \
                 relative drift {drift:.3e} (tol {tol:.1e})"
            ),
            metrics: vec![
                ("e0".into(), e0),
                ("e_final".into(), e_final),
                ("energy_drift".into(), drift),
                ("pairs".into(), pairs as f64),
                ("pairs_per_sec".into(), pairs as f64 / secs.max(1e-12)),
            ],
            end_seconds: secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_cubic_grids() {
        assert_eq!(grid3(8), (2, 2, 2));
        assert_eq!(grid3(1), (1, 1, 1));
        for p in [2, 4, 6, 12] {
            let (a, b, c) = grid3(p);
            assert_eq!(a * b * c, p);
            // Near-cubic: no factor more than p/2 away unless forced.
            assert!(a.max(b).max(c) <= p / 2 || p <= 3, "{p} -> {a}x{b}x{c}");
        }
    }

    #[test]
    fn md_conserves_energy() {
        let v = MdWorkload
            .run(&MdWorkload.default_env(), &Params::empty())
            .unwrap();
        assert!(v.passed, "{}", v.oracle);
        assert!(v.metric("energy_drift").unwrap() < 1e-4);
        assert!(v.metric("pairs").unwrap() > 0.0);
    }

    #[test]
    fn md_is_deterministic_across_runs() {
        let env = MdWorkload.default_env();
        let a = MdWorkload.run(&env, &Params::empty()).unwrap();
        let b = MdWorkload.run(&env, &Params::empty()).unwrap();
        assert_eq!(
            a.metric("e_final").unwrap().to_bits(),
            b.metric("e_final").unwrap().to_bits()
        );
        assert_eq!(a.end_seconds.to_bits(), b.end_seconds.to_bits());
    }

    #[test]
    fn md_rejects_degenerate_params() {
        let env = MdWorkload.default_env();
        for bad in [
            "steps=0", "dt=NaN", "dt=0", "dt=-0.002", "rc=NaN", "rc=0", "density=0",
            "density=inf", "tol=NaN", "tol=0", "skin=NaN", "skin=-0.5",
        ] {
            let got = MdWorkload.run(&env, &Params::parse(&[bad]).unwrap());
            assert!(matches!(got, Err(AppError::Unsupported(_))), "{bad}: {got:?}");
        }
        // The smallest valid run still verifies.
        let v = MdWorkload.run(&env, &Params::parse(&["steps=1"]).unwrap()).unwrap();
        assert!(v.passed, "{}", v.oracle);
    }
}
