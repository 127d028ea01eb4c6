//! `hupc-fault` — deterministic, seeded fault injection for the simulated
//! fabric and CPUs.
//!
//! The thesis' UTS study runs on Pyramid's GigE network precisely because it
//! is the slow, lossy fabric where locality-aware algorithms matter. This
//! crate describes *how* lossy: a [`FaultPlan`] declares per-link packet-loss
//! probabilities, latency [`Jitter`] distributions, degraded-NIC time windows
//! and straggler nodes, all driven by a seeded PRNG so that every run is
//! bit-for-bit reproducible.
//!
//! Two invariants the rest of the stack relies on (and the property tests in
//! `tests/integration_props.rs` enforce):
//!
//! * **Zero plan = no plan.** A `FaultPlan` with zero loss, no jitter, no
//!   windows and no stragglers produces completion times identical to a run
//!   with no plan installed at all — the injector draws from its PRNG but
//!   adds nothing.
//! * **Same seed = same faults.** Two runs with the same plan (seed
//!   included) drop the same packets and add the same jitter.
//!
//! The plan is *consulted* by `hupc-net`'s `Fabric` (drop/jitter/NIC
//! degradation) and `hupc-gasnet`'s runtime (straggler CPU slowdown); the
//! retry/backoff machinery that *recovers* from these faults lives in
//! `hupc-gasnet`.

use hupc_sim::rng::SplitMix64;
use hupc_sim::{time, SimCell, Time};

/// Latency jitter distribution added to each traversal of the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Jitter {
    /// No jitter (the default; preserves bit-identical timings).
    None,
    /// Uniform in `[0, max]`.
    Uniform { max: Time },
    /// Exponential with the given mean, truncated at `cap` (models
    /// congestion tails without unbounded outliers).
    Exp { mean: Time, cap: Time },
}

impl Jitter {
    fn sample(&self, u: f64) -> Time {
        match *self {
            Jitter::None => 0,
            Jitter::Uniform { max } => time::from_secs_f64(time::as_secs_f64(max) * u),
            Jitter::Exp { mean, cap } => {
                let t = -time::as_secs_f64(mean) * (1.0 - u).ln();
                time::from_secs_f64(t).min(cap)
            }
        }
    }
}

/// A time interval during which one node's NIC runs below line rate
/// (thermal throttling, a flapping link renegotiating, a misbehaving
/// firmware — the `nic_factor` spikes of a real cluster).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedWindow {
    pub node: usize,
    pub from: Time,
    pub until: Time,
    /// Service-time multiplier while the window is open (≥ 1.0).
    pub nic_factor: f64,
}

/// Declarative description of every fault the simulated platform should
/// suffer. Build with the fluent methods; hand to `GasnetConfig::fault`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Baseline per-message drop probability for every inter-node link.
    default_loss: f64,
    /// Per-link `(src, dst, probability)` overrides.
    link_loss: Vec<(usize, usize, f64)>,
    jitter: Jitter,
    degraded: Vec<DegradedWindow>,
    /// `(node, slowdown)`: CPU work on `node` takes `slowdown`× as long.
    stragglers: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// A plan with the given PRNG seed and no faults (identity behavior).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_loss: 0.0,
            link_loss: Vec::new(),
            jitter: Jitter::None,
            degraded: Vec::new(),
            stragglers: Vec::new(),
        }
    }

    /// Set the baseline packet-loss probability for every link.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1]");
        self.default_loss = p;
        self
    }

    /// Override the loss probability of the directed link `src → dst`.
    pub fn link_loss(mut self, src: usize, dst: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1]");
        self.link_loss.push((src, dst, p));
        self
    }

    /// Set the per-traversal latency jitter distribution.
    pub fn jitter(mut self, j: Jitter) -> Self {
        self.jitter = j;
        self
    }

    /// Degrade `node`'s NIC by `nic_factor`× during `[from, until)`.
    pub fn degraded_nic(mut self, node: usize, from: Time, until: Time, nic_factor: f64) -> Self {
        assert!(nic_factor >= 1.0, "nic degradation factor must be >= 1");
        self.degraded.push(DegradedWindow {
            node,
            from,
            until,
            nic_factor,
        });
        self
    }

    /// Slow all CPU work on `node` down by `slowdown`× (a straggler).
    pub fn straggler(mut self, node: usize, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "straggler slowdown must be >= 1");
        self.stragglers.push((node, slowdown));
        self
    }

    /// The PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Effective loss probability of the directed link `src → dst`.
    pub fn loss_for(&self, src: usize, dst: usize) -> f64 {
        self.link_loss
            .iter()
            .rev() // later overrides win
            .find(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, p)| p)
            .unwrap_or(self.default_loss)
    }

    /// NIC service-time multiplier for `node` at virtual time `now`
    /// (product of all open windows; 1.0 when none).
    pub fn nic_factor(&self, node: usize, now: Time) -> f64 {
        self.degraded
            .iter()
            .filter(|w| w.node == node && w.from <= now && now < w.until)
            .map(|w| w.nic_factor)
            .product::<f64>()
            .max(1.0)
    }

    /// CPU slowdown factor for `node` (1.0 for healthy nodes).
    pub fn cpu_slowdown(&self, node: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, s)| s)
            .product::<f64>()
            .max(1.0)
    }

    /// Whether this plan can never perturb a run (identity plan).
    pub fn is_identity(&self) -> bool {
        self.default_loss == 0.0
            && self.link_loss.iter().all(|&(_, _, p)| p == 0.0)
            && self.jitter == Jitter::None
            && self.degraded.is_empty()
            && self.stragglers.is_empty()
    }
}

/// Outcome of consulting the injector for one wire traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Xmit {
    /// The packet is lost: it never reaches the destination NIC.
    pub dropped: bool,
    /// Extra latency added on top of the conduit's wire latency.
    pub jitter: Time,
}

/// Uniform in [0, 1) from the next draw. The whole fault layer's
/// randomness flows through one [`SplitMix64`] instance.
fn next_f64(r: &mut SplitMix64) -> f64 {
    (r.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stateful runtime companion of a [`FaultPlan`]: owns the PRNG.
///
/// Shared (via `Arc`) between the fabric and the runtime; interior
/// mutability through [`SimCell`] is safe because the simulation engine
/// serializes all actor execution.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimCell<SplitMix64>,
    /// Wire traversals this injector actually perturbed (dropped or
    /// jittered). Monotonic; a pure function of the drawn stream, so it is
    /// as deterministic as the faults themselves.
    perturbations: SimCell<u64>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SimCell::new(SplitMix64(plan.seed));
        FaultInjector {
            plan,
            rng,
            perturbations: SimCell::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of traversals perturbed so far (drops + nonzero jitter).
    ///
    /// Request-serving layers snapshot this around each request to *tag* the
    /// requests a fault actually touched — the clean/faulted latency split
    /// that turns a fault plan into a tail-latency experiment. Stragglers and
    /// degraded-NIC windows are not draws; consult
    /// [`FaultPlan::cpu_slowdown`] / [`FaultPlan::nic_factor`] for those.
    pub fn perturbations(&self) -> u64 {
        self.perturbations.get()
    }

    /// Decide the fate of one wire traversal `src → dst`. Always draws the
    /// same number of PRNG values regardless of the plan's parameters, so
    /// changing a probability never shifts the random stream of unrelated
    /// links.
    pub fn xmit(&self, src: usize, dst: usize) -> Xmit {
        let (u_loss, u_jitter) = self.rng.with_mut(|r| (next_f64(r), next_f64(r)));
        let dropped = u_loss < self.plan.loss_for(src, dst);
        let jitter = self.plan.jitter.sample(u_jitter);
        if dropped || jitter > 0 {
            self.perturbations.with_mut(|p| *p += 1);
        }
        Xmit { dropped, jitter }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_plan_never_perturbs() {
        let inj = FaultInjector::new(FaultPlan::new(42));
        assert!(inj.plan().is_identity());
        for _ in 0..1000 {
            let x = inj.xmit(0, 1);
            assert!(!x.dropped);
            assert_eq!(x.jitter, 0);
        }
        assert_eq!(inj.plan().nic_factor(0, time::ms(5)), 1.0);
        assert_eq!(inj.plan().cpu_slowdown(3), 1.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mk = || FaultInjector::new(FaultPlan::new(7).loss(0.3).jitter(Jitter::Uniform {
            max: time::us(50),
        }));
        let (a, b) = (mk(), mk());
        for _ in 0..1000 {
            assert_eq!(a.xmit(0, 1), b.xmit(0, 1));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::new(1).loss(0.5));
        let b = FaultInjector::new(FaultPlan::new(2).loss(0.5));
        let same = (0..256)
            .filter(|_| a.xmit(0, 1).dropped == b.xmit(0, 1).dropped)
            .count();
        assert!(same < 256, "streams should diverge");
    }

    #[test]
    fn loss_rate_approximates_probability() {
        let inj = FaultInjector::new(FaultPlan::new(99).loss(0.25));
        let n = 10_000;
        let drops = (0..n).filter(|_| inj.xmit(0, 1).dropped).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn link_override_beats_default() {
        let p = FaultPlan::new(0).loss(0.1).link_loss(2, 3, 0.9).link_loss(2, 3, 0.4);
        assert_eq!(p.loss_for(0, 1), 0.1);
        assert_eq!(p.loss_for(2, 3), 0.4); // later override wins
        assert_eq!(p.loss_for(3, 2), 0.1); // directed
    }

    #[test]
    fn degraded_window_is_half_open() {
        let p = FaultPlan::new(0).degraded_nic(1, time::us(10), time::us(20), 3.0);
        assert_eq!(p.nic_factor(1, time::us(9)), 1.0);
        assert_eq!(p.nic_factor(1, time::us(10)), 3.0);
        assert_eq!(p.nic_factor(1, time::us(19)), 3.0);
        assert_eq!(p.nic_factor(1, time::us(20)), 1.0);
        assert_eq!(p.nic_factor(0, time::us(15)), 1.0);
    }

    #[test]
    fn overlapping_windows_compound() {
        let p = FaultPlan::new(0)
            .degraded_nic(0, 0, time::ms(1), 2.0)
            .degraded_nic(0, 0, time::ms(1), 1.5);
        assert_eq!(p.nic_factor(0, time::us(1)), 3.0);
    }

    #[test]
    fn jitter_respects_bounds() {
        let inj = FaultInjector::new(
            FaultPlan::new(5).jitter(Jitter::Uniform { max: time::us(10) }),
        );
        for _ in 0..1000 {
            assert!(inj.xmit(0, 1).jitter <= time::us(10));
        }
        let exp = FaultInjector::new(FaultPlan::new(5).jitter(Jitter::Exp {
            mean: time::us(5),
            cap: time::us(40),
        }));
        for _ in 0..1000 {
            assert!(exp.xmit(0, 1).jitter <= time::us(40));
        }
    }

    #[test]
    fn straggler_factors_compound() {
        let p = FaultPlan::new(0).straggler(2, 2.0).straggler(2, 1.5);
        assert_eq!(p.cpu_slowdown(2), 3.0);
        assert_eq!(p.cpu_slowdown(0), 1.0);
    }

    #[test]
    fn empty_window_is_never_open() {
        // from == until: the half-open interval [t, t) contains nothing.
        let p = FaultPlan::new(0).degraded_nic(0, time::us(10), time::us(10), 5.0);
        for t in [0, time::us(9), time::us(10), time::us(11)] {
            assert_eq!(p.nic_factor(0, t), 1.0);
        }
    }

    #[test]
    fn windows_are_per_node() {
        let p = FaultPlan::new(0)
            .degraded_nic(0, 0, time::ms(1), 2.0)
            .degraded_nic(1, 0, time::ms(1), 3.0);
        assert_eq!(p.nic_factor(0, time::us(1)), 2.0);
        assert_eq!(p.nic_factor(1, time::us(1)), 3.0);
        assert_eq!(p.nic_factor(2, time::us(1)), 1.0);
    }

    #[test]
    fn disjoint_windows_do_not_leak() {
        let p = FaultPlan::new(0)
            .degraded_nic(0, time::us(0), time::us(10), 2.0)
            .degraded_nic(0, time::us(20), time::us(30), 4.0);
        assert_eq!(p.nic_factor(0, time::us(5)), 2.0);
        assert_eq!(p.nic_factor(0, time::us(15)), 1.0); // gap
        assert_eq!(p.nic_factor(0, time::us(25)), 4.0);
    }

    /// Changing the loss probability must not shift the jitter stream:
    /// `xmit` always draws exactly two PRNG values, so unrelated fault
    /// parameters stay statistically independent and runs stay comparable
    /// across plan edits.
    #[test]
    fn loss_probability_does_not_shift_jitter_stream() {
        let j = Jitter::Uniform { max: time::us(20) };
        let lossless = FaultInjector::new(FaultPlan::new(77).jitter(j));
        let lossy = FaultInjector::new(FaultPlan::new(77).loss(0.9).jitter(j));
        for _ in 0..1000 {
            assert_eq!(lossless.xmit(0, 1).jitter, lossy.xmit(0, 1).jitter);
        }
    }

    /// Same for link overrides: adding an override on one link must not
    /// perturb the drop decisions observed on another.
    #[test]
    fn link_override_does_not_shift_other_links() {
        let base = FaultInjector::new(FaultPlan::new(5).loss(0.5));
        let with_override = FaultInjector::new(FaultPlan::new(5).loss(0.5).link_loss(8, 9, 1.0));
        for _ in 0..1000 {
            assert_eq!(base.xmit(0, 1).dropped, with_override.xmit(0, 1).dropped);
        }
    }

    #[test]
    fn exp_jitter_same_seed_is_deterministic() {
        let mk = || {
            FaultInjector::new(FaultPlan::new(13).jitter(Jitter::Exp {
                mean: time::us(4),
                cap: time::us(64),
            }))
        };
        let (a, b) = (mk(), mk());
        let mut nonzero = 0;
        for _ in 0..1000 {
            let (xa, xb) = (a.xmit(1, 0), b.xmit(1, 0));
            assert_eq!(xa, xb);
            nonzero += (xa.jitter > 0) as u32;
        }
        assert!(nonzero > 900, "exp jitter almost always positive, saw {nonzero}");
    }

    /// The perturbation counter advances exactly when a traversal is
    /// dropped or jittered — never on clean deliveries — and two same-seed
    /// injectors agree on it draw for draw.
    #[test]
    fn perturbation_counter_tracks_actual_faults() {
        let clean = FaultInjector::new(FaultPlan::new(3));
        for _ in 0..100 {
            clean.xmit(0, 1);
        }
        assert_eq!(clean.perturbations(), 0);

        let mk = || FaultInjector::new(FaultPlan::new(8).loss(0.3));
        let (a, b) = (mk(), mk());
        let mut manual = 0;
        for _ in 0..500 {
            let (xa, xb) = (a.xmit(0, 1), b.xmit(0, 1));
            assert_eq!(xa, xb);
            manual += xa.dropped as u64;
            assert_eq!(a.perturbations(), manual);
            assert_eq!(b.perturbations(), manual);
        }
        assert!(manual > 0, "0.3 loss over 500 draws must drop something");

        let jittery = FaultInjector::new(
            FaultPlan::new(8).jitter(Jitter::Uniform { max: time::us(10) }),
        );
        let mut touched = 0;
        for _ in 0..200 {
            touched += (jittery.xmit(1, 0).jitter > 0) as u64;
        }
        assert_eq!(jittery.perturbations(), touched);
    }

    #[test]
    fn is_identity_tracks_every_knob() {
        assert!(FaultPlan::new(9).is_identity());
        assert!(FaultPlan::new(9).loss(0.0).is_identity());
        assert!(FaultPlan::new(9).link_loss(0, 1, 0.0).is_identity());
        assert!(!FaultPlan::new(9).loss(0.1).is_identity());
        assert!(!FaultPlan::new(9).link_loss(0, 1, 0.2).is_identity());
        assert!(!FaultPlan::new(9)
            .jitter(Jitter::Uniform { max: time::ns(1) })
            .is_identity());
        assert!(!FaultPlan::new(9).degraded_nic(0, 0, 1, 1.5).is_identity());
        assert!(!FaultPlan::new(9).straggler(0, 2.0).is_identity());
    }
}
