//! Typed communication errors and the retransmission policy.
//!
//! When a [`crate::GasnetConfig`] installs a `FaultPlan`, wire traversals
//! can be dropped; the runtime's put/get paths retransmit with exponential
//! backoff until the [`RetryPolicy`] budget runs out, at which point the
//! fallible (`try_*`) primitives surface a [`CommError`] instead of
//! silently hanging. The blocking conveniences (`hupc-upc`'s `Upc`, and
//! `Gasnet::put`/`get`) panic with its `Display`.

use hupc_sim::{time, Time};
use hupc_topo::NodeId;

/// How the runtime retransmits dropped messages.
///
/// After attempt `n` fails (no ack before the timeout), the sender waits
/// `min(base_timeout × backoff^(n-1), max_backoff)` of virtual time and
/// retransmits; after `max_attempts` total attempts it gives up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Ack timeout after the first attempt.
    pub base_timeout: Time,
    /// Multiplicative backoff factor between attempts.
    pub backoff: u32,
    /// Ceiling on the per-attempt timeout.
    pub max_backoff: Time,
}

impl Default for RetryPolicy {
    /// Generous defaults tuned for the simulated GigE conduit: 8 attempts
    /// starting at 120 µs doubling to a 20 ms cap. At a few percent packet
    /// loss the chance of 8 consecutive drops is negligible (~1e-13 at 2%),
    /// so well-formed runs complete; a partitioned link still fails fast
    /// enough to produce a useful error.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_timeout: time::us(120),
            backoff: 2,
            max_backoff: time::ms(20),
        }
    }
}

impl RetryPolicy {
    /// Virtual time to wait after failed attempt number `attempt` (1-based).
    pub fn backoff_after(&self, attempt: u32) -> Time {
        let exp = attempt.saturating_sub(1).min(20);
        let t = self
            .base_timeout
            .saturating_mul(u64::from(self.backoff).saturating_pow(exp));
        t.min(self.max_backoff)
    }
}

/// A communication operation failed in a way the fault model allows the
/// application to observe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// Every transmission attempt of one message was dropped.
    RetriesExhausted {
        /// What kind of transfer this was ("put", "get", "memcpy", …).
        op: &'static str,
        /// Initiating UPC thread.
        src: usize,
        /// Peer UPC thread.
        dst: usize,
        src_node: NodeId,
        dst_node: NodeId,
        bytes: usize,
        attempts: u32,
    },
    /// A barrier did not release within the configured timeout — some
    /// thread never arrived (crashed, deadlocked, or partitioned away).
    BarrierTimeout { thread: usize, timeout: Time },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RetriesExhausted {
                op,
                src,
                dst,
                src_node,
                dst_node,
                bytes,
                attempts,
            } => write!(
                f,
                "{op} of {bytes} bytes from thread {src} (node {}) to thread {dst} \
                 (node {}) lost on all {attempts} attempts: retry budget exhausted",
                src_node.0, dst_node.0
            ),
            CommError::BarrierTimeout { thread, timeout } => write!(
                f,
                "barrier timeout: thread {thread} gave up after {} of virtual time \
                 (a peer never arrived)",
                time::format(*timeout)
            ),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_after(1), time::us(120));
        assert_eq!(p.backoff_after(2), time::us(240));
        assert_eq!(p.backoff_after(3), time::us(480));
        // eventually pinned at the cap
        assert_eq!(p.backoff_after(12), time::ms(20));
        assert_eq!(p.backoff_after(u32::MAX), time::ms(20));
    }

    #[test]
    fn display_mentions_the_essentials() {
        let e = CommError::RetriesExhausted {
            op: "put",
            src: 1,
            dst: 5,
            src_node: NodeId(0),
            dst_node: NodeId(2),
            bytes: 4096,
            attempts: 8,
        };
        let s = e.to_string();
        for needle in ["put", "4096", "thread 1", "thread 5", "8 attempts"] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
