//! Topology-aware shard placement: key → partition → owner thread.
//!
//! The keyspace is split into `partitions_per_thread × THREADS` equal
//! partitions of `keys_per_partition` consecutive keys. A partition is
//! scattered to an owner by an affine permutation (so adjacent partitions
//! land on different owners — no hot range maps to one thread) composed
//! with a topology-sorted thread table: threads ordered by
//! (node, processing unit), i.e. the node→socket→core hierarchy under the
//! runtime's packed binding. Both sides of the wire can evaluate the map
//! locally — routing a request costs arithmetic, not metadata traffic —
//! and every thread owns exactly `partitions_per_thread` partitions, so
//! placement is balanced by construction.

use hupc_gasnet::Gasnet;

/// Immutable key→owner map shared by all frontends and owners.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Thread ids sorted by (node, pu): the hierarchy order.
    order: Vec<usize>,
    /// Affine multiplier, coprime with `partitions`.
    a: u64,
    /// Affine offset.
    c: u64,
    pub partitions: u64,
    pub keys_per_partition: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl ShardMap {
    fn build(order: Vec<usize>, partitions_per_thread: usize, keys_per_partition: usize) -> Self {
        let n = order.len();
        assert!(n > 0 && partitions_per_thread > 0 && keys_per_partition > 0);
        let partitions = (partitions_per_thread * n) as u64;
        // Smallest odd multiplier ≥ golden-ratio-ish constant mod partitions
        // that is coprime with the partition count: a fixed, deterministic
        // choice with no runtime randomness.
        let mut a = 0x9E37u64 % partitions;
        if a == 0 {
            a = 1;
        }
        while gcd(a, partitions) != 1 {
            a += 1;
        }
        ShardMap {
            order,
            a,
            c: 0x5bd1,
            partitions,
            keys_per_partition: keys_per_partition as u64,
        }
    }

    /// Placement from a live runtime: thread table sorted by
    /// (node, processing unit, thread id) — the machine hierarchy.
    pub fn from_gasnet(g: &Gasnet, partitions_per_thread: usize, keys_per_partition: usize) -> Self {
        let mut order: Vec<usize> = (0..g.n_threads()).collect();
        order.sort_by_key(|&t| (g.thread_node(t), g.thread_pu(t), t));
        Self::build(order, partitions_per_thread, keys_per_partition)
    }

    /// Placement with the identity thread order (model mode and unit tests,
    /// where there is no gasnet instance).
    pub fn flat(n_threads: usize, partitions_per_thread: usize, keys_per_partition: usize) -> Self {
        Self::build((0..n_threads).collect(), partitions_per_thread, keys_per_partition)
    }

    pub fn n_threads(&self) -> usize {
        self.order.len()
    }

    pub fn n_keys(&self) -> u64 {
        self.partitions * self.keys_per_partition
    }

    pub fn partition_of(&self, key: u64) -> u64 {
        debug_assert!(key < self.n_keys());
        key / self.keys_per_partition
    }

    /// Permuted slot of a partition: `(a·p + c) mod partitions`, a bijection
    /// because `gcd(a, partitions) == 1`.
    fn slot(&self, p: u64) -> u64 {
        (self.a.wrapping_mul(p).wrapping_add(self.c)) % self.partitions
    }

    /// Owner thread of a partition.
    pub fn owner_of_partition(&self, p: u64) -> usize {
        self.order[(self.slot(p) as usize) % self.order.len()]
    }

    /// Owner thread of a key.
    pub fn owner_of(&self, key: u64) -> usize {
        self.owner_of_partition(self.partition_of(key))
    }

    /// Index of `key` within its owner's local store, in
    /// `0..partitions_per_thread × keys_per_partition`. Both the frontend
    /// (to compute the remote segment offset for a one-sided GET) and the
    /// owner (to apply a PUT) evaluate this identically.
    pub fn local_index(&self, key: u64) -> usize {
        let p = self.partition_of(key);
        let local_partition = (self.slot(p) as usize) / self.order.len();
        local_partition * self.keys_per_partition as usize
            + (key % self.keys_per_partition) as usize
    }

    /// Keys owned per thread (store size).
    pub fn keys_per_thread(&self) -> usize {
        (self.partitions as usize / self.order.len()) * self.keys_per_partition as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_balanced_and_local_indices_are_a_bijection() {
        for threads in [1, 3, 4, 8] {
            let s = ShardMap::flat(threads, 3, 8);
            let mut per_owner = vec![0usize; threads];
            let mut seen = vec![vec![false; s.keys_per_thread()]; threads];
            for p in 0..s.partitions {
                per_owner[s.owner_of_partition(p)] += 1;
            }
            assert!(per_owner.iter().all(|&c| c == 3), "{per_owner:?}");
            for key in 0..s.n_keys() {
                let o = s.owner_of(key);
                let li = s.local_index(key);
                assert!(!seen[o][li], "key {key} collides at owner {o} slot {li}");
                seen[o][li] = true;
            }
            // Every local slot of every owner is hit exactly once.
            assert!(seen.iter().all(|v| v.iter().all(|&b| b)));
        }
    }

    #[test]
    fn adjacent_partitions_scatter() {
        let s = ShardMap::flat(8, 4, 16);
        let mut same = 0;
        for p in 0..s.partitions - 1 {
            if s.owner_of_partition(p) == s.owner_of_partition(p + 1) {
                same += 1;
            }
        }
        // An affine scatter with a ≢ 0 mod THREADS keeps neighbors apart
        // almost always; identity placement would make this partitions-1.
        assert!(same < s.partitions / 4, "{same} adjacent collisions");
    }
}
