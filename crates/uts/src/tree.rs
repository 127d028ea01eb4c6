//! UTS tree definition: node descriptors and deterministic child generation.
//!
//! Two shapes from the UTS suite:
//!
//! * **Binomial** — the root has `b0` children; every other node has `m`
//!   children with probability `q` and none otherwise (`m·q < 1` keeps the
//!   tree finite). This is the highly unbalanced shape the thesis' Fig 3.3
//!   and Table 3.2 use (≈4.1 million nodes).
//! * **Geometric** — branching factor drawn geometrically, bounded depth.

use crate::sha1::{sha1, sha1_children, unit_interval, Digest};

/// Tree shape parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeParams {
    Binomial {
        /// Root branching factor.
        b0: u32,
        /// Non-root branching factor.
        m: u32,
        /// Probability a non-root node has children.
        q: f64,
        /// Root seed.
        seed: u32,
    },
    Geometric {
        /// Expected branching factor at the root.
        b0: f64,
        /// Maximum depth.
        depth: u32,
        /// Root seed.
        seed: u32,
    },
}

impl TreeParams {
    /// The thesis' Fig 3.3 / Table 3.2 tree: a binomial tree of ≈4.1 million
    /// nodes ("The binomial tree used in our tests has total 4.1 million
    /// nodes"). Seed 34 yields 4,065,321 nodes at depth 1308.
    pub fn thesis_binomial() -> TreeParams {
        TreeParams::Binomial {
            b0: 2000,
            m: 8,
            q: 0.124875,
            seed: 34,
        }
    }

    /// A small binomial tree (thousands of nodes) for tests.
    pub fn small_binomial(seed: u32) -> TreeParams {
        TreeParams::Binomial {
            b0: 60,
            m: 4,
            q: 0.23,
            seed,
        }
    }

    /// A small geometric tree for tests.
    pub fn small_geometric(seed: u32) -> TreeParams {
        TreeParams::Geometric {
            b0: 3.0,
            depth: 8,
            seed,
        }
    }

    /// The root node.
    pub fn root(&self) -> Node {
        let seed = match self {
            TreeParams::Binomial { seed, .. } | TreeParams::Geometric { seed, .. } => *seed,
        };
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(b"UTS\0");
        buf[4..].copy_from_slice(&seed.to_be_bytes());
        Node {
            digest: sha1(&buf),
            depth: 0,
        }
    }

    /// Number of children of `node`.
    pub fn num_children(&self, node: &Node) -> u32 {
        match self {
            TreeParams::Binomial { b0, m, q, .. } => {
                if node.depth == 0 {
                    *b0
                } else if unit_interval(&node.digest) < *q {
                    *m
                } else {
                    0
                }
            }
            TreeParams::Geometric { b0, depth, .. } => {
                if node.depth >= *depth {
                    return 0;
                }
                // Branching factor shrinks linearly with depth (UTS "linear"
                // geometric shape).
                let b_i = b0 * (1.0 - node.depth as f64 / *depth as f64);
                let u = unit_interval(&node.digest);
                // Geometric sample with mean b_i (p = 1/(1+b_i)).
                let p = 1.0 / (1.0 + b_i.max(0.0));
                (u.ln() / (1.0 - p).ln()).floor() as u32
            }
        }
    }

    /// Hand the children of `node` to `push` in index order; returns how
    /// many there were. Interior expansion runs the batched hasher (one
    /// message template + round prefix per parent instead of a full `sha1`
    /// per child); a leaf returns before building one.
    pub fn expand(&self, node: &Node, mut push: impl FnMut(Node)) -> u32 {
        let n = self.num_children(node);
        if n > 0 {
            let depth = node.depth + 1;
            sha1_children(&node.digest, 0..n, |_, digest| push(Node { digest, depth }));
        }
        n
    }
}

/// A tree node descriptor: 20-byte SHA-1 state plus depth. Packs into 3
/// PGAS words for steal-stack storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    pub digest: Digest,
    pub depth: u32,
}

impl Node {
    /// Words a node occupies in shared memory.
    pub const WORDS: usize = 3;

    pub fn to_words(&self) -> [u64; 3] {
        let d = &self.digest;
        let w0 = u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
        let w1 = u64::from_be_bytes([d[8], d[9], d[10], d[11], d[12], d[13], d[14], d[15]]);
        let w2 = (u64::from(u32::from_be_bytes([d[16], d[17], d[18], d[19]])) << 32)
            | u64::from(self.depth);
        [w0, w1, w2]
    }

    pub fn from_words(w: &[u64]) -> Node {
        let mut digest = [0u8; 20];
        digest[..8].copy_from_slice(&w[0].to_be_bytes());
        digest[8..16].copy_from_slice(&w[1].to_be_bytes());
        digest[16..20].copy_from_slice(&(((w[2] >> 32) as u32).to_be_bytes()));
        Node {
            digest,
            depth: w[2] as u32,
        }
    }
}

/// Sequential traversal: `(total_nodes, max_depth, leaves)`. The reference
/// every parallel run must agree with.
pub fn sequential_traverse(params: &TreeParams) -> (u64, u32, u64) {
    let mut stack = vec![params.root()];
    let mut total = 0u64;
    let mut max_depth = 0u32;
    let mut leaves = 0u64;
    while let Some(node) = stack.pop() {
        total += 1;
        max_depth = max_depth.max(node.depth);
        if params.expand(&node, |kid| stack.push(kid)) == 0 {
            leaves += 1;
        }
    }
    (total, max_depth, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1_child;

    #[test]
    fn node_word_round_trip() {
        let p = TreeParams::small_binomial(7);
        let mut kids = Vec::new();
        p.expand(&p.root(), |k| kids.push(k));
        for n in &kids {
            let w = n.to_words();
            assert_eq!(Node::from_words(&w), *n);
        }
    }

    #[test]
    fn expand_emits_children_in_index_order() {
        for p in [TreeParams::small_binomial(5), TreeParams::small_geometric(11)] {
            let (mut leaves, mut interiors) = (0, 0);
            let mut stack = vec![p.root()];
            while let Some(node) = stack.pop() {
                let mut kids = Vec::new();
                let n = p.expand(&node, |k| kids.push(k));
                assert_eq!(n, p.num_children(&node));
                assert_eq!(kids.len(), n as usize, "a leaf must emit nothing");
                for (i, kid) in kids.iter().enumerate() {
                    assert_eq!(kid.digest, sha1_child(&node.digest, i as u32));
                    assert_eq!(kid.depth, node.depth + 1);
                }
                if n == 0 {
                    leaves += 1;
                } else {
                    interiors += 1;
                }
                stack.extend(kids);
            }
            assert!(leaves > 0 && interiors > 1, "{p:?}: {leaves} leaves, {interiors} interiors");
        }
    }

    /// The thesis tree (Fig 3.3 / Table 3.2: "total 4.1 million nodes"),
    /// pinned whole: node count, depth and leaves. About 0.3 s in release.
    #[test]
    #[ignore = "paper-scale tree; run in release with --include-ignored"]
    fn thesis_tree_shape_is_pinned() {
        assert_eq!(
            sequential_traverse(&TreeParams::thesis_binomial()),
            (4_065_321, 1308, 3_557_405)
        );
    }

    #[test]
    fn sequential_traverse_is_deterministic() {
        let p = TreeParams::small_binomial(3);
        let a = sequential_traverse(&p);
        let b = sequential_traverse(&p);
        assert_eq!(a, b);
        assert!(a.0 > 60, "tree should exceed the root fanout, got {}", a.0);
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let a = sequential_traverse(&TreeParams::small_binomial(1));
        let b = sequential_traverse(&TreeParams::small_binomial(2));
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn binomial_root_has_b0_children() {
        let p = TreeParams::small_binomial(5);
        let root = p.root();
        assert_eq!(p.num_children(&root), 60);
    }

    #[test]
    fn geometric_tree_respects_depth_bound() {
        let p = TreeParams::small_geometric(11);
        let (total, depth, leaves) = sequential_traverse(&p);
        assert!(depth <= 8);
        assert!(total >= 1);
        assert!(leaves >= 1);
    }

    #[test]
    fn leaves_plus_internals_account_for_all() {
        let p = TreeParams::small_binomial(9);
        let (total, _, leaves) = sequential_traverse(&p);
        // binomial: every internal non-root node has exactly m children
        assert!(leaves < total);
        assert!(leaves > total / 2); // q < 1/2 ⇒ most nodes are leaves
    }
}
