//! `Machine`: topology arithmetic over a [`MachineSpec`].
//!
//! Identifiers are dense and hierarchical by construction: PU `p` lives in
//! core `p / smt_per_core`, core `c` lives in socket `c / cores_per_socket`,
//! and so on. SMT siblings are therefore *adjacent* PU numbers — the same
//! convention Linux' `hwloc` logical indexing uses on these platforms.

use crate::bitmask::AffinityMask;
use crate::ids::{CoreId, Level, NodeId, PuId, SocketId};
use crate::spec::MachineSpec;

/// A machine instance: spec plus topology queries.
#[derive(Clone, Debug)]
pub struct Machine {
    spec: MachineSpec,
}

impl Machine {
    pub fn new(spec: MachineSpec) -> Self {
        assert!(spec.nodes >= 1);
        assert!(spec.sockets_per_node >= 1);
        assert!(spec.cores_per_socket >= 1);
        assert!(spec.smt_per_core >= 1);
        Machine { spec }
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    // ----- containment ------------------------------------------------------

    /// Core containing `pu`.
    pub fn pu_core(&self, pu: PuId) -> CoreId {
        debug_assert!(pu.0 < self.spec.pus_total());
        CoreId(pu.0 / self.spec.smt_per_core)
    }

    /// Socket containing `pu`.
    pub fn pu_socket(&self, pu: PuId) -> SocketId {
        SocketId(self.pu_core(pu).0 / self.spec.cores_per_socket)
    }

    /// Node containing `pu`.
    pub fn pu_node(&self, pu: PuId) -> NodeId {
        NodeId(self.pu_socket(pu).0 / self.spec.sockets_per_node)
    }

    // ----- enumeration ------------------------------------------------------

    /// PUs of `core` (SMT siblings), in order.
    pub fn core_pus(&self, core: CoreId) -> impl Iterator<Item = PuId> {
        let s = self.spec.smt_per_core;
        (core.0 * s..(core.0 + 1) * s).map(PuId)
    }

    /// PUs of `socket`, in order.
    pub fn socket_pus(&self, socket: SocketId) -> impl Iterator<Item = PuId> {
        let s = self.spec.pus_per_socket();
        (socket.0 * s..(socket.0 + 1) * s).map(PuId)
    }

    /// PUs of `node`, in order.
    pub fn node_pus(&self, node: NodeId) -> impl Iterator<Item = PuId> {
        let s = self.spec.pus_per_node();
        (node.0 * s..(node.0 + 1) * s).map(PuId)
    }

    /// Cores of `node`, in order.
    pub fn node_cores(&self, node: NodeId) -> impl Iterator<Item = CoreId> {
        let s = self.spec.cores_per_node();
        (node.0 * s..(node.0 + 1) * s).map(CoreId)
    }

    /// Sockets of `node`, in order.
    pub fn node_sockets(&self, node: NodeId) -> impl Iterator<Item = SocketId> {
        let s = self.spec.sockets_per_node;
        (node.0 * s..(node.0 + 1) * s).map(SocketId)
    }

    /// Affinity mask of a whole socket.
    pub fn socket_mask(&self, socket: SocketId) -> AffinityMask {
        AffinityMask::from_pus(self.spec.pus_total(), self.socket_pus(socket))
    }

    /// Affinity mask of a whole node.
    pub fn node_mask(&self, node: NodeId) -> AffinityMask {
        AffinityMask::from_pus(self.spec.pus_total(), self.node_pus(node))
    }

    // ----- distance ---------------------------------------------------------

    /// Proximity of two PUs (§3.2.1's layout query).
    pub fn distance(&self, a: PuId, b: PuId) -> Level {
        if self.pu_core(a) == self.pu_core(b) {
            Level::SameCore
        } else if self.pu_socket(a) == self.pu_socket(b) {
            Level::SameSocket
        } else if self.pu_node(a) == self.pu_node(b) {
            Level::SameNode
        } else {
            Level::Remote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lehman() -> Machine {
        Machine::new(MachineSpec::lehman())
    }

    #[test]
    fn containment_arithmetic() {
        let m = lehman(); // 2 SMT/core, 4 cores/socket, 2 sockets/node
        // PU 0 and 1 are SMT siblings on core 0
        assert_eq!(m.pu_core(PuId(0)), CoreId(0));
        assert_eq!(m.pu_core(PuId(1)), CoreId(0));
        assert_eq!(m.pu_core(PuId(2)), CoreId(1));
        // Socket 0 holds cores 0..4 (PUs 0..8)
        assert_eq!(m.pu_socket(PuId(7)), SocketId(0));
        assert_eq!(m.pu_socket(PuId(8)), SocketId(1));
        // Node 0 holds PUs 0..16
        assert_eq!(m.pu_node(PuId(15)), NodeId(0));
        assert_eq!(m.pu_node(PuId(16)), NodeId(1));
    }

    #[test]
    fn enumeration_counts() {
        let m = lehman();
        assert_eq!(m.core_pus(CoreId(3)).count(), 2);
        assert_eq!(m.socket_pus(SocketId(0)).count(), 8);
        assert_eq!(m.node_pus(NodeId(1)).count(), 16);
        assert_eq!(m.node_cores(NodeId(0)).count(), 8);
        assert_eq!(m.node_sockets(NodeId(0)).count(), 2);
        let pus: Vec<_> = m.node_pus(NodeId(1)).collect();
        assert_eq!(pus[0], PuId(16));
        assert_eq!(pus[15], PuId(31));
    }

    #[test]
    fn distance_levels() {
        let m = lehman();
        assert_eq!(m.distance(PuId(0), PuId(1)), Level::SameCore);
        assert_eq!(m.distance(PuId(0), PuId(2)), Level::SameSocket);
        assert_eq!(m.distance(PuId(0), PuId(8)), Level::SameNode);
        assert_eq!(m.distance(PuId(0), PuId(16)), Level::Remote);
        assert_eq!(m.distance(PuId(17), PuId(16)), Level::SameCore);
    }

    #[test]
    fn masks_cover_their_level() {
        let m = lehman();
        let sm = m.socket_mask(SocketId(1));
        assert_eq!(sm.count(), 8);
        assert!(sm.contains(PuId(8)));
        assert!(!sm.contains(PuId(7)));
        let nm = m.node_mask(NodeId(0));
        assert_eq!(nm.count(), 16);
    }

    #[test]
    fn no_smt_machine() {
        let m = Machine::new(MachineSpec::pyramid());
        assert_eq!(m.pu_core(PuId(5)), CoreId(5));
        assert_eq!(m.distance(PuId(0), PuId(1)), Level::SameSocket);
    }
}
