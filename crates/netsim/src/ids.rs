//! Index newtypes for the network arenas.
//!
//! All simulator state lives in flat vectors; these wrappers keep host,
//! port, and flow indices from being mixed up at compile time while staying
//! `Copy` and four bytes wide.

/// Index of a node (host or switch) in the network arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The id of arena index `i`. Panics past `u32::MAX` instead of
    /// aliasing node 0.
    pub fn from_idx(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("a network holds at most 2^32 nodes (NodeId is u32)"))
    }
}

/// Index of a port within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u16);

impl PortNo {
    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The number of port `i` on its node. Panics past `u16::MAX` instead
    /// of aliasing port 0.
    pub fn from_idx(i: usize) -> PortNo {
        PortNo(u16::try_from(i).expect("a node holds at most 65,536 ports (PortNo is u16)"))
    }
}

/// Index of a flow in the network's flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The id of flow-table index `i`. Panics past `u32::MAX` instead of
    /// aliasing flow 0.
    pub fn from_idx(i: usize) -> FlowId {
        FlowId(u32::try_from(i).expect("a network holds at most 2^32 flows (FlowId is u32)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        assert_eq!(NodeId(7).idx(), 7);
        assert_eq!(PortNo(3).idx(), 3);
        assert_eq!(FlowId(11).idx(), 11);
        assert_eq!(NodeId::from_idx(7), NodeId(7));
        assert_eq!(PortNo::from_idx(65_535), PortNo(u16::MAX));
        assert_eq!(FlowId::from_idx(11), FlowId(11));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        // BTreeSet rather than HashSet: the default RandomState hasher is
        // banned workspace-wide (clippy.toml disallowed-types), and the
        // point here is only that ids implement Ord + Eq for use as
        // deterministic keys.
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(NodeId(1));
        assert!(s.contains(&NodeId(1)));
        assert!(NodeId(1) < NodeId(2));
    }
}
