//! Cluster nodes (working nodes that host VMs).
//!
//! The evaluation of the paper uses homogeneous nodes (2.1 GHz Core 2 Duo,
//! 4 GB RAM for the real cluster; 2 CPUs / 4 GB for the generated 200-node
//! configurations), but nothing in the model requires homogeneity.

use std::fmt;

use crate::resources::{CpuCapacity, MemoryMib, NetBandwidth, ResourceDemand};

/// Identifier of a working node, unique across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A working node: a name and per-dimension capacities.
///
/// The CPU and memory capacities are the quantities the paper calls `Cc(ni)`
/// (processing units) and `Cm(ni)` (memory) for a node `ni`; the network
/// capacity (`Cn`) is the usable NIC bandwidth, zero by default so that the
/// paper's 2-dimensional scenarios are unaffected (every VM demands zero
/// bandwidth there too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Unique identifier.
    pub id: NodeId,
    /// Host name, used to order pipelined actions deterministically.
    pub name: String,
    /// CPU capacity (`Cc`).
    pub cpu: CpuCapacity,
    /// Memory capacity (`Cm`).  The paper subtracts the Domain-0 allocation
    /// (512 MiB) before exposing the capacity; generators in `cwcs-workload`
    /// do the same.
    pub memory: MemoryMib,
    /// NIC bandwidth capacity (`Cn`).  Zero unless the scenario models the
    /// network dimension.
    pub net: NetBandwidth,
}

impl Node {
    /// Build a node with the given identifier and legacy (CPU, memory)
    /// capacities; the NIC capacity is zero.  The name defaults to
    /// `node-<id>`.
    pub fn new(id: NodeId, cpu: CpuCapacity, memory: MemoryMib) -> Self {
        Node {
            id,
            name: format!("node-{}", id.0),
            cpu,
            memory,
            net: NetBandwidth::ZERO,
        }
    }

    /// Set the NIC bandwidth capacity.
    pub fn with_net(mut self, net: NetBandwidth) -> Self {
        self.net = net;
        self
    }

    /// The node capacity as an N-dimensional resource vector.
    pub fn capacity(&self) -> ResourceDemand {
        ResourceDemand::new(self.cpu, self.memory).with_net(self.net)
    }

    /// The homogeneous node of the paper's real cluster once the Domain-0
    /// allocation (512 MiB) has been removed: 2 processing units and
    /// 3.5 GiB of usable memory.
    pub fn paper_cluster_node(id: NodeId) -> Self {
        Node::new(id, CpuCapacity::cores(2), MemoryMib::mib(4096 - 512))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_capacity_vector() {
        let n = Node::new(NodeId(0), CpuCapacity::cores(2), MemoryMib::gib(4));
        assert_eq!(n.capacity().cpu, CpuCapacity::cores(2));
        assert_eq!(n.capacity().memory, MemoryMib::gib(4));
        assert_eq!(n.capacity().net, NetBandwidth::ZERO);
    }

    #[test]
    fn node_net_capacity_flows_into_the_vector() {
        let n = Node::new(NodeId(0), CpuCapacity::cores(2), MemoryMib::gib(4))
            .with_net(NetBandwidth::gbps(1));
        assert_eq!(n.capacity().net, NetBandwidth::mbps(1000));
    }

    #[test]
    fn paper_nodes_match_the_evaluation_setup() {
        let real = Node::paper_cluster_node(NodeId(2));
        assert_eq!(real.cpu, CpuCapacity::cores(2));
        assert_eq!(real.memory, MemoryMib::mib(3584));
    }

    #[test]
    fn node_name_defaults_and_overrides() {
        let n = Node::new(NodeId(3), CpuCapacity::cores(1), MemoryMib::gib(1));
        assert_eq!(n.name, "node-3");
    }

    #[test]
    fn node_id_displays_with_prefix() {
        assert_eq!(NodeId(17).to_string(), "node-17");
    }
}
