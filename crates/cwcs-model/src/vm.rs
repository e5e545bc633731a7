//! Virtual machines and their per-VM states.
//!
//! A VM is the unit on which the context-switch actions operate (run, stop,
//! migrate, suspend, resume).  The scheduler reasons at the granularity of a
//! vjob (see [`crate::vjob`]), but the reconfiguration planner and the
//! drivers manipulate individual VMs.

use std::fmt;

use crate::resources::{CpuCapacity, MemoryMib, NetBandwidth, ResourceDemand};

/// Identifier of a virtual machine, unique across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// State of a VM (and, by aggregation, of a vjob) in the life cycle of
/// Figure 2 of the paper.
///
/// The pseudo-state *Ready* of the paper is the union of [`VmState::Waiting`]
/// and [`VmState::Sleeping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmState {
    /// Submitted but never run yet.
    Waiting,
    /// Running on a node.
    Running,
    /// Suspended to persistent storage; its memory image lives on some node.
    Sleeping,
    /// Stopped for good; its resources are released and it will never run
    /// again.
    Terminated,
}

impl VmState {
    /// True when the life-cycle of Figure 2 allows a transition from `self`
    /// to `to`.
    ///
    /// Allowed transitions:
    /// * Waiting → Running (run)
    /// * Running → Sleeping (suspend)
    /// * Sleeping → Running (resume)
    /// * Running → Terminated (stop)
    /// * any state → itself (no action; migration keeps the Running state)
    pub fn can_transition_to(self, to: VmState) -> bool {
        use VmState::*;
        match (self, to) {
            (a, b) if a == b => true,
            (Waiting, Running) => true,
            (Running, Sleeping) => true,
            (Sleeping, Running) => true,
            (Running, Terminated) => true,
            _ => false,
        }
    }

    /// All states, useful for exhaustive tests and generators.
    pub const ALL: [VmState; 4] = [
        VmState::Waiting,
        VmState::Running,
        VmState::Sleeping,
        VmState::Terminated,
    ];
}

impl fmt::Display for VmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmState::Waiting => "waiting",
            VmState::Running => "running",
            VmState::Sleeping => "sleeping",
            VmState::Terminated => "terminated",
        };
        f.write_str(s)
    }
}

/// A virtual machine: an identifier and its per-dimension demands.
///
/// A record is plain data — no field owns heap memory — so copying the
/// chunk of 256 records a copy-on-write write takes (see
/// [`crate::configuration`]) allocates the chunk and nothing per record, and
/// comparing two records reads no pointer.  Nothing in the pipeline reads a
/// per-VM name: pipelined actions are ordered by their node's name and the
/// VM id ([`VmId`] displays as `vm-<id>`).
///
/// The memory demand `Dm` drives the cost of migrations, suspends and
/// resumes (Table 1 of the paper).  The CPU demand `Dc` is a full processing
/// unit while the embedded application computes and (close to) zero when it
/// idles; the network demand `Dn` is the NIC bandwidth the application
/// currently pushes.  The monitoring service of `cwcs-sim` updates the CPU
/// and network demands over time.
///
/// The demands the VM was *created* with are kept as its **reservation**
/// ([`Vm::reserved`]): a waiting VM observably demands nothing (it is not
/// running yet), so packing it by observed demand overloads nodes for one
/// iteration once the application starts.  Every packer of `cwcs-core`
/// (its `packing_demand` rule) sizes a booting VM by [`Vm::reserved_demand`]
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vm {
    /// Unique identifier.
    pub id: VmId,
    /// Memory allocated to the VM, in MiB.  This is `Dm(vj)` in the paper.
    pub memory: MemoryMib,
    /// Current CPU demand, in hundredths of a processing unit.  This is
    /// `Dc(vj)` in the paper.
    pub cpu: CpuCapacity,
    /// Current network demand, in Mbit/s (`Dn`).  Zero unless the workload
    /// models the network dimension.
    pub net: NetBandwidth,
    /// The demand vector the VM was created with — what a boot is expected
    /// to consume once its application starts.
    pub reserved: ResourceDemand,
}

impl Vm {
    /// Build a VM with the given identifier, memory allocation and CPU
    /// demand (network demand zero).  The creation-time demands double as
    /// the VM's reservation.
    pub fn new(id: VmId, memory: MemoryMib, cpu: CpuCapacity) -> Self {
        Vm {
            id,
            memory,
            cpu,
            net: NetBandwidth::ZERO,
            reserved: ResourceDemand::new(cpu, memory),
        }
    }

    /// Set the network demand (and the network reservation, since the
    /// creation-time demand is the reservation).
    pub fn with_net(mut self, net: NetBandwidth) -> Self {
        self.net = net;
        self.reserved.net = net;
        self
    }

    /// The N-dimensional observed demand of this VM, used by viability
    /// checks.
    pub fn demand(&self) -> ResourceDemand {
        ResourceDemand::new(self.cpu, self.memory).with_net(self.net)
    }

    /// The demand a packer should budget for this VM when it boots: the
    /// component-wise maximum of the observed demand and the creation-time
    /// reservation.  For a VM whose observed demand never dropped below its
    /// reservation this equals [`Vm::demand`].
    pub fn reserved_demand(&self) -> ResourceDemand {
        self.demand().component_max(&self.reserved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(mem: u64, cpu: u32) -> Vm {
        Vm::new(VmId(1), MemoryMib::mib(mem), CpuCapacity::percent(cpu))
    }

    #[test]
    fn legal_transitions_follow_figure_2() {
        use VmState::*;
        assert!(Waiting.can_transition_to(Running));
        assert!(Running.can_transition_to(Sleeping));
        assert!(Sleeping.can_transition_to(Running));
        assert!(Running.can_transition_to(Terminated));
        // Self transitions (e.g. migration keeps Running) are allowed.
        for s in VmState::ALL {
            assert!(s.can_transition_to(s));
        }
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        use VmState::*;
        assert!(!Waiting.can_transition_to(Sleeping));
        assert!(!Waiting.can_transition_to(Terminated));
        assert!(!Sleeping.can_transition_to(Waiting));
        assert!(!Sleeping.can_transition_to(Terminated));
        assert!(!Terminated.can_transition_to(Running));
        assert!(!Terminated.can_transition_to(Waiting));
        assert!(!Terminated.can_transition_to(Sleeping));
        assert!(!Running.can_transition_to(Waiting));
    }

    #[test]
    fn vm_demand_combines_all_dimensions() {
        let v = vm(1024, 100);
        assert_eq!(v.demand().memory, MemoryMib::mib(1024));
        assert_eq!(v.demand().cpu, CpuCapacity::cores(1));
        assert_eq!(v.demand().net, NetBandwidth::ZERO);
        let v = v.with_net(NetBandwidth::mbps(200));
        assert_eq!(v.demand().net, NetBandwidth::mbps(200));
    }

    #[test]
    fn reservation_remembers_the_creation_demand() {
        let mut v = vm(1024, 100).with_net(NetBandwidth::mbps(200));
        // The monitor observes the VM idle (it has not booted yet): the
        // observed demand drops, the reservation does not.
        v.cpu = CpuCapacity::ZERO;
        v.net = NetBandwidth::ZERO;
        assert_eq!(v.demand().cpu, CpuCapacity::ZERO);
        assert_eq!(v.reserved_demand().cpu, CpuCapacity::cores(1));
        assert_eq!(v.reserved_demand().net, NetBandwidth::mbps(200));
        assert_eq!(v.reserved_demand().memory, MemoryMib::mib(1024));
        // A demand observed *above* the reservation wins.
        v.cpu = CpuCapacity::percent(150);
        assert_eq!(v.reserved_demand().cpu, CpuCapacity::percent(150));
    }

    #[test]
    fn vm_id_displays_with_prefix() {
        assert_eq!(VmId(9).to_string(), "vm-9");
    }
}
