//! Cluster configurations: which VM is in which state on which node.
//!
//! A configuration is the paper's mapping of VMs to nodes plus the state of
//! every VM.  It is **viable** when every node has enough CPU and memory for
//! the running VMs it hosts (Section 3.2, the 2-dimensional bin-packing
//! condition).  The decision module produces a target configuration; the
//! reconfiguration planner of `cwcs-plan` turns the difference between the
//! current and the target configuration into a plan of actions whose every
//! intermediate configuration is also viable.
//!
//! Sleeping VMs additionally record the node holding their suspended memory
//! image: the cost model of Table 1 charges a resume twice as much when the
//! image has to be fetched from a different node (remote resume).

use std::collections::BTreeMap;

use crate::error::ModelError;
use crate::node::{Node, NodeId};
use crate::resources::{ResourceDemand, ResourceUsage};
use crate::vm::{Vm, VmId, VmState};
use crate::Result;

/// Where a VM is and in which state, inside one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmAssignment {
    /// Life-cycle state of the VM.
    pub state: VmState,
    /// Hosting node when the VM is running, `None` otherwise.
    pub host: Option<NodeId>,
    /// Node holding the suspended memory image when the VM is sleeping,
    /// `None` otherwise.  Resuming on this node is a *local* resume.
    pub image: Option<NodeId>,
}

impl VmAssignment {
    /// A waiting VM (never run, no host, no image).
    pub fn waiting() -> Self {
        VmAssignment {
            state: VmState::Waiting,
            host: None,
            image: None,
        }
    }

    /// A VM running on `host`.
    pub fn running(host: NodeId) -> Self {
        VmAssignment {
            state: VmState::Running,
            host: Some(host),
            image: None,
        }
    }

    /// A VM suspended with its memory image stored on `image`.
    pub fn sleeping(image: NodeId) -> Self {
        VmAssignment {
            state: VmState::Sleeping,
            host: None,
            image: Some(image),
        }
    }

    /// A terminated VM.
    pub fn terminated() -> Self {
        VmAssignment {
            state: VmState::Terminated,
            host: None,
            image: None,
        }
    }

    /// Check the internal consistency of the assignment: running VMs have a
    /// host and no image, sleeping VMs have an image and no host, the other
    /// states have neither.
    pub fn is_consistent(&self) -> bool {
        match self.state {
            VmState::Running => self.host.is_some() && self.image.is_none(),
            VmState::Sleeping => self.host.is_none() && self.image.is_some(),
            VmState::Waiting | VmState::Terminated => self.host.is_none() && self.image.is_none(),
        }
    }
}

/// A full cluster configuration: the inventory of nodes and VMs, and an
/// assignment for every VM.
///
/// Nodes and VMs are stored in `BTreeMap`s so that iteration order — and
/// therefore everything derived from it (FFD packing, plan construction,
/// generated identifiers) — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    nodes: BTreeMap<NodeId, Node>,
    vms: BTreeMap<VmId, Vm>,
    assignments: BTreeMap<VmId, VmAssignment>,
}

impl Default for Configuration {
    fn default() -> Self {
        Self::new()
    }
}

impl Configuration {
    /// An empty configuration with no node and no VM.
    pub fn new() -> Self {
        Configuration {
            nodes: BTreeMap::new(),
            vms: BTreeMap::new(),
            assignments: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Inventory management
    // ------------------------------------------------------------------

    /// Register a node.
    pub fn add_node(&mut self, node: Node) -> Result<()> {
        if self.nodes.contains_key(&node.id) {
            return Err(ModelError::DuplicateNode(node.id));
        }
        self.nodes.insert(node.id, node);
        Ok(())
    }

    /// Register a VM in the Waiting state.
    pub fn add_vm(&mut self, vm: Vm) -> Result<()> {
        if self.vms.contains_key(&vm.id) {
            return Err(ModelError::DuplicateVm(vm.id));
        }
        self.assignments.insert(vm.id, VmAssignment::waiting());
        self.vms.insert(vm.id, vm);
        Ok(())
    }

    /// Remove a VM from the configuration entirely (used once a vjob is
    /// terminated and garbage-collected).
    pub fn remove_vm(&mut self, vm: VmId) -> Result<Vm> {
        self.assignments.remove(&vm);
        self.vms.remove(&vm).ok_or(ModelError::UnknownVm(vm))
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(&id).ok_or(ModelError::UnknownNode(id))
    }

    /// Access a VM by id.
    pub fn vm(&self, id: VmId) -> Result<&Vm> {
        self.vms.get(&id).ok_or(ModelError::UnknownVm(id))
    }

    /// Mutable access to a VM (the monitoring service updates CPU demands).
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm> {
        self.vms.get_mut(&id).ok_or(ModelError::UnknownVm(id))
    }

    /// Mutable access to a node.  Scenario drivers use this to degrade a
    /// node's capacity mid-run (a partial hardware failure): the node keeps
    /// hosting its VMs, but a capacity below their demand makes the
    /// configuration non-viable and the next repair pass evacuates it.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        self.nodes.get_mut(&id).ok_or(ModelError::UnknownNode(id))
    }

    /// Iterate over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Iterate over all VMs in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of VMs (whatever their state).
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// All node ids in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// All VM ids in order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Assignments
    // ------------------------------------------------------------------

    /// Current assignment of a VM.
    pub fn assignment(&self, vm: VmId) -> Result<VmAssignment> {
        self.assignments
            .get(&vm)
            .copied()
            .ok_or(ModelError::UnknownVm(vm))
    }

    /// Current state of a VM.
    pub fn state(&self, vm: VmId) -> Result<VmState> {
        Ok(self.assignment(vm)?.state)
    }

    /// Current host of a VM, if it is running.
    pub fn host(&self, vm: VmId) -> Result<Option<NodeId>> {
        Ok(self.assignment(vm)?.host)
    }

    /// Node holding the suspended image of a VM, if it is sleeping.
    pub fn image_location(&self, vm: VmId) -> Result<Option<NodeId>> {
        Ok(self.assignment(vm)?.image)
    }

    /// Overwrite the assignment of a VM without life-cycle checking.  This is
    /// the low-level primitive used by builders and by the planner when it
    /// constructs intermediate configurations; it still validates that the
    /// referenced node exists and that the assignment is internally
    /// consistent.
    pub fn set_assignment(&mut self, vm: VmId, assignment: VmAssignment) -> Result<()> {
        if !self.vms.contains_key(&vm) {
            return Err(ModelError::UnknownVm(vm));
        }
        if !assignment.is_consistent() {
            return Err(ModelError::InconsistentAssignment(vm));
        }
        if let Some(host) = assignment.host {
            if !self.nodes.contains_key(&host) {
                return Err(ModelError::UnknownNode(host));
            }
        }
        if let Some(image) = assignment.image {
            if !self.nodes.contains_key(&image) {
                return Err(ModelError::UnknownNode(image));
            }
        }
        self.assignments.insert(vm, assignment);
        Ok(())
    }

    /// Apply a life-cycle transition to a VM, checking it against Figure 2.
    ///
    /// * `run`:     Waiting → Running on `host`
    /// * `suspend`: Running → Sleeping, image stored on the current host
    /// * `resume`:  Sleeping → Running on `host`
    /// * `stop`:    Running → Terminated
    /// * `migrate`: Running → Running on a different host
    pub fn transition(&mut self, vm: VmId, target: VmAssignment) -> Result<()> {
        let current = self.assignment(vm)?;
        if !current.state.can_transition_to(target.state) {
            return Err(ModelError::IllegalTransition {
                vm,
                from: current.state,
                to: target.state,
            });
        }
        self.set_assignment(vm, target)
    }

    // ------------------------------------------------------------------
    // Resource accounting and viability
    // ------------------------------------------------------------------

    /// VMs currently running on `node`, in id order.
    pub fn vms_on(&self, node: NodeId) -> Vec<VmId> {
        self.assignments
            .iter()
            .filter(|(_, a)| a.state == VmState::Running && a.host == Some(node))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Sleeping VMs whose image is stored on `node`, in id order.
    pub fn images_on(&self, node: NodeId) -> Vec<VmId> {
        self.assignments
            .iter()
            .filter(|(_, a)| a.state == VmState::Sleeping && a.image == Some(node))
            .map(|(id, _)| *id)
            .collect()
    }

    /// All VMs currently in the given state, in id order.
    pub fn vms_in_state(&self, state: VmState) -> Vec<VmId> {
        self.assignments
            .iter()
            .filter(|(_, a)| a.state == state)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Resource usage of one node: capacity and total demand of the running
    /// VMs it hosts.
    pub fn usage(&self, node: NodeId) -> Result<ResourceUsage> {
        let n = self.node(node)?;
        let mut usage = ResourceUsage::empty(n.capacity());
        for vm_id in self.vms_on(node) {
            let vm = self.vm(vm_id)?;
            usage.add(&vm.demand());
        }
        Ok(usage)
    }

    /// Resource usage of every node, in node id order.
    ///
    /// One pass over the assignments — O(VMs · log nodes), where calling
    /// [`Configuration::usage`] per node is O(nodes · VMs).  The assignments
    /// are visited in VM id order, so every node sums its VMs in the order
    /// `usage(node)` does.
    pub fn usages(&self) -> Vec<(NodeId, ResourceUsage)> {
        let mut usages: Vec<(NodeId, ResourceUsage)> = self
            .nodes
            .values()
            .map(|n| (n.id, ResourceUsage::empty(n.capacity())))
            .collect();
        // `vms` and `assignments` hold the same keys (every method inserts
        // or removes both), so the VM records are walked alongside the
        // assignments instead of being looked up one by one.
        let mut records = self.vms.values();
        for (vm, assignment) in &self.assignments {
            let record = match records.next() {
                Some(record) if record.id == *vm => record,
                _ => &self.vms[vm],
            };
            let (VmState::Running, Some(host)) = (assignment.state, assignment.host) else {
                continue;
            };
            if let Ok(slot) = usages.binary_search_by_key(&host, |&(node, _)| node) {
                usages[slot].1.add(&record.demand());
            }
        }
        usages
    }

    /// Free resources remaining on a node.
    pub fn free(&self, node: NodeId) -> Result<ResourceDemand> {
        Ok(self.usage(node)?.free())
    }

    /// True when placing `demand` on `node` keeps the node within capacity.
    pub fn can_host(&self, node: NodeId, demand: &ResourceDemand) -> Result<bool> {
        Ok(self.usage(node)?.can_host(demand))
    }

    /// True when every node can satisfy the demands of the running VMs it
    /// hosts — the paper's *viable configuration* condition.
    pub fn is_viable(&self) -> bool {
        self.viability_violations().is_empty()
    }

    /// Nodes whose capacity is exceeded, with their usage.  Empty iff the
    /// configuration is viable.
    pub fn viability_violations(&self) -> Vec<(NodeId, ResourceUsage)> {
        self.usages()
            .into_iter()
            .filter(|(_, usage)| !usage.is_within_capacity())
            .collect()
    }

    /// Check that every assignment is internally consistent and references
    /// known nodes.  Builders and deserialized configurations should be
    /// validated with this before use.
    pub fn validate(&self) -> Result<()> {
        for (vm, assignment) in &self.assignments {
            if !self.vms.contains_key(vm) {
                return Err(ModelError::UnknownVm(*vm));
            }
            if !assignment.is_consistent() {
                return Err(ModelError::InconsistentAssignment(*vm));
            }
            for node in [assignment.host, assignment.image].into_iter().flatten() {
                if !self.nodes.contains_key(&node) {
                    return Err(ModelError::UnknownNode(node));
                }
            }
        }
        for vm in self.vms.keys() {
            if !self.assignments.contains_key(vm) {
                return Err(ModelError::Invariant(format!("{vm} has no assignment")));
            }
        }
        Ok(())
    }

    /// Total demand of all running VMs (used by utilization reports).
    pub fn total_running_demand(&self) -> ResourceDemand {
        self.assignments
            .iter()
            .filter(|(_, a)| a.state == VmState::Running)
            .map(|(vm, _)| self.vms[vm].demand())
            .sum()
    }

    /// Total capacity of all nodes.
    pub fn total_capacity(&self) -> ResourceDemand {
        self.nodes.values().map(|n| n.capacity()).sum()
    }

    // ------------------------------------------------------------------
    // Differences
    // ------------------------------------------------------------------

    /// Compute the per-VM differences between `self` (the current
    /// configuration) and `target`.  Both configurations must describe the
    /// same set of VMs; VMs present only in `target` are reported as
    /// appearing, VMs present only in `self` as disappearing.
    pub fn delta(&self, target: &Configuration) -> Vec<ConfigurationDelta> {
        let mut deltas = Vec::new();
        for (vm, current) in &self.assignments {
            match target.assignments.get(vm) {
                Some(wanted) if wanted != current => deltas.push(ConfigurationDelta::Changed {
                    vm: *vm,
                    from: *current,
                    to: *wanted,
                }),
                Some(_) => {}
                None => deltas.push(ConfigurationDelta::Removed {
                    vm: *vm,
                    from: *current,
                }),
            }
        }
        for (vm, wanted) in &target.assignments {
            if !self.assignments.contains_key(vm) {
                deltas.push(ConfigurationDelta::Added {
                    vm: *vm,
                    to: *wanted,
                });
            }
        }
        deltas
    }
}

/// One per-VM difference between two configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigurationDelta {
    /// The VM exists in both configurations with different assignments.
    Changed {
        /// The VM whose assignment changed.
        vm: VmId,
        /// Assignment in the source configuration.
        from: VmAssignment,
        /// Assignment in the target configuration.
        to: VmAssignment,
    },
    /// The VM only exists in the target configuration.
    Added {
        /// The new VM.
        vm: VmId,
        /// Its assignment in the target configuration.
        to: VmAssignment,
    },
    /// The VM only exists in the source configuration.
    Removed {
        /// The removed VM.
        vm: VmId,
        /// Its assignment in the source configuration.
        from: VmAssignment,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{CpuCapacity, MemoryMib};

    fn small_cluster() -> Configuration {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(3),
            ))
            .unwrap();
        }
        for i in 0..3 {
            c.add_vm(Vm::new(VmId(i), MemoryMib::gib(1), CpuCapacity::cores(1)))
                .unwrap();
        }
        c
    }

    #[test]
    fn new_vms_start_waiting() {
        let c = small_cluster();
        for vm in c.vm_ids() {
            assert_eq!(c.state(vm).unwrap(), VmState::Waiting);
            assert_eq!(c.host(vm).unwrap(), None);
        }
        assert!(c.is_viable());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut c = small_cluster();
        let err = c
            .add_node(Node::new(
                NodeId(0),
                CpuCapacity::cores(1),
                MemoryMib::gib(1),
            ))
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateNode(NodeId(0)));
        let err = c
            .add_vm(Vm::new(VmId(0), MemoryMib::gib(1), CpuCapacity::ZERO))
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateVm(VmId(0)));
    }

    #[test]
    fn run_and_viability() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        assert!(c.is_viable());
        // Two busy single-core VMs on one single-core node: non-viable,
        // exactly Figure 5(a) of the paper.
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        assert!(!c.is_viable());
        let violations = c.viability_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].0, NodeId(0));
    }

    #[test]
    fn sleeping_vms_do_not_consume_resources() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::sleeping(NodeId(0)))
            .unwrap();
        // Node 0 hosts one running VM and one suspended image: still viable,
        // the image consumes no CPU or memory in the model.
        assert!(c.is_viable());
        assert_eq!(c.vms_on(NodeId(0)), vec![VmId(0)]);
        assert_eq!(c.images_on(NodeId(0)), vec![VmId(1)]);
    }

    #[test]
    fn transition_follows_life_cycle() {
        let mut c = small_cluster();
        // Waiting → Running
        c.transition(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        // Running → Running on a different node (migration)
        c.transition(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        // Running → Sleeping
        c.transition(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        // Sleeping → Running
        c.transition(VmId(0), VmAssignment::running(NodeId(2)))
            .unwrap();
        // Running → Terminated
        c.transition(VmId(0), VmAssignment::terminated()).unwrap();
        // Terminated is final.
        assert!(c
            .transition(VmId(0), VmAssignment::running(NodeId(0)))
            .is_err());
    }

    #[test]
    fn transition_rejects_waiting_to_sleeping() {
        let mut c = small_cluster();
        let err = c
            .transition(VmId(0), VmAssignment::sleeping(NodeId(0)))
            .unwrap_err();
        assert!(matches!(err, ModelError::IllegalTransition { .. }));
    }

    #[test]
    fn assignment_consistency_is_enforced() {
        let mut c = small_cluster();
        let bad = VmAssignment {
            state: VmState::Running,
            host: None,
            image: None,
        };
        assert_eq!(
            c.set_assignment(VmId(0), bad).unwrap_err(),
            ModelError::InconsistentAssignment(VmId(0))
        );
        let unknown_node = VmAssignment::running(NodeId(99));
        assert_eq!(
            c.set_assignment(VmId(0), unknown_node).unwrap_err(),
            ModelError::UnknownNode(NodeId(99))
        );
        assert_eq!(
            c.set_assignment(VmId(99), VmAssignment::waiting())
                .unwrap_err(),
            ModelError::UnknownVm(VmId(99))
        );
    }

    #[test]
    fn usage_and_free_space() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let usage = c.usage(NodeId(0)).unwrap();
        assert_eq!(usage.used.cpu, CpuCapacity::cores(1));
        assert_eq!(usage.used.memory, MemoryMib::gib(1));
        assert_eq!(c.free(NodeId(0)).unwrap().memory, MemoryMib::gib(2));
        assert!(!c
            .can_host(
                NodeId(0),
                &ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(1))
            )
            .unwrap());
        assert!(c
            .can_host(
                NodeId(0),
                &ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::gib(2))
            )
            .unwrap());
    }

    #[test]
    fn delta_reports_changes() {
        let mut a = small_cluster();
        a.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut b = a.clone();
        b.set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        b.set_assignment(VmId(1), VmAssignment::running(NodeId(2)))
            .unwrap();
        let deltas = a.delta(&b);
        assert_eq!(deltas.len(), 2);
        assert!(deltas
            .iter()
            .any(|d| matches!(d, ConfigurationDelta::Changed { vm: VmId(0), .. })));
        assert!(deltas
            .iter()
            .any(|d| matches!(d, ConfigurationDelta::Changed { vm: VmId(1), .. })));
    }

    #[test]
    fn delta_reports_added_and_removed_vms() {
        let a = small_cluster();
        let mut b = a.clone();
        b.add_vm(Vm::new(VmId(10), MemoryMib::mib(256), CpuCapacity::ZERO))
            .unwrap();
        let deltas = a.delta(&b);
        assert_eq!(deltas.len(), 1);
        assert!(matches!(
            deltas[0],
            ConfigurationDelta::Added { vm: VmId(10), .. }
        ));
        let deltas_rev = b.delta(&a);
        assert!(matches!(
            deltas_rev[0],
            ConfigurationDelta::Removed { vm: VmId(10), .. }
        ));
    }

    #[test]
    fn totals() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        assert_eq!(c.total_capacity().cpu, CpuCapacity::cores(3));
        assert_eq!(c.total_capacity().memory, MemoryMib::gib(9));
        assert_eq!(c.total_running_demand().cpu, CpuCapacity::cores(2));
        assert_eq!(c.total_running_demand().memory, MemoryMib::gib(2));
    }

    #[test]
    fn validate_detects_dangling_references() {
        let c = small_cluster();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn remove_vm_clears_assignment() {
        let mut c = small_cluster();
        c.remove_vm(VmId(0)).unwrap();
        assert_eq!(c.vm_count(), 2);
        assert!(c.assignment(VmId(0)).is_err());
        assert!(c.remove_vm(VmId(0)).is_err());
    }

    #[test]
    fn figure_5b_both_viable_placements() {
        // Figure 5(b): 3 uniprocessor nodes, VM2 and VM3 each need a full
        // CPU, VM1 is idle.  Two placements are viable.
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(2),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(VmId(1), MemoryMib::mib(512), CpuCapacity::ZERO))
            .unwrap();
        c.add_vm(Vm::new(VmId(2), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(3), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();

        // Viable: VM1+VM2 on node 0, VM3 on node 1.
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(3), VmAssignment::running(NodeId(1)))
            .unwrap();
        assert!(c.is_viable());

        // Viable: one VM per node.
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();
        assert!(c.is_viable());

        // Non-viable (Figure 5(a)): VM2 and VM3 share a uniprocessor node.
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();
        assert!(!c.is_viable());
    }
}
