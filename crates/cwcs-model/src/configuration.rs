//! Cluster configurations: which VM is in which state on which node, and
//! what every node carries.
//!
//! A configuration is the paper's mapping of VMs to nodes plus the state of
//! every VM.  It is **viable** when every node can carry, on every resource
//! dimension, the running VMs it hosts (Section 3.2, the bin-packing
//! condition), and an action is **feasible** when its demand fits the free
//! capacity of its destination (Section 4.1).  Both are the same question —
//! *what does node n carry* — and the configuration answers it itself: for
//! every node it keeps a **load ledger** entry, the summed [`Vm::demand`] and
//! the count of the running VMs the node hosts, so [`Configuration::usage`],
//! [`Configuration::free`] and [`Configuration::can_host`] are one lookup.
//! Beside it the ledger keeps the set of nodes whose load exceeds their
//! capacity, so [`Configuration::is_viable`] is O(1) and
//! [`Configuration::viability_violations`] O(overloaded nodes), and it keeps
//! the whole-cluster totals — used demand, running VMs, capacity — so
//! [`Configuration::total_running_demand`], [`Configuration::running_count`]
//! and [`Configuration::total_capacity`] are O(1) too.  Nobody else has to
//! keep a private copy of these numbers to dodge a scan of the assignments or
//! of the nodes.
//!
//! # Representation: a persistent value
//!
//! The control loop re-decides every period, and what it plans is by
//! definition the *difference* between two configurations (Section 4.1) that
//! agree on nearly every VM.  So a configuration is a structurally shared,
//! copy-on-write value.  Its tables — node records, the ledger entry of every
//! node, the overload set, VM records, assignments — are each cut into chunks
//! of at most 256 consecutive ids, an id-sorted `Vec` behind an `Arc`:
//!
//! * **`clone` and `drop` cost O(chunks)** — a reference count per chunk; no
//!   record, no `String` is copied.  A target is a clone of the source plus
//!   the assignments that change; a planner's working copy, a plan's replay
//!   copy and a decision module's snapshot of the last tick are all clones.
//! * **A write copies one chunk**, the first time it lands in a chunk a clone
//!   still shares, and is in place from then on.  Every table but the node
//!   records (which carry a name) holds plain data, so copying one of their
//!   chunks is one buffer, with no allocation per entry.  The writes are
//!   [`Configuration::add_node`], [`Configuration::add_vm`],
//!   [`Configuration::remove_vm`], and the three below that first *compare*
//!   and leave every chunk shared when nothing would change:
//!   [`Configuration::set_assignment`] (the assignment's chunk, plus the
//!   ledger chunk of each host whose load moves — plain numbers both, which
//!   is why the ledger is a table of its own and not a field beside the node
//!   record and its name), [`Configuration::set_vm_demand`] (the VM record's
//!   chunk, plus the host's ledger chunk) and
//!   [`Configuration::set_node_capacity`] (the node record's chunk).  A
//!   monitor re-observing 60 000 unchanged demands unshares nothing.  The
//!   whole-cluster totals are three numbers beside the tables, not shared.
//! * **Reads never unshare**, and iteration is in ascending id order, so
//!   everything derived from it (FFD packing, plan construction) is
//!   deterministic.
//! * **Differences cost O(chunks + entries of the chunks written since the
//!   two parted)**: [`Configuration::changed_vms`],
//!   [`Configuration::changed_assignments`] (and
//!   [`Configuration::assignment_changes`], which also yields both sides),
//!   [`Configuration::changed_nodes`] and [`Configuration::changed_loads`]
//!   skip every pair of chunks that is still one allocation, and so does
//!   `==`.  Which chunks exist follows from the
//!   ids alone (none is left empty), so equal contents are equal whatever
//!   history built them.
//!
//! # The ledger
//!
//! The ledger holds three invariants:
//!
//! 1. **It is a pure function of the assignments.**  A node's entry is the sum
//!    of the configuration's *own* observed demands (never an action's target
//!    demand) over exactly the VMs [`Configuration::vms_on`] lists, and every
//!    node has an entry — zero when it hosts nothing, never "absent".  Two
//!    configurations with equal nodes, VMs and assignments therefore have
//!    equal ledgers, which is what keeps the derived `PartialEq` meaningful.
//! 2. **It is exact.**  Debits subtract what was credited; an underflow is a
//!    bug (`debug_assert`), not something to saturate away.
//!    [`Configuration::validate`] recomputes every entry from the assignments,
//!    the overload set from the entries and the capacities, and the totals
//!    from both, and reports the first node (or the totals) that drifted.
//! 3. **Every mutation goes through four methods.**  A running VM's host
//!    changes in [`Configuration::set_assignment`] (which
//!    [`Configuration::transition`] calls) and [`Configuration::remove_vm`];
//!    an observed demand changes in [`Configuration::set_vm_demand`]; a
//!    capacity changes in [`Configuration::set_node_capacity`].  Each of them
//!    moves the totals with the entry or the capacity it moved, and re-checks
//!    the overload of the node.  [`Configuration::add_node`] adds its
//!    capacity to the totals.
//!    There is no `&mut Vm` or `&mut Node` door behind which a demand or
//!    capacity could move without the ledger following.
//!
//! The decision module produces a target configuration; the reconfiguration
//! planner of `cwcs-plan` turns the difference between the current and the
//! target configuration into a plan of actions whose every intermediate
//! configuration is also viable.
//!
//! Sleeping VMs additionally record the node holding their suspended memory
//! image: the cost model of Table 1 charges a resume twice as much when the
//! image has to be fetched from a different node (remote resume).

use std::collections::BTreeMap;

use crate::chunk_map::ChunkMap;
use crate::error::ModelError;
use crate::node::{Node, NodeId};
use crate::resources::{CpuCapacity, NetBandwidth, ResourceDemand, ResourceUsage};
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
    pub(crate) fn is_consistent(&self) -> bool {
        match self.state {
            VmState::Running => self.host.is_some() && self.image.is_none(),
            VmState::Sleeping => self.host.is_none() && self.image.is_some(),
            VmState::Waiting | VmState::Terminated => self.host.is_none() && self.image.is_none(),
        }
    }
}

/// One entry of the load ledger: what a node carries.  Plain numbers in a
/// table of their own, so the chunk a moving VM copies holds no node name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Load {
    /// Summed [`Vm::demand`] of the running VMs the node hosts.
    used: ResourceDemand,
    /// Number of running VMs the node hosts.
    running: usize,
}

impl Load {
    fn credit(&mut self, demand: ResourceDemand) {
        self.used += demand;
        self.running += 1;
    }

    fn debit(&mut self, demand: ResourceDemand) {
        debug_assert!(
            self.running > 0 && demand.fits_in(&self.used),
            "ledger underflow: a node carries {} for {} VMs, asked to give back {demand}",
            self.used,
            self.running
        );
        self.used = self.used.saturating_sub(&demand);
        self.running = self.running.saturating_sub(1);
        debug_assert!(
            self.running > 0 || self.used.is_zero(),
            "a node hosts nothing but still carries {}",
            self.used
        );
    }
}

/// The whole-cluster sums of the ledger and of the node records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Totals {
    /// Every node's ledger entry, summed.
    load: Load,
    /// Every node's capacity, summed.
    capacity: ResourceDemand,
}

/// A full cluster configuration: the inventory of nodes and VMs, an
/// assignment for every VM, and the load ledger of every node — a cheap value
/// to clone and to compare with a clone of itself (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    nodes: ChunkMap<Node>,
    /// An entry for every node of `nodes`, zero when it hosts nothing.
    loads: ChunkMap<Load>,
    /// The nodes whose load exceeds their capacity: a function of `nodes`
    /// and `loads`, so content equality stays meaningful.
    overloaded: ChunkMap<()>,
    /// A function of `nodes` and `loads` too.
    totals: Totals,
    vms: ChunkMap<Vm>,
    assignments: ChunkMap<VmAssignment>,
}

impl Default for Configuration {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a host an assignment names has a ledger entry: the node was checked
/// when the assignment was set.
const REGISTERED: &str = "assignments only reference registered nodes";

/// Two ascending id streams as one, an id both yield listed once.
fn merge_ascending(
    left: impl Iterator<Item = u32>,
    right: impl Iterator<Item = u32>,
) -> impl Iterator<Item = u32> {
    let (mut left, mut right) = (left.peekable(), right.peekable());
    std::iter::from_fn(
        move || match (left.peek().copied(), right.peek().copied()) {
            (Some(l), Some(r)) => {
                if l <= r {
                    left.next();
                }
                if r <= l {
                    right.next();
                }
                Some(l.min(r))
            }
            (Some(_), None) => left.next(),
            (None, _) => right.next(),
        },
    )
}

impl Configuration {
    /// An empty configuration with no node and no VM.
    pub fn new() -> Self {
        Configuration {
            nodes: ChunkMap::new(),
            loads: ChunkMap::new(),
            overloaded: ChunkMap::new(),
            totals: Totals::default(),
            vms: ChunkMap::new(),
            assignments: ChunkMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Inventory management
    // ------------------------------------------------------------------

    /// Register a node; it carries nothing yet.
    pub fn add_node(&mut self, node: Node) -> Result<()> {
        if self.nodes.contains_key(node.id.0) {
            return Err(ModelError::DuplicateNode(node.id));
        }
        self.loads.insert(node.id.0, Load::default());
        self.totals.capacity += node.capacity();
        self.nodes.insert(node.id.0, node);
        Ok(())
    }

    /// Register a VM in the Waiting state (no node carries it).
    pub fn add_vm(&mut self, vm: Vm) -> Result<()> {
        if self.vms.contains_key(vm.id.0) {
            return Err(ModelError::DuplicateVm(vm.id));
        }
        self.assignments.insert(vm.id.0, VmAssignment::waiting());
        self.vms.insert(vm.id.0, vm);
        Ok(())
    }

    /// Remove a VM from the configuration entirely (used once a vjob is
    /// terminated and garbage-collected).  A running VM leaves its host's
    /// ledger with it.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<Vm> {
        let record = self.vms.remove(vm.0).ok_or(ModelError::UnknownVm(vm))?;
        if let Some(host) = self.assignments.remove(vm.0).and_then(|a| a.host) {
            let debit = |load: &mut Load| load.debit(record.demand());
            self.carry(host, debit).expect(REGISTERED);
        }
        Ok(record)
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(ModelError::UnknownNode(id))
    }

    /// Access a VM by id.
    pub fn vm(&self, id: VmId) -> Result<&Vm> {
        self.vms.get(id.0).ok_or(ModelError::UnknownVm(id))
    }

    /// Record the CPU and network demand a monitor observed for a VM (its
    /// memory allocation is fixed at creation).  Returns true when the
    /// observed demand moved; the host of a running VM then carries the new
    /// demand instead of the old one.  An observation equal to the recorded
    /// one writes nothing, so it leaves every chunk shared.
    pub fn set_vm_demand(&mut self, vm: VmId, cpu: CpuCapacity, net: NetBandwidth) -> Result<bool> {
        let record = self.vm(vm)?;
        if record.cpu == cpu && record.net == net {
            return Ok(false);
        }
        let old = record.demand();
        let record = self.vms.get_mut(vm.0).expect("just read");
        record.cpu = cpu;
        record.net = net;
        let new = record.demand();
        if let Some(host) = self.assignment(vm)?.host {
            self.carry(host, |load| {
                load.debit(old);
                load.credit(new);
            })
            .expect(REGISTERED);
        }
        Ok(true)
    }

    /// Change a node's capacity (a partial hardware failure, or a repaired
    /// node coming back).  The node keeps hosting its VMs — no ledger sum
    /// moves — but a capacity below what it carries makes the configuration
    /// non-viable and the next repair pass evacuates it.
    pub fn set_node_capacity(&mut self, node: NodeId, capacity: ResourceDemand) -> Result<()> {
        let old = self.node(node)?.capacity();
        if old == capacity {
            return Ok(());
        }
        self.totals.capacity = self.totals.capacity.saturating_sub(&old) + capacity;
        let record = self.nodes.get_mut(node.0).expect("just read");
        record.cpu = capacity.cpu;
        record.memory = capacity.memory;
        record.net = capacity.net;
        let used = self.loads.get(node.0).expect("every node has one").used;
        self.recheck(node, used);
        Ok(())
    }

    /// The ledger entry of a node, to write to behind the totals' back:
    /// the tests corrupt the ledger through it.
    #[cfg(test)]
    fn load_mut(&mut self, node: NodeId) -> &mut Load {
        self.loads.get_mut(node.0).expect("a registered node")
    }

    /// Change the ledger entry of `host` and the totals alike, then re-check
    /// the node's overload.  Its chunk stops being shared.  An unknown node
    /// changes nothing.
    fn carry(&mut self, host: NodeId, change: impl Fn(&mut Load)) -> Result<()> {
        let load = self.loads.get_mut(host.0);
        let load = load.ok_or(ModelError::UnknownNode(host))?;
        change(load);
        let used = load.used;
        change(&mut self.totals.load);
        self.recheck(host, used);
        Ok(())
    }

    /// Put a registered node whose load or capacity just moved in or out of
    /// the overload set, given the load its ledger entry now holds (the
    /// caller has the entry in hand).  Writes only when its membership flips,
    /// so a move between two healthy nodes leaves every chunk of the set
    /// shared.
    fn recheck(&mut self, node: NodeId, used: ResourceDemand) {
        let record = self.nodes.get(node.0).expect("only registered nodes move");
        if used.fits_in(&record.capacity()) {
            self.overloaded.remove(node.0);
        } else if !self.overloaded.contains_key(node.0) {
            self.overloaded.insert(node.0, ());
        }
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
        self.nodes.keys().map(NodeId).collect()
    }

    /// All VM ids in order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().map(VmId).collect()
    }

    // ------------------------------------------------------------------
    // Differences
    // ------------------------------------------------------------------

    /// The VMs whose record or assignment differs between `self` and
    /// `other`, or that only one of the two holds, in ascending id order.
    /// Chunks the two still share are skipped unread: between a configuration
    /// and a clone of it the cost is O(chunks + entries of the chunks written
    /// since), not O(VMs).
    pub fn changed_vms<'a>(&'a self, other: &'a Configuration) -> impl Iterator<Item = VmId> + 'a {
        let records = self.vms.changed(&other.vms);
        let assignments = self.assignments.changed(&other.assignments);
        merge_ascending(records, assignments).map(VmId)
    }

    /// The VMs whose assignment differs between `self` and `other`, or that
    /// only one of the two holds, in ascending id order: the half of
    /// [`Configuration::changed_vms`] that leaves the VM records (their
    /// demands) unread, at most its cost.
    pub fn changed_assignments<'a>(
        &'a self,
        other: &'a Configuration,
    ) -> impl Iterator<Item = VmId> + 'a {
        self.assignments.changed(&other.assignments).map(VmId)
    }

    /// The VMs [`Configuration::changed_assignments`] lists, each with its
    /// assignment on `self` and on `other` (`None` on the side that does not
    /// hold it), read off the same walk at the same cost: what the
    /// reconfiguration graph walks.
    pub fn assignment_changes<'a>(
        &'a self,
        other: &'a Configuration,
    ) -> impl Iterator<Item = (VmId, Option<VmAssignment>, Option<VmAssignment>)> + 'a {
        let diff = self.assignments.diff(&other.assignments);
        diff.map(|(id, mine, theirs)| (VmId(id), mine.copied(), theirs.copied()))
    }

    /// The nodes whose record (name, capacity) differs between `self` and
    /// `other`, or that only one of the two holds, in ascending id order and
    /// at the cost of [`Configuration::changed_vms`].  What a node *carries*
    /// is not part of its record: a ledger that moved lists nothing here.
    pub fn changed_nodes<'a>(
        &'a self,
        other: &'a Configuration,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.nodes.changed(&other.nodes).map(NodeId)
    }

    /// The nodes whose ledger entry — what they carry — differs between
    /// `self` and `other`, or that only one of the two holds, in ascending id
    /// order and at the cost of [`Configuration::changed_vms`].
    pub fn changed_loads<'a>(
        &'a self,
        other: &'a Configuration,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.loads.changed(&other.loads).map(NodeId)
    }

    // ------------------------------------------------------------------
    // Assignments
    // ------------------------------------------------------------------

    /// Current assignment of a VM.
    pub fn assignment(&self, vm: VmId) -> Result<VmAssignment> {
        self.assignments
            .get(vm.0)
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
    /// consistent.  The ledger follows: the new host (if the VM runs) is
    /// credited the VM's demand and the old one debited; the assignment the
    /// VM already has writes nothing.
    pub fn set_assignment(&mut self, vm: VmId, assignment: VmAssignment) -> Result<()> {
        let demand = self.vm(vm)?.demand();
        if !assignment.is_consistent() {
            return Err(ModelError::InconsistentAssignment(vm));
        }
        if self.assignment(vm)? == assignment {
            return Ok(());
        }
        if let Some(image) = assignment.image {
            self.node(image)?;
        }
        // Credit before debit: the credit is also the check that the new
        // host exists, so nothing has moved yet when it fails.
        if let Some(host) = assignment.host {
            self.carry(host, |load| load.credit(demand))?;
        }
        let previous = self.assignments.insert(vm.0, assignment);
        if let Some(host) = previous.and_then(|a| a.host) {
            self.carry(host, |load| load.debit(demand))
                .expect(REGISTERED);
        }
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
    //
    // `usage` / `free` / `can_host` read one ledger entry, `is_viable` and
    // `viability_violations` the overload set, `total_running_demand`,
    // `running_count` and `total_capacity` the totals; `usages` walks the
    // nodes.  Only the three listings below and `validate` scan the
    // assignments.
    // ------------------------------------------------------------------

    /// VMs the assignments of which `wanted` accepts, in id order.
    fn vms_where(&self, wanted: impl Fn(&VmAssignment) -> bool) -> Vec<VmId> {
        let matching = self.assignments.iter().filter(|(_, a)| wanted(a));
        matching.map(|(id, _)| VmId(id)).collect()
    }

    /// VMs currently running on `node`, in id order.  A scan of every
    /// assignment: ask [`Configuration::usage`] for what the node *carries*,
    /// this for *who* is on it (it is also what the ledger is tested against).
    pub fn vms_on(&self, node: NodeId) -> Vec<VmId> {
        self.vms_where(|a| a.state == VmState::Running && a.host == Some(node))
    }

    /// Sleeping VMs whose image is stored on `node`, in id order.
    #[cfg(test)]
    pub(crate) fn images_on(&self, node: NodeId) -> Vec<VmId> {
        self.vms_where(|a| a.state == VmState::Sleeping && a.image == Some(node))
    }

    /// All VMs currently in the given state, in id order.
    pub fn vms_in_state(&self, state: VmState) -> Vec<VmId> {
        self.vms_where(|a| a.state == state)
    }

    /// Resource usage of one node: capacity and total demand of the running
    /// VMs it hosts.  A ledger lookup, not a scan.
    pub fn usage(&self, node: NodeId) -> Result<ResourceUsage> {
        let capacity = self.node(node)?.capacity();
        let load = self
            .loads
            .get(node.0)
            .expect("every node has a ledger entry");
        Ok(ResourceUsage {
            used: load.used,
            capacity,
        })
    }

    /// Resource usage of every node, in node id order.
    pub fn usages(&self) -> Vec<(NodeId, ResourceUsage)> {
        self.ledger().collect()
    }

    /// Every node with its ledger entry, in id order (the two tables hold
    /// the same ids).
    fn ledger(&self) -> impl Iterator<Item = (NodeId, ResourceUsage)> + '_ {
        self.nodes
            .values()
            .zip(self.loads.values())
            .map(|(node, load)| {
                let usage = ResourceUsage {
                    used: load.used,
                    capacity: node.capacity(),
                };
                (node.id, usage)
            })
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
    /// hosts — the paper's *viable configuration* condition.  O(1): the
    /// overload set is empty.
    pub fn is_viable(&self) -> bool {
        self.overloaded.len() == 0
    }

    /// Nodes whose capacity is exceeded, with their usage, in node id order:
    /// the overload set, O(overloaded nodes).  Empty iff the configuration is
    /// viable.
    pub fn viability_violations(&self) -> Vec<(NodeId, ResourceUsage)> {
        let entry = |node| (node, self.usage(node).expect("a registered node"));
        self.overloaded.keys().map(NodeId).map(entry).collect()
    }

    /// Check that every assignment is internally consistent and references
    /// known nodes, that the ledger is what the assignments sum to and that
    /// the overload set lists exactly the nodes that ledger overflows: the
    /// ledger and the totals are checked, not trusted.  Builders and deserialized
    /// configurations should be validated with this before use; it is
    /// O(VMs) and meant for tests and end-state checks, not the tick path.
    pub fn validate(&self) -> Result<()> {
        let mut carried: BTreeMap<NodeId, (ResourceDemand, usize)> = BTreeMap::new();
        for (id, assignment) in self.assignments.iter() {
            let vm = VmId(id);
            let record = self.vm(vm)?;
            if !assignment.is_consistent() {
                return Err(ModelError::InconsistentAssignment(vm));
            }
            for node in [assignment.host, assignment.image].into_iter().flatten() {
                self.node(node)?;
            }
            if let Some(host) = assignment.host {
                let (used, running) = carried.entry(host).or_default();
                *used += record.demand();
                *running += 1;
            }
        }
        for id in self.vms.keys() {
            if !self.assignments.contains_key(id) {
                let vm = VmId(id);
                return Err(ModelError::Invariant(format!("{vm} has no assignment")));
            }
        }
        let mut overloaded = ChunkMap::new();
        let mut totals = Totals::default();
        for node in self.nodes.values() {
            let id = node.id;
            let (used, running) = carried.get(&id).copied().unwrap_or_default();
            totals.load.used += used;
            totals.load.running += running;
            totals.capacity += node.capacity();
            let Some(load) = self.loads.get(id.0) else {
                return Err(ModelError::Invariant(format!("{id} has no ledger entry")));
            };
            if (load.used, load.running) != (used, running) {
                return Err(ModelError::Invariant(format!(
                    "the ledger of {id} says {} for {} running VMs, its assignments sum to {used} for {running}",
                    load.used, load.running
                )));
            }
            if !used.fits_in(&node.capacity()) {
                overloaded.insert(id.0, ());
            }
        }
        if let Some(id) = self.overloaded.changed(&overloaded).next() {
            let (id, listed) = (NodeId(id), self.overloaded.contains_key(id));
            return Err(ModelError::Invariant(format!(
                "the overload set {} {id}, whose ledger says otherwise",
                if listed { "lists" } else { "misses" }
            )));
        }
        if totals != self.totals {
            let Totals { load, capacity } = self.totals;
            return Err(ModelError::Invariant(format!(
                "the totals say {} for {} running VMs on {capacity}, the nodes sum to {} for {} on {}",
                load.used, load.running, totals.load.used, totals.load.running, totals.capacity
            )));
        }
        Ok(())
    }

    /// Total demand of all running VMs (used by utilization reports): a
    /// running total, O(1).
    pub fn total_running_demand(&self) -> ResourceDemand {
        self.totals.load.used
    }

    /// Number of running VMs: a running total of the ledger's per-node
    /// counts, O(1) ([`Configuration::validate`] recomputes it).
    pub fn running_count(&self) -> usize {
        self.totals.load.running
    }

    /// Total capacity of all nodes: a running total, O(1).
    pub fn total_capacity(&self) -> ResourceDemand {
        self.totals.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::MemoryMib;

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
    fn validate_names_the_node_whose_ledger_drifted() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        assert!(c.validate().is_ok());
        // Only code inside this module can reach the ledger; corrupt it the
        // way a forgotten debit would.
        c.load_mut(NodeId(1)).running = 2;
        match c.validate().unwrap_err() {
            ModelError::Invariant(message) => assert!(message.contains("node-1"), "{message}"),
            other => panic!("expected an invariant violation, got {other:?}"),
        }
        c.load_mut(NodeId(1)).running = 1;
        c.load_mut(NodeId(2)).used = ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::mib(1));
        match c.validate().unwrap_err() {
            ModelError::Invariant(message) => assert!(message.contains("node-2"), "{message}"),
            other => panic!("expected an invariant violation, got {other:?}"),
        }
    }

    #[test]
    fn validate_names_the_node_the_overload_set_is_wrong_about() {
        let mut c = small_cluster();
        for vm in [VmId(0), VmId(1)] {
            c.set_assignment(vm, VmAssignment::running(NodeId(2)))
                .unwrap();
        }
        assert_eq!(c.viability_violations().len(), 1);
        c.validate().unwrap();
        let expect_invariant = |c: &Configuration, node: &str| match c.validate().unwrap_err() {
            ModelError::Invariant(message) => assert!(message.contains(node), "{message}"),
            other => panic!("expected an invariant violation, got {other:?}"),
        };
        // A healthy node listed, as a forgotten removal would leave it...
        c.overloaded.insert(0, ());
        expect_invariant(&c, "node-0");
        // ...and an overloaded node missed, as a forgotten insertion would.
        c.overloaded.remove(0);
        c.overloaded.remove(2);
        assert!(c.is_viable(), "the corrupted set is what is_viable reads");
        expect_invariant(&c, "node-2");
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
    fn an_observed_demand_moves_the_host_sum_in_the_same_call() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let idle = (CpuCapacity::percent(10), NetBandwidth::mbps(300));
        assert!(c.set_vm_demand(VmId(0), idle.0, idle.1).unwrap());
        let used = c.usage(NodeId(0)).unwrap().used;
        assert_eq!((used.cpu, used.net), idle);
        assert_eq!(used.memory, MemoryMib::gib(1), "memory is not observed");
        // The same observation again is not a change.
        assert!(!c.set_vm_demand(VmId(0), idle.0, idle.1).unwrap());
        // A waiting VM's demand is recorded, but no node carries it.
        assert!(c.set_vm_demand(VmId(1), idle.0, idle.1).unwrap());
        assert_eq!(c.vm(VmId(1)).unwrap().cpu, idle.0);
        assert_eq!(c.total_running_demand(), used);
        assert_eq!(
            c.set_vm_demand(VmId(9), idle.0, idle.1).unwrap_err(),
            ModelError::UnknownVm(VmId(9))
        );
        c.validate().unwrap();
    }

    #[test]
    fn a_capacity_change_touches_no_sum() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let before = c.usage(NodeId(0)).unwrap().used;
        let shrunk = ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::mib(512))
            .with_net(NetBandwidth::mbps(100));
        c.set_node_capacity(NodeId(0), shrunk).unwrap();
        assert_eq!(c.node(NodeId(0)).unwrap().capacity(), shrunk);
        assert_eq!(c.usage(NodeId(0)).unwrap().used, before);
        assert!(!c.is_viable(), "the node now carries more than it can");
        assert_eq!(
            c.set_node_capacity(NodeId(9), shrunk).unwrap_err(),
            ModelError::UnknownNode(NodeId(9))
        );
        c.validate().unwrap();
    }

    #[test]
    fn a_rejected_assignment_leaves_the_ledger_alone() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let before = c.clone();
        assert!(c
            .set_assignment(VmId(0), VmAssignment::running(NodeId(99)))
            .is_err());
        assert!(c
            .set_assignment(VmId(0), VmAssignment::sleeping(NodeId(99)))
            .is_err());
        assert_eq!(c, before);
        // Same host again: nothing moves either.
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        assert_eq!(c, before);
    }

    #[test]
    fn the_diffs_list_what_each_table_changed() {
        let mut c = small_cluster();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let before = c.clone();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(2)))
            .unwrap();
        let shrunk = ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::gib(1));
        c.set_node_capacity(NodeId(1), shrunk).unwrap();
        let loads: Vec<NodeId> = c.changed_loads(&before).collect();
        assert_eq!(loads, [NodeId(0), NodeId(2)]);
        let nodes: Vec<NodeId> = c.changed_nodes(&before).collect();
        assert_eq!(nodes, [NodeId(1)]);
        c.set_vm_demand(VmId(1), CpuCapacity::percent(20), NetBandwidth::mbps(5))
            .unwrap();
        let vms: Vec<VmId> = c.changed_vms(&before).collect();
        assert_eq!(vms, [VmId(0), VmId(1)]);
        let assignments: Vec<VmId> = c.changed_assignments(&before).collect();
        assert_eq!(assignments, [VmId(0)], "a demand is no assignment");
        let both: Vec<_> = before.assignment_changes(&c).collect();
        let (from, to) = (
            VmAssignment::running(NodeId(0)),
            VmAssignment::running(NodeId(2)),
        );
        assert_eq!(both, [(VmId(0), Some(from), Some(to))]);
        assert_eq!(before.changed_loads(&before.clone()).count(), 0);
    }

    #[test]
    fn the_totals_follow_every_mutation_and_validate_checks_them() {
        let mut c = small_cluster();
        let sums = |c: &Configuration| {
            let used: ResourceDemand = c.usages().iter().map(|(_, u)| u.used).sum();
            let capacity: ResourceDemand = c.nodes().map(Node::capacity).sum();
            let running = c.vms_in_state(VmState::Running).len();
            (used, running, capacity)
        };
        let totals = |c: &Configuration| {
            let (used, running) = (c.total_running_demand(), c.running_count());
            (used, running, c.total_capacity())
        };
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        assert_eq!(totals(&c), sums(&c));
        c.set_assignment(VmId(1), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        c.set_vm_demand(VmId(0), CpuCapacity::percent(30), NetBandwidth::mbps(10))
            .unwrap();
        assert_eq!(totals(&c), sums(&c));
        let bigger = ResourceDemand::new(CpuCapacity::cores(4), MemoryMib::gib(8));
        c.set_node_capacity(NodeId(2), bigger).unwrap();
        c.add_node(Node::new(
            NodeId(7),
            CpuCapacity::cores(2),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.remove_vm(VmId(0)).unwrap();
        assert_eq!(totals(&c), sums(&c));
        assert_eq!(c.running_count(), 0);
        c.validate().unwrap();
        // Only code inside this module can reach the totals.
        c.totals.capacity = ResourceDemand::ZERO;
        match c.validate().unwrap_err() {
            ModelError::Invariant(message) => assert!(message.contains("totals"), "{message}"),
            other => panic!("expected an invariant violation, got {other:?}"),
        }
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
