//! First-Fit Decreasing packing and the rule that sizes a VM for it.
//!
//! "This heuristic sorts the VMs in a decreasing order regarding to their
//! memory and their CPU demands and try to assign each VM on the first node
//! with a sufficient amount of free resources." (Section 3.2)  Demands are
//! [`ResourceDemand`] vectors, so every resource dimension (CPU, memory,
//! network) participates in the fit check.
//!
//! The heuristic is written once, in `pack_decreasing`; its callers differ
//! by what they pack and by two arguments (the tie-break key, an optional
//! preferred slot per item), never by a copy of the loop.  Each owns the
//! loop's working buffers, so a caller that packs again and again allocates
//! them once:
//! * the sample decision module, testing vjob by vjob whether one more vjob
//!   fits on the cluster (the Running Job Selection Problem), through
//!   `FirstFitDecreasing::place_slots` — the rule of
//!   `FirstFitDecreasing::place_indexed` on buffers it reuses vjob after
//!   vjob;
//! * the baseline configuration planner of Figure 10 — the first complete
//!   viable configuration is kept as-is, without any attempt at reducing the
//!   reconfiguration cost — and the optimizer's last-resort repack, through
//!   `FirstFitDecreasing::pack_all`;
//! * the optimizer's placement sub-problems: the FFD seed of the portfolio
//!   race and the keep-current-host incumbent of a repair (a VM's anchor
//!   node is its preferred slot, and every VM that still fits its anchor
//!   stays there before any other VM is placed);
//! * the static FCFS baseline of Figure 12, packing whole-core reservations.
//!
//! # How a boot is sized
//!
//! A waiting VM observably demands nothing — its application has not booted
//! yet — so packing boots by *observed* demand can cram them onto nodes that
//! have no room for the demand that appears one iteration later, overloading
//! those nodes until a repair rebalance fixes it.  Every packer therefore
//! budgets a VM through one rule, [`packing_demand`]: a waiting VM weighs its
//! [`Vm::reserved_demand`] — the component-wise max of the observed demand
//! and the creation-time reservation — trading a little peak utilization for
//! placement stability; a VM in any other state weighs its observed
//! [`Vm::demand`] (that is the dynamic-consolidation premise of the paper).
//! It is a rule, not a setting: the decision module's admission and the
//! optimizer's placement cannot disagree about what a boot weighs.

use std::collections::BTreeMap;

use cwcs_model::{Configuration, NodeId, ResourceDemand, Vm, VmId, VmState};

/// An exact first-fit index over per-node free capacities.
///
/// The RJSP loop of the decision module packs tens of thousands of vjobs per
/// tick; a linear first-fit scan over 10 000 nodes per VM makes that decide
/// O(VMs × nodes).  This index keeps the free vectors in a segment tree
/// whose internal nodes store the **component-wise maximum** of their range,
/// and finds the first fitting node by descending leftmost-first: a subtree
/// is explored only when the demand fits its maximum on every dimension.
/// The maximum can over-promise (it mixes dimensions from different nodes),
/// so the descent backtracks — but a leaf's maximum is its actual free
/// vector, so the node returned is exactly the one a left-to-right linear
/// scan would pick.  First-fit semantics (and therefore every historical
/// placement) are preserved bit for bit; only the cost changes, to
/// O(log nodes) per query on typical clusters.
///
/// # Layout
///
/// The tree is complete: `size` is the node count rounded up to a power of
/// two, entry `at` has its children at `2 * at` and `2 * at + 1` (entry 1 is
/// the root, entry 0 is unused), and slot `s` is the leaf `size + s`.  The
/// spare leaves past the last node hold [`ResourceDemand::ZERO`].  That is
/// safe: a padded leaf fits only the zero demand, which every real leaf fits
/// too, and every real leaf lies to the left of every padded one — so the
/// leftmost fitting leaf is never a padded one.  The padding never raises a
/// maximum either, so a subtree of padding alone is never entered for a
/// non-zero demand.
///
/// Both walks are loops.  `first_fit_from` starts at the largest subtree
/// whose range begins at its start slot (the root for slot 0) and descends
/// left-first; on a miss it climbs past every right child it stands on (`at >>= at.trailing_ones()`) and steps to the
/// right sibling of the left child it lands on — the next subtree in
/// left-to-right order.  A debit rewrites its leaf and refreshes the maxima
/// bottom-up, and stops at the first ancestor whose maximum did not change:
/// every maximum above it is a function of values that did not move.
///
/// # The resumed search
///
/// `first_fit_resumed` remembers, for the last few demands it answered, the
/// slot of the answer, and starts the next search for an equal demand there.  That is exact while no free
/// vector has grown since: a debit only shrinks one, so no slot before the
/// remembered one — none of which fitted the demand then — fits it now.
/// The only write that grows a free vector is an undo, so one that takes
/// anything back forgets every remembered slot.  The memory is a small
/// table a demand hashes into, one demand per entry, so a search pays one
/// comparison for it; two demands that share an entry take turns.  An FFD
/// pass places equal demands one after the other, and the decision module's
/// queue repeats a few VM shapes over and over: most searches resume near
/// their answer instead of descending past every full node before it.
///
/// Every debit is logged — the slot and what it had free — so a caller can
/// `mark` a point and later `undo_to` it: how a multi-VM placement that fails
/// half-way is rolled back, and how the decision module takes its packing of
/// the last tick back to the first vjob that changed.
#[derive(Debug, Clone)]
pub struct FreeCapacityIndex {
    nodes: Vec<NodeId>,
    /// Leaf count: `nodes.len()` rounded up to a power of two.
    size: usize,
    /// Segment-tree maxima; the free vector of slot `s` is `tree[size + s]`.
    tree: Vec<ResourceDemand>,
    /// `(slot, what it had free)` of every debit not undone, oldest first.
    debits: Vec<(u32, ResourceDemand)>,
    /// Per entry, the last answered demand that hashes there and the slot
    /// of its answer (`nodes.len()` for none); slot 0 tells nothing.
    resume: [(ResourceDemand, u32); RESUMES],
}

/// How many demands a [`FreeCapacityIndex`] remembers the last answer of
/// (a power of two).
const RESUMES: usize = 32;

/// The entry of `FreeCapacityIndex::resume` that `demand` hashes to.
fn resume_entry(demand: &ResourceDemand) -> usize {
    let key = demand.memory.raw()
        ^ u64::from(demand.cpu.raw()).rotate_left(24)
        ^ demand.net.raw().rotate_left(48);
    let bits = RESUMES.trailing_zeros();
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - bits)) as usize
}

impl FreeCapacityIndex {
    /// Build the index over the given `(node, free)` pairs, in the order a
    /// linear first-fit scan would visit them.
    pub(crate) fn new(free: Vec<(NodeId, ResourceDemand)>) -> Self {
        let size = free.len().next_power_of_two();
        let mut tree = vec![ResourceDemand::ZERO; 2 * size];
        let mut nodes = Vec::with_capacity(free.len());
        for (slot, (node, free)) in free.into_iter().enumerate() {
            nodes.push(node);
            tree[size + slot] = free;
        }
        for at in (1..size).rev() {
            tree[at] = tree[2 * at].component_max(&tree[2 * at + 1]);
        }
        FreeCapacityIndex {
            nodes,
            size,
            tree,
            debits: Vec::new(),
            resume: [(ResourceDemand::ZERO, 0); RESUMES],
        }
    }

    /// Build the index from the full (empty-node) capacities of `config`.
    pub(crate) fn from_capacities(config: &Configuration) -> Self {
        Self::new(config.nodes().map(|n| (n.id, n.capacity())).collect())
    }

    /// Index the full capacities of `config` again, with no debit logged:
    /// [`FreeCapacityIndex::from_capacities`] on this index's buffers, so a
    /// decide that re-fits allocates nothing that grows with the cluster.
    pub(crate) fn reset(&mut self, config: &Configuration) {
        self.nodes.clear();
        self.nodes.extend(config.nodes().map(|n| n.id));
        self.size = self.nodes.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.size, ResourceDemand::ZERO);
        let leaves = &mut self.tree[self.size..];
        for (leaf, node) in leaves.iter_mut().zip(config.nodes()) {
            *leaf = node.capacity();
        }
        for at in (1..self.size).rev() {
            self.tree[at] = self.tree[2 * at].component_max(&self.tree[2 * at + 1]);
        }
        self.debits.clear();
        self.forget_resumes();
    }

    /// The node at a slot.
    pub(crate) fn node_at(&self, slot: usize) -> NodeId {
        self.nodes[slot]
    }

    /// The free vector at a slot.
    pub(crate) fn free_at(&self, slot: usize) -> ResourceDemand {
        assert!(slot < self.nodes.len(), "slot {slot} out of range");
        self.tree[self.size + slot]
    }

    /// The slot of the **first** node (in index order) whose free vector
    /// fits `demand` — exactly what a linear scan would return.
    pub(crate) fn first_fit(&self, demand: &ResourceDemand) -> Option<usize> {
        self.first_fit_from(demand, 0)
    }

    /// The first slot from `start` on whose free vector fits `demand` —
    /// what a linear scan that starts at `start` would return.
    pub(crate) fn first_fit_from(&self, demand: &ResourceDemand, start: usize) -> Option<usize> {
        if start >= self.nodes.len() {
            return None;
        }
        // The largest subtree whose range begins at `start`.
        let leaf = self.size + start;
        let mut at = leaf >> leaf.trailing_zeros();
        loop {
            if !demand.fits_in(&self.tree[at]) {
                // Climb past the right children, then take the right sibling
                // of the left child reached; past the root nothing is left.
                at >>= at.trailing_ones();
                if at == 0 {
                    return None;
                }
                at += 1;
            } else if at < self.size {
                at *= 2;
            } else {
                // A leaf's maximum is its actual free vector: the fit is
                // exact.
                return Some(at - self.size);
            }
        }
    }

    /// [`FreeCapacityIndex::first_fit`], resumed from the slot where the
    /// last search for an equal demand landed, and remembered for the next
    /// one (type docs).
    pub(crate) fn first_fit_resumed(&mut self, demand: &ResourceDemand) -> Option<usize> {
        let entry = resume_entry(demand);
        let (remembered, slot) = self.resume[entry];
        let start = if remembered == *demand {
            slot as usize
        } else {
            0
        };
        let found = self.first_fit_from(demand, start);
        debug_assert_eq!(
            found,
            self.first_fit(demand),
            "a resumed search skips a fit"
        );
        self.resume[entry] = (*demand, found.unwrap_or(self.nodes.len()) as u32);
        found
    }

    /// Forget every remembered answer: a free vector may have grown.
    fn forget_resumes(&mut self) {
        for (_, slot) in &mut self.resume {
            *slot = 0;
        }
    }

    /// Overwrite the free vector at a slot, and every maximum it moves.
    fn set(&mut self, slot: usize, value: ResourceDemand) {
        let mut at = self.size + slot;
        self.tree[at] = value;
        while at > 1 {
            at /= 2;
            let max = self.tree[2 * at].component_max(&self.tree[2 * at + 1]);
            if self.tree[at] == max {
                break;
            }
            self.tree[at] = max;
        }
    }

    /// Subtract `demand` from the free vector at a slot (saturating, like
    /// the linear packer).
    pub(crate) fn debit(&mut self, slot: usize, demand: &ResourceDemand) {
        let before = self.free_at(slot);
        self.debits.push((slot as u32, before));
        self.set(slot, before.saturating_sub(demand));
    }

    /// The point in the debit log to come back to with
    /// [`FreeCapacityIndex::undo_to`].
    pub(crate) fn mark(&self) -> usize {
        self.debits.len()
    }

    /// Take back, newest first, every debit made since `mark` was taken.
    /// One that takes anything back forgets the remembered answers.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        if self.debits.len() > mark {
            self.forget_resumes();
        }
        while self.debits.len() > mark {
            let (slot, before) = self.debits.pop().expect("longer than the mark");
            self.set(slot as usize, before);
        }
    }

    /// Tear the index back down into `(node, free)` pairs.
    #[cfg(test)]
    pub(crate) fn into_free(self) -> Vec<(NodeId, ResourceDemand)> {
        let leaves = &self.tree[self.size..];
        self.nodes.into_iter().zip(leaves.iter().copied()).collect()
    }
}

/// The demand every packer budgets for `vm`, currently in `state`: a waiting
/// VM weighs its reservation, any other its observed demand (see the module
/// docs).  The one place a packing demand is computed.
pub fn packing_demand(vm: &Vm, state: VmState) -> ResourceDemand {
    match state {
        VmState::Waiting => vm.reserved_demand(),
        _ => vm.demand(),
    }
}

/// The [`packing_demand`] of a VM `config` holds, or `None` when it holds
/// no such VM: one read of its assignment and one of its record.
pub(crate) fn packing_demand_in(config: &Configuration, vm: VmId) -> Option<ResourceDemand> {
    let state = config.state(vm).ok()?;
    Some(packing_demand(config.vm(vm).ok()?, state))
}

/// The working buffers of [`pack_decreasing`], owned by its caller so that
/// one that packs again and again — the decision module packs once per
/// vjob — allocates them once.
#[derive(Debug, Clone, Default)]
pub(crate) struct FfdScratch {
    /// The items, largest first.
    order: Vec<usize>,
    /// The slot chosen for each item, in item order.
    slots: Vec<usize>,
    /// Whether the first pass put each item on its preferred slot, in item
    /// order.
    kept: Vec<bool>,
}

/// The sort-decreasing / first-fit routine of Section 3.2, over items known
/// only by their demand, in two passes over the items taken largest first —
/// by decreasing (memory, CPU, network) demand, equal demands by ascending
/// `tie(item)`, then by item:
/// 1. every item whose `preferred(item)` slot of `index` still fits takes
///    it;
/// 2. every other item goes to the first slot that fits.
///
/// Each chosen slot is debited.  The passes keep what each slot still holds
/// of the items that prefer it: an item moved off one slot cannot first-fit
/// into another slot's room before that slot's own items are placed, which
/// would push more of them out than the slot must lose.  With no preferred
/// slots the first pass takes nothing and the second is plain first-fit
/// decreasing.
///
/// Returns the slot chosen for each item, in item order (in `scratch`), or
/// `None` — with `index` rolled back to how it was — when some item fits
/// nowhere.
pub(crate) fn pack_decreasing<'s, K: Ord>(
    demands: &[ResourceDemand],
    tie: impl Fn(usize) -> K,
    preferred: impl Fn(usize) -> Option<usize>,
    index: &mut FreeCapacityIndex,
    scratch: &'s mut FfdScratch,
) -> Option<&'s [usize]> {
    let FfdScratch { order, slots, kept } = scratch;
    order.clear();
    order.extend(0..demands.len());
    // The item closes the key, so the unstable sort orders as a stable one.
    order.sort_unstable_by_key(|&item| {
        let d = &demands[item];
        (
            std::cmp::Reverse((d.memory.raw(), d.cpu.raw(), d.net.raw())),
            tie(item),
            item,
        )
    });
    slots.clear();
    slots.resize(demands.len(), 0);
    kept.clear();
    kept.resize(demands.len(), false);
    let mark = index.mark();
    for &item in order.iter() {
        let demand = &demands[item];
        let slot = preferred(item).filter(|&slot| demand.fits_in(&index.free_at(slot)));
        if let Some(slot) = slot {
            index.debit(slot, demand);
            slots[item] = slot;
            kept[item] = true;
        }
    }
    for &item in order.iter().filter(|&&item| !kept[item]) {
        let demand = &demands[item];
        let Some(slot) = index.first_fit_resumed(demand) else {
            index.undo_to(mark);
            return None;
        };
        index.debit(slot, demand);
        slots[item] = slot;
    }
    Some(slots)
}

/// The First-Fit Decreasing packer.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitDecreasing;

impl FirstFitDecreasing {
    /// Try to place `vms` — each budgeted its [`packing_demand`] in `config`
    /// — on the free capacities of `index`, which the RJSP loop builds
    /// **once** per decide and threads through every vjob instead of
    /// re-scanning the node list.  Equal demands are placed by ascending VM
    /// id, so identical VMs keep a stable, intuitive order (and an
    /// already-packed cluster maps onto itself).
    ///
    /// All or nothing: returns the host chosen for each VM with `index`
    /// debited, or `None` with `index` untouched when some VM does not fit.
    /// Every VM must be known to `config`.
    pub(crate) fn place_indexed(
        config: &Configuration,
        vms: &[VmId],
        index: &mut FreeCapacityIndex,
    ) -> Option<BTreeMap<VmId, NodeId>> {
        let demand = |&vm| packing_demand_in(config, vm).expect("placed VMs are known");
        let demands: Vec<ResourceDemand> = vms.iter().map(demand).collect();
        let mut scratch = FfdScratch::default();
        let slots = Self::place_slots(vms, &demands, index, &mut scratch)?;
        Some(
            vms.iter()
                .zip(slots)
                .map(|(&vm, &slot)| (vm, index.node_at(slot)))
                .collect(),
        )
    }

    /// The slots [`FirstFitDecreasing::place_indexed`] chooses for `vms`,
    /// whose packing demands are `demands`, on caller-owned buffers.
    pub(crate) fn place_slots<'s>(
        vms: &[VmId],
        demands: &[ResourceDemand],
        index: &mut FreeCapacityIndex,
        scratch: &'s mut FfdScratch,
    ) -> Option<&'s [usize]> {
        pack_decreasing(demands, |item| vms[item].0, |_| None, index, scratch)
    }

    /// Compute a complete viable placement for every VM that must run: the
    /// "first completed viable configuration" baseline of Figure 10.
    ///
    /// `must_run` lists the VMs that must be in the Running state; every
    /// other VM is ignored (it consumes nothing).  Packing starts from empty
    /// nodes: the running VMs of the current configuration are re-placed
    /// too (they are part of `must_run`).  Returns `None` when the cluster
    /// cannot host them all.
    pub(crate) fn pack_all(
        config: &Configuration,
        must_run: &[VmId],
    ) -> Option<BTreeMap<VmId, NodeId>> {
        let mut index = FreeCapacityIndex::from_capacities(config);
        Self::place_indexed(config, must_run, &mut index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, Vm, VmAssignment};

    fn cluster(nodes: u32, cpu: u32, mem_gib: u64) -> Configuration {
        let mut c = Configuration::new();
        for i in 0..nodes {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(cpu),
                MemoryMib::gib(mem_gib),
            ))
            .unwrap();
        }
        c
    }

    fn add_vm(c: &mut Configuration, id: u32, mem_mib: u64, cpu_pct: u32) {
        c.add_vm(Vm::new(
            VmId(id),
            MemoryMib::mib(mem_mib),
            CpuCapacity::percent(cpu_pct),
        ))
        .unwrap();
    }

    /// An index over what the running VMs of `c` leave free on every node.
    fn free_index(c: &Configuration) -> FreeCapacityIndex {
        FreeCapacityIndex::new(
            c.usages()
                .into_iter()
                .map(|(node, usage)| (node, usage.free()))
                .collect(),
        )
    }

    /// Place on top of the running VMs of `c`.
    fn place(c: &Configuration, vms: &[VmId]) -> Option<BTreeMap<VmId, NodeId>> {
        FirstFitDecreasing::place_indexed(c, vms, &mut free_index(c))
    }

    fn pack_from_scratch(c: &Configuration, vms: &[VmId]) -> Option<BTreeMap<VmId, NodeId>> {
        FirstFitDecreasing::pack_all(c, vms)
    }

    #[test]
    fn places_when_there_is_room() {
        let mut c = cluster(2, 2, 4);
        for i in 0..4 {
            add_vm(&mut c, i, 1024, 100);
        }
        let placement = pack_from_scratch(&c, &[VmId(0), VmId(1), VmId(2), VmId(3)]).unwrap();
        assert_eq!(placement.len(), 4);
        // Two VMs per node (CPU is the binding constraint).
        let on_node0 = placement.values().filter(|&&n| n == NodeId(0)).count();
        assert_eq!(on_node0, 2);
    }

    #[test]
    fn fails_when_cpu_is_exhausted() {
        let mut c = cluster(1, 2, 8);
        for i in 0..3 {
            add_vm(&mut c, i, 512, 100);
        }
        assert!(pack_from_scratch(&c, &[VmId(0), VmId(1), VmId(2)]).is_none());
    }

    #[test]
    fn fails_when_memory_is_exhausted() {
        let mut c = cluster(1, 8, 2);
        for i in 0..3 {
            add_vm(&mut c, i, 1024, 10);
        }
        assert!(pack_from_scratch(&c, &[VmId(0), VmId(1), VmId(2)]).is_none());
    }

    #[test]
    fn accounts_for_already_running_vms() {
        let mut c = cluster(1, 2, 4);
        add_vm(&mut c, 0, 1024, 100);
        add_vm(&mut c, 1, 1024, 100);
        add_vm(&mut c, 2, 1024, 100);
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        // The node has 2 cores, both taken: a third busy VM cannot fit.
        assert!(place(&c, &[VmId(2)]).is_none());
    }

    #[test]
    fn larger_vms_are_placed_first() {
        // A big VM and two small ones on two asymmetrically-filled nodes:
        // placing the big one first is what makes the packing succeed.
        let mut c = cluster(2, 4, 3);
        add_vm(&mut c, 0, 2048, 10); // big
        add_vm(&mut c, 1, 1024, 10);
        add_vm(&mut c, 2, 1024, 10);
        let placement = pack_from_scratch(&c, &[VmId(1), VmId(2), VmId(0)]).unwrap();
        assert_eq!(placement.len(), 3);
        // The 2 GiB VM and one 1 GiB VM share a 3 GiB node, the other goes elsewhere.
        let node_of_big = placement[&VmId(0)];
        let sharing = placement.iter().filter(|(_, &n)| n == node_of_big).count();
        assert_eq!(sharing, 2);
    }

    #[test]
    fn incremental_packing_reuses_the_index() {
        let mut c = cluster(2, 2, 4);
        for i in 0..4 {
            add_vm(&mut c, i, 1024, 100);
        }
        let mut index = free_index(&c);
        let mut place =
            |c: &Configuration, vms: &[VmId]| FirstFitDecreasing::place_indexed(c, vms, &mut index);
        let first = place(&c, &[VmId(0), VmId(1)]).unwrap();
        let second = place(&c, &[VmId(2), VmId(3)]).unwrap();
        assert_eq!(first.len() + second.len(), 4);
        // A fifth busy VM does not fit anymore.
        add_vm(&mut c, 4, 512, 100);
        assert!(place(&c, &[VmId(4)]).is_none());
    }

    #[test]
    fn net_dimension_binds_the_packing() {
        // Two nodes with a 1 Gbps NIC; three running VMs pushing 600 Mbps
        // each: memory and CPU have room for all three on one node, the NIC
        // does not — the third VM cannot be placed at all.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(
                Node::new(NodeId(i), CpuCapacity::cores(8), MemoryMib::gib(64))
                    .with_net(NetBandwidth::gbps(1)),
            )
            .unwrap();
        }
        for i in 0..3 {
            c.add_vm(
                Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::percent(10))
                    .with_net(NetBandwidth::mbps(600)),
            )
            .unwrap();
        }
        assert!(pack_from_scratch(&c, &[VmId(0), VmId(1), VmId(2)]).is_none());
        let placement = pack_from_scratch(&c, &[VmId(0), VmId(1)]).unwrap();
        let nodes: std::collections::BTreeSet<NodeId> = placement.values().copied().collect();
        assert_eq!(nodes.len(), 2, "one 600 Mbps VM per 1 Gbps NIC");
    }

    #[test]
    fn reserved_policy_budgets_boots_by_their_reservation() {
        // A waiting VM created busy (reservation: 1 core) whose observed
        // demand was zeroed by the monitor: by what it shows it would be
        // crammed onto the full node, by what it reserved it is refused.
        let mut c = cluster(1, 1, 4);
        add_vm(&mut c, 0, 512, 100);
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        // The monitor observes an idle boot.
        c.set_vm_demand(VmId(1), CpuCapacity::ZERO, NetBandwidth::ZERO)
            .unwrap();
        let boot = c.vm(VmId(1)).unwrap();
        assert!(boot.demand().fits_in(&c.free(NodeId(0)).unwrap()));
        assert_eq!(
            packing_demand(boot, VmState::Waiting),
            boot.reserved_demand()
        );
        assert!(
            place(&c, &[VmId(1)]).is_none(),
            "the packing budgets the full core the boot will demand"
        );
        // Once the VM runs, it weighs what it shows: an idle running VM
        // packs at zero again.
        assert_eq!(packing_demand(boot, VmState::Running), boot.demand());
    }

    #[test]
    fn indexed_first_fit_matches_a_linear_scan() {
        // Free vectors chosen so the component-wise subtree maxima
        // over-promise: node 0 has CPU but no memory, node 1 memory but no
        // CPU — their max claims both.  The descent must backtrack and land
        // exactly where the linear scan does, for a demand mix that probes
        // every node.
        let free = vec![
            (
                NodeId(0),
                ResourceDemand::new(CpuCapacity::cores(4), MemoryMib::mib(100)),
            ),
            (
                NodeId(1),
                ResourceDemand::new(CpuCapacity::percent(10), MemoryMib::gib(8)),
            ),
            (
                NodeId(2),
                ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(2)),
            ),
            (
                NodeId(3),
                ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(16)),
            ),
        ];
        let index = FreeCapacityIndex::new(free.clone());
        let demands = [
            ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(64)),
            ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(1)),
            ResourceDemand::new(CpuCapacity::percent(5), MemoryMib::gib(4)),
            ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(2)),
            ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::gib(12)),
            ResourceDemand::new(CpuCapacity::cores(8), MemoryMib::mib(1)),
        ];
        for d in demands {
            let linear = free.iter().position(|(_, avail)| d.fits_in(avail));
            assert_eq!(index.first_fit(&d), linear, "demand {d}");
        }
    }

    #[test]
    fn the_index_answers_like_a_linear_scan_through_debits_and_undos() {
        // A seeded walk of debits, marks and undos over node counts that are
        // mostly not powers of two (so the tree carries padded leaves), the
        // index checked after every step against a plain vector of free
        // capacities: `first_fit`, the resumed search and `first_fit_from` a
        // seeded start against a left-to-right scan, for zero, oversized and
        // mixed-dimension demands (a padded leaf returned shows as a
        // different slot), `free_at` against the vector itself, and every
        // maximum of the tree against its two children.  Half the queries
        // repeat one of a few demands, so the resumed search resumes, across
        // debits and undos.
        use cwcs_model::SmallRng;
        fn demand(rng: &mut SmallRng) -> ResourceDemand {
            match rng.next_below(6) {
                0 => ResourceDemand::ZERO,
                // More than any node has on one dimension.
                1 => ResourceDemand::new(CpuCapacity::percent(10), MemoryMib::gib(64)),
                // Much of one dimension, little of the others.
                2 => ResourceDemand::new(CpuCapacity::cores(3), MemoryMib::mib(64)),
                3 => ResourceDemand::new(CpuCapacity::percent(5), MemoryMib::gib(3))
                    .with_net(NetBandwidth::mbps(rng.u64_in(0, 4) * 300)),
                _ => ResourceDemand::new(
                    CpuCapacity::percent(rng.u64_in(0, 8) as u32 * 25),
                    MemoryMib::mib(rng.u64_in(0, 8) * 256),
                )
                .with_net(NetBandwidth::mbps(rng.u64_in(0, 3) * 100)),
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x1dea);
        for nodes in [1u32, 2, 3, 5, 17, 1_000] {
            let free: Vec<(NodeId, ResourceDemand)> = (0..nodes)
                .map(|i| {
                    let cpu = CpuCapacity::percent(rng.u64_in(0, 9) as u32 * 50);
                    let memory = MemoryMib::mib(rng.u64_in(0, 9) * 512);
                    let net = NetBandwidth::mbps(rng.u64_in(0, 5) * 250);
                    (
                        NodeId(3 * i + 1),
                        ResourceDemand::new(cpu, memory).with_net(net),
                    )
                })
                .collect();
            let mut index = FreeCapacityIndex::new(free.clone());
            let mut oracle: Vec<ResourceDemand> = free.iter().map(|&(_, f)| f).collect();
            let repeated: Vec<ResourceDemand> = (0..4).map(|_| demand(&mut rng)).collect();
            let mut resumed = 0;
            // Marks taken and not undone past, each with the oracle then.
            let mut marks: Vec<(usize, Vec<ResourceDemand>)> = Vec::new();
            for step in 0..300 {
                match rng.next_below(10) {
                    0 => marks.push((index.mark(), oracle.clone())),
                    1 | 2 if !marks.is_empty() => {
                        let back = rng.index(marks.len());
                        marks.truncate(back + 1);
                        let (mark, then) = &marks[back];
                        index.undo_to(*mark);
                        oracle.clone_from(then);
                    }
                    _ => {
                        let slot = rng.index(nodes as usize);
                        let debit = demand(&mut rng);
                        index.debit(slot, &debit);
                        oracle[slot] = oracle[slot].saturating_sub(&debit);
                    }
                }
                for (slot, expected) in oracle.iter().enumerate() {
                    assert_eq!(index.free_at(slot), *expected, "{nodes} nodes, step {step}");
                }
                // Free capacity never rises above where it started, so a
                // maximum a refresh left stale over-promises and the answers
                // stay right: only the tree itself shows it.
                for at in 1..index.size {
                    let children = index.tree[2 * at].component_max(&index.tree[2 * at + 1]);
                    assert_eq!(
                        index.tree[at], children,
                        "{nodes} nodes, step {step}, entry {at}"
                    );
                }
                for _ in 0..12 {
                    let query = match rng.bool_with(0.5) {
                        true => repeated[rng.index(repeated.len())],
                        false => demand(&mut rng),
                    };
                    let linear = oracle.iter().position(|avail| query.fits_in(avail));
                    let at = format!("{nodes} nodes, step {step}, demand {query}");
                    let (remembered, slot) = index.resume[resume_entry(&query)];
                    resumed += usize::from(remembered == query && slot > 0);
                    assert_eq!(index.first_fit(&query), linear, "{at}");
                    assert_eq!(index.first_fit_resumed(&query), linear, "{at}, resumed");
                    let start = rng.index(nodes as usize + 1);
                    let from = oracle
                        .iter()
                        .skip(start)
                        .position(|avail| query.fits_in(avail));
                    let from = from.map(|slot| start + slot);
                    assert_eq!(
                        index.first_fit_from(&query, start),
                        from,
                        "{at}, from {start}"
                    );
                }
            }
            assert!(resumed > 100, "{nodes} nodes: {resumed} resumed searches");
            let nodes: Vec<NodeId> = free.iter().map(|&(node, _)| node).collect();
            let expected: Vec<_> = nodes.into_iter().zip(oracle).collect();
            assert_eq!(index.into_free(), expected);
        }
    }

    #[test]
    fn an_undo_forgets_the_remembered_answers() {
        // Two 4 GiB slots.  After a 3 GiB debit of slot 0, a 3 GiB search
        // lands on slot 1, and the index remembers it.  A mark with nothing
        // to undo keeps that; undoing the debit frees slot 0 again, which a
        // search resumed at slot 1 would miss.
        let gib = |g| ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::gib(g));
        let mut index = FreeCapacityIndex::new(vec![(NodeId(0), gib(4)), (NodeId(1), gib(4))]);
        let mark = index.mark();
        index.debit(0, &gib(3));
        assert_eq!(index.first_fit_resumed(&gib(3)), Some(1));
        let remembered = |index: &FreeCapacityIndex| index.resume[resume_entry(&gib(3))];
        assert_eq!(remembered(&index), (gib(3), 1));
        index.undo_to(index.mark());
        assert_eq!(
            remembered(&index),
            (gib(3), 1),
            "nothing undone, nothing forgotten"
        );
        index.undo_to(mark);
        let slots = index.resume.iter().map(|&(_, slot)| slot);
        assert!(
            slots.eq([0; RESUMES]),
            "an undo forgets every remembered answer"
        );
        assert_eq!(index.first_fit_resumed(&gib(3)), Some(0));
    }

    #[test]
    fn indexed_placement_matches_a_linear_packer() {
        let mut c = cluster(3, 2, 4);
        for i in 0..5 {
            add_vm(&mut c, i, 1024 + 512 * (i as u64 % 3), 60);
        }
        let vms: Vec<VmId> = (0..5).map(VmId).collect();
        let mut index = free_index(&c);
        // The oracle: largest first (memory, then id — CPU is uniform), each
        // VM on the first node a left-to-right scan finds room on.
        let mut free = index.clone().into_free();
        let mut ordered = vms.clone();
        ordered.sort_by_key(|&vm| (std::cmp::Reverse(c.vm(vm).unwrap().memory.raw()), vm.0));
        let mut linear = BTreeMap::new();
        for vm in ordered {
            let demand = c.vm(vm).unwrap().demand();
            let slot = free
                .iter()
                .position(|(_, avail)| demand.fits_in(avail))
                .unwrap();
            free[slot].1 = free[slot].1.saturating_sub(&demand);
            linear.insert(vm, free[slot].0);
        }
        let indexed = FirstFitDecreasing::place_indexed(&c, &vms, &mut index);
        assert_eq!(Some(linear), indexed);
        assert_eq!(index.into_free(), free, "the debits must agree too");
    }

    #[test]
    fn failed_indexed_placement_rolls_back() {
        let mut c = cluster(1, 1, 4);
        add_vm(&mut c, 0, 1024, 100);
        add_vm(&mut c, 1, 1024, 100);
        let mut index = free_index(&c);
        let before = index.clone().into_free();
        assert!(FirstFitDecreasing::place_indexed(&c, &[VmId(0), VmId(1)], &mut index).is_none());
        assert_eq!(index.mark(), 0, "nothing stays logged");
        assert_eq!(index.into_free(), before, "the undo log must restore it");
    }

    #[test]
    fn pack_all_ignores_current_placement() {
        let mut c = cluster(2, 1, 4);
        add_vm(&mut c, 0, 1024, 100);
        add_vm(&mut c, 1, 1024, 100);
        // Both crammed (non-viably) on node 0.
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        let placement = pack_from_scratch(&c, &[VmId(0), VmId(1)]).unwrap();
        let nodes: std::collections::BTreeSet<NodeId> = placement.values().copied().collect();
        assert_eq!(nodes.len(), 2, "packing from scratch spreads them out");
    }

    #[test]
    fn a_preferred_slot_is_taken_only_while_it_fits() {
        // Three 2 GiB items over two 4 GiB slots, all preferring slot 1:
        // the first two (ascending tie key) get it, the third overflows to
        // the first slot with room.
        let two_gib = ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::gib(2));
        let four_gib = ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::gib(4));
        let mut index = FreeCapacityIndex::new(vec![(NodeId(0), four_gib), (NodeId(1), four_gib)]);
        let mut scratch = FfdScratch::default();
        let slots = pack_decreasing(
            &[two_gib; 3],
            |item| 2 - item,
            |_| Some(1),
            &mut index,
            &mut scratch,
        );
        assert_eq!(slots, Some(&[0, 1, 1][..]));
    }

    #[test]
    fn an_item_that_fits_its_preferred_slot_is_never_displaced() {
        // Slot 0 (4 GiB) is preferred by two 3 GiB items and keeps one; the
        // other is evicted.  Slot 1 (4 GiB) is preferred by a 2 GiB and a
        // 1 GiB item, which both fit; slot 2 (3 GiB) is preferred by none.
        // Largest first in one pass, the evicted 3 GiB item would first-fit
        // into slot 1 before its own 2 GiB item, pushing that one out too.
        let gib = |g| ResourceDemand::new(CpuCapacity::ZERO, MemoryMib::gib(g));
        let free = vec![
            (NodeId(0), gib(4)),
            (NodeId(1), gib(4)),
            (NodeId(2), gib(3)),
        ];
        let mut index = FreeCapacityIndex::new(free);
        let mut scratch = FfdScratch::default();
        let preferred = [Some(0), Some(0), Some(1), Some(1)];
        let slots = pack_decreasing(
            &[gib(3), gib(3), gib(2), gib(1)],
            |item| item,
            |item| preferred[item],
            &mut index,
            &mut scratch,
        );
        assert_eq!(slots, Some(&[0, 2, 1, 1][..]));

        // Seeded: what each slot keeps of the items that prefer it is what
        // a largest-first fill of that slot alone keeps, whatever the other
        // slots' items need.
        use cwcs_model::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x2_9a55);
        let mut packed = 0;
        for case in 0..200 {
            let slots = rng.u64_in(1, 5) as usize;
            let room = |rng: &mut SmallRng| {
                ResourceDemand::new(
                    CpuCapacity::percent(rng.u64_in(0, 9) as u32 * 50),
                    MemoryMib::gib(rng.u64_in(0, 9)),
                )
            };
            let free: Vec<_> = (0..slots)
                .map(|s| (NodeId(s as u32), room(&mut rng)))
                .collect();
            let items = rng.u64_in(1, 10) as usize;
            let demands: Vec<_> = (0..items)
                .map(|_| {
                    ResourceDemand::new(
                        CpuCapacity::percent(rng.u64_in(0, 5) as u32 * 25),
                        MemoryMib::gib(rng.u64_in(0, 4)),
                    )
                })
                .collect();
            let preferred: Vec<Option<usize>> = (0..items)
                .map(|_| rng.bool_with(0.7).then(|| rng.index(slots)))
                .collect();
            let tie = |item: usize| items - item;
            let mut index = FreeCapacityIndex::new(free.clone());
            let Some(chosen) =
                pack_decreasing(&demands, tie, |i| preferred[i], &mut index, &mut scratch)
            else {
                continue;
            };
            packed += 1;
            let mut order: Vec<usize> = (0..items).collect();
            order.sort_by_key(|&i| {
                let d = &demands[i];
                (std::cmp::Reverse((d.memory.raw(), d.cpu.raw())), tie(i), i)
            });
            for (slot, &(_, room)) in free.iter().enumerate() {
                let mut left = room;
                let mut alone = Vec::new();
                for &i in &order {
                    if preferred[i] == Some(slot) && demands[i].fits_in(&left) {
                        left = left.saturating_sub(&demands[i]);
                        alone.push(i);
                    }
                }
                let kept: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| preferred[i] == Some(slot) && chosen[i] == slot)
                    .collect();
                assert_eq!(kept, alone, "case {case}, slot {slot}");
            }
        }
        assert!(packed > 100, "{packed} cases packed");
    }
}
