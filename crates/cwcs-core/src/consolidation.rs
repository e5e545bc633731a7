//! The sample FCFS dynamic-consolidation decision module (Section 3.2).
//!
//! Every iteration, the module solves the **Running Job Selection Problem**
//! (RJSP): select the maximum number of vjobs that can run simultaneously,
//! honouring the FCFS queue order (descending priority, then submission
//! order).  Starting from empty nodes, the VMs of each vjob of the queue are
//! packed with First-Fit Decreasing on top of the vjobs already accepted;
//! when the packing succeeds the vjob will run, otherwise it will sleep (if
//! it is currently running or sleeping) or keep waiting.  The module only
//! reads the observed configuration: the hosts the packing chose are the
//! decision's proof placement, and moving the VMs is the planner's business.
//!
//! Completed vjobs are terminated; their VMs will be stopped by the next
//! cluster-wide context switch.
//!
//! # What survives between decides
//!
//! What becomes of the vjob at queue position `p` is a function of the free
//! capacity the vjobs before it left and of its own inputs — its VM list and
//! state, whether it completed, the record and assignment of each of its VMs.
//! Between two ticks of a settled cluster nearly all of that is unchanged, so
//! the module keeps its last packing: a snapshot of the configuration it
//! decided on (a clone: it shares every chunk the cluster has not written
//! since), the queue with each vjob's inputs and outcome, the
//! [`FreeCapacityIndex`] all of them left, and — inside the index — the log
//! of its debits, cut per vjob.  The queue is flat: the VM lists and the
//! chosen hosts of all its vjobs sit back to back in two vectors, each vjob
//! holding a range of each, and a map gives every VM the first queue
//! position that names it.
//!
//! The next decide finds the **first queue position that changed**: the
//! smallest position the map gives a VM [`Configuration::changed_vms`] lists
//! against the snapshot, or — when it comes first — the first vjob that is
//! new, gone, moved, differently completed, in another state or with another
//! VM list.  It cuts the packing back to that position — truncating the
//! vectors, trimming the map and taking the index back to where that position
//! found it — and packs the queue from there.  The cost of a decide is the
//! vjobs it packs again plus the changed VMs, not the queue: a VM no vjob of
//! the kept packing names costs one map lookup.  Every position before the
//! cut would be packed exactly as it was, so the decision equals the one a
//! fresh module computes (a property test holds one long-lived module to
//! that).
//!
//! Four things drop the kept packing entirely, making the next decide the
//! full re-pack (from the nodes' whole capacities) a fresh module does: no
//! packing yet; a node record that differs from the snapshot
//! ([`Configuration::changed_nodes`] — a capacity moves what *every* vjob
//! found free, and a node set the index's slots); the first queue position
//! changed; and a decide that returned an error.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use cwcs_model::{Configuration, IdHashMap, NodeId, ResourceDemand, Vjob, VjobId, VjobState, VmId};

use crate::decision::{Decision, DecisionError, DecisionModule};
use crate::ffd::{packing_demand_in, FfdScratch, FirstFitDecreasing, FreeCapacityIndex};

/// The FCFS dynamic-consolidation policy.  It has no setting: what a VM
/// weighs in the RJSP packing is the rule of
/// [`packing_demand`](crate::ffd::packing_demand), so a boot is only admitted
/// when the cluster can hold the demand it is about to develop.
#[derive(Debug, Clone, Default)]
pub struct FcfsConsolidation {
    /// The packing of the last decide, to continue from (see the module
    /// docs).
    kept: Option<Packing>,
    /// The packing demands of the vjob being packed.
    demands: Vec<ResourceDemand>,
    /// The first-fit buffers, reused vjob after vjob.
    scratch: FfdScratch,
}

/// One RJSP packing: the queue in order, and what it left free.  The VM
/// lists and hosts of the queue are flat, so cutting the packing back is a
/// truncation and packing a vjob again allocates nothing.
#[derive(Debug, Clone)]
struct Packing {
    /// The configuration the packing was decided on.
    snapshot: Configuration,
    queue: Vec<Queued>,
    /// The VM lists of `queue`, back to back.
    vms: Vec<VmId>,
    /// The hosts of the vjobs of `queue` decided Running, back to back, each
    /// vjob's in the order of its VM list.
    hosts: Vec<(VmId, NodeId)>,
    /// For every VM of `vms`, the first queue position that names it.
    position: IdHashMap<VmId, u32>,
    /// What every vjob of `queue` left free, from empty nodes.
    free: FreeCapacityIndex,
}

/// A vjob of the queue: the inputs its outcome depends on beside the records
/// of its VMs, and the outcome.
#[derive(Debug, Clone)]
struct Queued {
    id: VjobId,
    /// Its VM list, in `Packing::vms`.
    vms: Range<usize>,
    state: VjobState,
    completed: bool,
    /// Where the debit log of `Packing::free` stood before this vjob.
    mark: usize,
    next: VjobState,
    /// The hosts its packing chose, in `Packing::hosts`; empty unless `next`
    /// is `Running`.
    hosts: Range<usize>,
}

impl FcfsConsolidation {
    /// Build the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Packing {
    /// No vjob packed yet on `current`'s nodes.
    fn new(current: &Configuration) -> Self {
        Packing {
            snapshot: current.clone(),
            queue: Vec::new(),
            vms: Vec::new(),
            hosts: Vec::new(),
            position: IdHashMap::default(),
            free: FreeCapacityIndex::from_capacities(current),
        }
    }

    /// Cut the packing back to its head that would be packed again exactly
    /// as it was, for `queue` on `current`: to nothing, from `current`'s
    /// whole capacities, when a node record changed; else to the first
    /// position that owns a changed VM or whose vjob differs.
    fn cut_to_unchanged_head(
        &mut self,
        current: &Configuration,
        queue: &[&Vjob],
        completed: &BTreeSet<VjobId>,
    ) {
        if current.changed_nodes(&self.snapshot).next().is_some() {
            self.queue.clear();
            self.vms.clear();
            self.hosts.clear();
            self.position.clear();
            self.free = FreeCapacityIndex::from_capacities(current);
            return;
        }
        let first_changed_vm = current
            .changed_vms(&self.snapshot)
            .filter_map(|vm| self.position.get(&vm))
            .min()
            .map_or(self.queue.len(), |&position| position as usize);
        let unchanged = |(was, vjob): &(&Queued, &&Vjob)| {
            was.id == vjob.id
                && was.state == vjob.state
                && was.completed == completed.contains(&vjob.id)
                && self.vms[was.vms.clone()] == vjob.vms[..]
        };
        let keep = self.queue[..first_changed_vm]
            .iter()
            .zip(queue)
            .take_while(unchanged)
            .count();
        self.truncate(keep);
    }

    /// Keep the first `keep` vjobs, and what they left free.
    fn truncate(&mut self, keep: usize) {
        let Some(first_cut) = self.queue.get(keep) else {
            return;
        };
        self.free.undo_to(first_cut.mark);
        for vm in &self.vms[first_cut.vms.start..] {
            if self.position.get(vm).is_some_and(|&at| at as usize >= keep) {
                self.position.remove(vm);
            }
        }
        self.vms.truncate(first_cut.vms.start);
        self.hosts.truncate(first_cut.hosts.start);
        self.queue.truncate(keep);
    }
}

/// True when, on every node, the packing demands of the VMs `placement` puts
/// there fit the node's capacity: what makes a placement a proof.
fn fits(current: &Configuration, placement: &BTreeMap<VmId, NodeId>) -> bool {
    let mut load: BTreeMap<NodeId, ResourceDemand> = BTreeMap::new();
    for (&vm, &node) in placement {
        let demand = packing_demand_in(current, vm).expect("placed VMs are known");
        *load.entry(node).or_insert(ResourceDemand::ZERO) += demand;
    }
    load.iter().all(|(&node, used)| {
        let host = current.node(node).expect("hosts are nodes");
        used.fits_in(&host.capacity())
    })
}

impl DecisionModule for FcfsConsolidation {
    fn decide(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
    ) -> Result<Decision, DecisionError> {
        // Queue: every non-terminated vjob, by descending priority then
        // submission order (the FCFS queue of the paper).
        let mut queue: Vec<&Vjob> = vjobs
            .iter()
            .filter(|j| j.state != VjobState::Terminated)
            .collect();
        queue.sort_by_key(|j| j.queue_key());

        // Free resources per node, starting from empty nodes — the RJSP packs
        // every selected vjob from scratch — or from where the unchanged head
        // of the last queue left them, which is the same thing.  The
        // first-fit index is debited vjob by vjob, so a 10k-node decide costs
        // O(VMs × log nodes) instead of O(VMs × nodes).  Taken out of `self`:
        // a decide that fails keeps nothing.
        let mut packing = self.kept.take().unwrap_or_else(|| Packing::new(current));
        packing.cut_to_unchanged_head(current, &queue, completed);

        for vjob in &queue[packing.queue.len()..] {
            // Read for every queued vjob, completed ones included, and
            // before its packing: a VM the configuration does not hold is
            // an error.
            self.demands.clear();
            for &vm in &vjob.vms {
                let demand = packing_demand_in(current, vm);
                self.demands
                    .push(demand.ok_or(DecisionError::UnknownVjob(vjob.id))?);
            }
            let mark = packing.free.mark();
            let is_completed = completed.contains(&vjob.id);
            let hosts_start = packing.hosts.len();
            // Completed vjobs are terminated whatever the packing says; the
            // others are packed on top of the already-accepted ones, and a
            // vjob there is no room for sleeps if it has already run, keeps
            // waiting otherwise.
            let next = if is_completed {
                VjobState::Terminated
            } else if let Some(slots) = FirstFitDecreasing::place_slots(
                &vjob.vms,
                &self.demands,
                &mut packing.free,
                &mut self.scratch,
            ) {
                let free = &packing.free;
                let hosts = vjob.vms.iter().zip(slots);
                packing
                    .hosts
                    .extend(hosts.map(|(&vm, &slot)| (vm, free.node_at(slot))));
                VjobState::Running
            } else {
                match vjob.state {
                    VjobState::Running | VjobState::Sleeping => VjobState::Sleeping,
                    waiting => waiting,
                }
            };
            let position = packing.queue.len() as u32;
            let vms_start = packing.vms.len();
            packing.vms.extend_from_slice(&vjob.vms);
            for &vm in &vjob.vms {
                packing.position.entry(vm).or_insert(position);
            }
            packing.queue.push(Queued {
                id: vjob.id,
                vms: vms_start..packing.vms.len(),
                state: vjob.state,
                completed: is_completed,
                mark,
                next,
                hosts: hosts_start..packing.hosts.len(),
            });
        }

        // Terminated vjobs keep their state; a queued one gets its outcome
        // (collecting keeps the last of equal keys).
        let own_states = vjobs.iter().map(|j| (j.id, j.state));
        let outcomes = packing.queue.iter().map(|q| (q.id, q.next));
        let decision = Decision {
            vjob_states: own_states.chain(outcomes).collect(),
            proof_placement: packing.hosts.iter().copied().collect(),
        };
        debug_assert!(
            fits(current, &decision.proof_placement),
            "the RJSP proof placement must be viable"
        );
        packing.snapshot = current.clone();
        self.kept = Some(packing);
        Ok(decision)
    }

    fn name(&self) -> &str {
        "fcfs-dynamic-consolidation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, Vm, VmAssignment};

    /// 3 uniprocessor nodes, 3 vjobs: the Figure 6 scenario.
    ///
    /// * vjob 1: two VMs, one busy — currently running;
    /// * vjob 2: two busy VMs — currently running;
    /// * vjob 3: one busy VM — waiting.
    fn figure_6() -> (Configuration, Vec<Vjob>) {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        // vjob 1: VMs 0 (idle) and 1 (busy)
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(512),
            CpuCapacity::percent(10),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        // vjob 2: VMs 2 and 3, both busy
        c.add_vm(Vm::new(VmId(2), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(3), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        // vjob 3: VM 4, busy
        c.add_vm(Vm::new(VmId(4), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();

        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();
        c.set_assignment(VmId(3), VmAssignment::running(NodeId(2)))
            .unwrap();

        let mut vjob1 = Vjob::new(VjobId(1), vec![VmId(0), VmId(1)], 0);
        vjob1.transition_to(VjobState::Running).unwrap();
        let mut vjob2 = Vjob::new(VjobId(2), vec![VmId(2), VmId(3)], 1);
        vjob2.transition_to(VjobState::Running).unwrap();
        let vjob3 = Vjob::new(VjobId(3), vec![VmId(4)], 2);
        (c, vec![vjob1, vjob2, vjob3])
    }

    #[test]
    fn figure_6_selects_vjob_1_and_3() {
        // The cluster has 3 processing units; vjob 1 needs 1 busy unit,
        // vjob 2 needs 2, vjob 3 needs 1.  With the FCFS queue [1, 2, 3]:
        // vjob 1 fits, vjob 2 would need 2 more units on distinct nodes of
        // the remaining 2... it actually fits too.  Shrink the cluster to
        // 2 nodes to reproduce the overload: see the dedicated test below.
        // Here we simply check the happy path with all three accepted.
        let (c, vjobs) = figure_6();
        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &vjobs, &BTreeSet::new()).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(1)], VjobState::Running);
        assert_eq!(decision.vjob_states[&VjobId(3)], VjobState::Running);
    }

    #[test]
    fn overloaded_cluster_suspends_the_later_vjob() {
        // Remove one node: 2 processing units for 4 busy VMs.  vjob 1 (1 busy
        // VM + 1 idle VM) fits, vjob 2 (2 busy VMs) does not — it is
        // suspended — and vjob 3 (1 busy VM) fits in the freed unit.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        // VM 0 is fully idle, like the gray-free VMs of Figure 6: it can
        // share a processing unit with a busy VM.
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::ZERO))
            .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(2), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(3), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(4), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();
        // VM 3 of vjob 2 crammed on node 1 as well: the cluster is overloaded.
        c.set_assignment(VmId(3), VmAssignment::running(NodeId(1)))
            .unwrap();

        let mut vjob1 = Vjob::new(VjobId(1), vec![VmId(0), VmId(1)], 0);
        vjob1.transition_to(VjobState::Running).unwrap();
        let mut vjob2 = Vjob::new(VjobId(2), vec![VmId(2), VmId(3)], 1);
        vjob2.transition_to(VjobState::Running).unwrap();
        let vjob3 = Vjob::new(VjobId(3), vec![VmId(4)], 2);
        let vjobs = vec![vjob1, vjob2, vjob3];

        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &vjobs, &BTreeSet::new()).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(1)], VjobState::Running);
        assert_eq!(
            decision.vjob_states[&VjobId(2)],
            VjobState::Sleeping,
            "overload suspends vjob 2"
        );
        assert_eq!(
            decision.vjob_states[&VjobId(3)],
            VjobState::Running,
            "vjob 3 backfills"
        );
        // Only the vjobs that run are placed, every VM of them.
        let placed: Vec<VmId> = decision.proof_placement.keys().copied().collect();
        assert_eq!(placed, vec![VmId(0), VmId(1), VmId(4)]);
    }

    #[test]
    fn waiting_vjob_that_does_not_fit_keeps_waiting() {
        let (mut c, vjobs) = figure_6();
        // Make vjob 3 huge so it cannot fit: rebuild its (waiting) VM with
        // the memory it needs.
        c.remove_vm(VmId(4)).unwrap();
        c.add_vm(Vm::new(VmId(4), MemoryMib::gib(16), CpuCapacity::cores(1)))
            .unwrap();
        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &vjobs, &BTreeSet::new()).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(3)], VjobState::Waiting);
    }

    #[test]
    fn a_running_vjob_that_no_longer_fits_sleeps_and_the_one_behind_it_backfills() {
        // Two single-core nodes.  vjob 1 (VM 0, busy) fills node 0; vjob 2
        // (VMs 1 and 2, half a core each) fills node 1; vjob 3 (VM 3, waiting
        // for 40 % of a core) finds no room.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        for (vm, cpu, host) in [
            (0, 100, Some(0)),
            (1, 50, Some(1)),
            (2, 50, Some(1)),
            (3, 40, None),
        ] {
            c.add_vm(Vm::new(
                VmId(vm),
                MemoryMib::mib(512),
                CpuCapacity::percent(cpu),
            ))
            .unwrap();
            if let Some(host) = host {
                c.set_assignment(VmId(vm), VmAssignment::running(NodeId(host)))
                    .unwrap();
            }
        }
        let mut vjobs = vec![
            Vjob::new(VjobId(1), vec![VmId(0)], 0),
            Vjob::new(VjobId(2), vec![VmId(1), VmId(2)], 1),
            Vjob::new(VjobId(3), vec![VmId(3)], 2),
        ];
        for vjob in &mut vjobs[..2] {
            vjob.transition_to(VjobState::Running).unwrap();
        }
        let states = |decision: &Decision| {
            let states = [VjobId(1), VjobId(2), VjobId(3)].map(|id| decision.vjob_states[&id]);
            states.to_vec()
        };
        let mut module = FcfsConsolidation::new();
        let before = module.decide(&c, &vjobs, &BTreeSet::new()).unwrap();
        use VjobState::{Running, Sleeping, Waiting};
        assert_eq!(states(&before), [Running, Running, Waiting]);

        // VM 1 turns busy: vjob 2 now needs a core and a half.  It has run,
        // so it sleeps; vjob 3 boots in the room it leaves.
        c.set_vm_demand(VmId(1), CpuCapacity::cores(1), NetBandwidth::ZERO)
            .unwrap();
        let fresh = FcfsConsolidation::new()
            .decide(&c, &vjobs, &BTreeSet::new())
            .unwrap();
        assert_eq!(states(&fresh), [Running, Sleeping, Running]);
        let placed: Vec<_> = fresh.proof_placement.iter().collect();
        assert_eq!(placed, [(&VmId(0), &NodeId(0)), (&VmId(3), &NodeId(1))]);

        // The module that decided the previous tick keeps vjob 1's packing —
        // nothing it depends on moved — re-packs from vjob 2 on, and decides
        // the same.
        let queue: Vec<&Vjob> = vjobs.iter().collect();
        let mut kept = module.kept.clone().expect("the last packing is kept");
        kept.cut_to_unchanged_head(&c, &queue, &BTreeSet::new());
        assert_eq!(kept.queue.len(), 1);
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()).unwrap(), fresh);
        // And once nothing moves, the whole queue is kept.
        let mut kept = module.kept.clone().expect("the last packing is kept");
        kept.cut_to_unchanged_head(&c, &queue, &BTreeSet::new());
        assert_eq!(kept.queue.len(), 3);
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()).unwrap(), fresh);
    }

    #[test]
    fn a_decide_repacks_from_the_first_changed_vjob_only() {
        // Two-core / 4 GiB nodes and a 2 000-vjob queue of two-VM vjobs that
        // about fills them, committed to the states and hosts of a first
        // decide.
        let mut c = Configuration::new();
        for i in 0..2_000 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
            c.add_node(node).unwrap();
        }
        let mut vjobs = Vec::new();
        for job in 0..2_000u32 {
            let vms = vec![VmId(2 * job), VmId(2 * job + 1)];
            for (k, &vm) in (0..).zip(&vms) {
                let cpu = CpuCapacity::percent(25 * ((job + k) % 7 + 1));
                let memory = MemoryMib::mib(512 * u64::from((3 * job + k) % 5 + 1));
                c.add_vm(Vm::new(vm, memory, cpu)).unwrap();
            }
            vjobs.push(Vjob::new(VjobId(job), vms, u64::from(job)));
        }
        let none = BTreeSet::new();
        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &vjobs, &none).unwrap();
        for vjob in &mut vjobs {
            if decision.vjob_states[&vjob.id] == VjobState::Running {
                vjob.transition_to(VjobState::Running).unwrap();
                for vm in &vjob.vms {
                    let host = VmAssignment::running(decision.proof_placement[vm]);
                    c.set_assignment(*vm, host).unwrap();
                }
            }
        }
        let settled = module.decide(&c, &vjobs, &none).unwrap();
        let states = settled.vjob_states.values();
        let waiting = states.filter(|&&state| state == VjobState::Waiting).count();
        assert!(waiting > 0, "the queue overflows the cluster");

        let queue: Vec<&Vjob> = vjobs.iter().collect();
        for (round, position) in [1999, 0, 1, 777, 1998, 1000, 3].into_iter().enumerate() {
            // One VM of the vjob at `position` changes its demand: every
            // vjob before it is kept, none after it.
            let vm = vjobs[position].vms[round % 2];
            let cpu = CpuCapacity::percent(5 * (round as u32 + 1));
            assert!(c.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap());
            let mut kept = module.kept.clone().expect("the last packing is kept");
            kept.cut_to_unchanged_head(&c, &queue, &none);
            assert_eq!(kept.queue.len(), position, "change at {position}");
            let fresh = FcfsConsolidation::new().decide(&c, &vjobs, &none);
            assert_eq!(
                module.decide(&c, &vjobs, &none),
                fresh,
                "change at {position}"
            );

            // The position map names, for every kept VM, the first vjob
            // whose list holds it — and nothing else.
            let packing = module.kept.as_ref().expect("the last packing is kept");
            let mut first_named = IdHashMap::default();
            for (at, queued) in (0..).zip(&packing.queue) {
                for &vm in &packing.vms[queued.vms.clone()] {
                    first_named.entry(vm).or_insert(at);
                }
            }
            assert_eq!(packing.position, first_named, "change at {position}");
        }
    }

    #[test]
    fn completed_vjobs_are_terminated() {
        let (c, vjobs) = figure_6();
        let mut module = FcfsConsolidation::new();
        let completed: BTreeSet<VjobId> = [VjobId(1)].into_iter().collect();
        let decision = module.decide(&c, &vjobs, &completed).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(1)], VjobState::Terminated);
        // Its resources are recycled for the others.
        assert_eq!(decision.vjob_states[&VjobId(2)], VjobState::Running);
        assert_eq!(decision.vjob_states[&VjobId(3)], VjobState::Running);
    }

    #[test]
    fn priorities_override_submission_order() {
        let (c, mut vjobs) = figure_6();
        // Give vjob 3 a higher priority: it must be considered before the
        // others and therefore always run.
        vjobs[2].priority = 10;
        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &vjobs, &BTreeSet::new()).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(3)], VjobState::Running);
    }

    #[test]
    fn sleeping_vjobs_are_reconsidered() {
        // A sleeping vjob and plenty of free resources: it must be resumed.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        c.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(0)))
            .unwrap();
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        vjob.transition_to(VjobState::Sleeping).unwrap();
        let mut module = FcfsConsolidation::new();
        let decision = module.decide(&c, &[vjob], &BTreeSet::new()).unwrap();
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);
    }

    #[test]
    fn a_vjob_naming_an_unknown_vm_is_an_error_not_a_panic() {
        // Whatever would become of the vjob — run, keep waiting for lack of
        // room, or terminate — and wherever it stands in the queue.
        let (c, mut vjobs) = figure_6();
        vjobs[2].vms.push(VmId(99));
        let mut module = FcfsConsolidation::new();
        let unknown = Err(DecisionError::UnknownVjob(VjobId(3)));
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()), unknown);
        let completed: BTreeSet<VjobId> = [VjobId(3)].into_iter().collect();
        assert_eq!(module.decide(&c, &vjobs, &completed), unknown);
        vjobs[2].vms = vec![VmId(99); 8];
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()), unknown);
    }
}
