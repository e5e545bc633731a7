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
//! The queue carries each vjob's index in the `vjobs` slice, so the
//! decision's [`transitions`](Decision::transitions) — the vjobs whose
//! outcome differs from their state, sorted by index — are read off it with
//! no lookup.  [`Decision::vjob_states`], which the repo benchmark's
//! adapter reads, lists those transitions and nothing else.  The proof
//! placement is the packing's flat host list itself, shared with the
//! decision: the next decide patches it in place when the decision has been
//! dropped by then, and copies it first otherwise.  No vjob that keeps its
//! state costs the decision anything.
//!
//! Completed vjobs are terminated; their VMs will be stopped by the next
//! cluster-wide context switch.
//!
//! # What survives between decides
//!
//! What becomes of the vjob at queue position `p` is a function of the free
//! capacity the vjobs before it left and of its own inputs — its queue key, VM
//! list and state, whether it completed, the record and assignment of each of
//! its VMs.  Between two ticks of a settled cluster nearly all of that is
//! unchanged, so the module keeps its last packing: a snapshot of the
//! configuration it decided on (a clone: it shares every chunk the cluster has
//! not written since), the queue **sorted**, with each vjob's index, inputs
//! and outcome, the [`FreeCapacityIndex`] all of them left, and — inside the
//! index — the log of its debits, cut per vjob.  The queue is flat: the VM
//! lists and the chosen hosts of all its vjobs sit back to back in two
//! vectors, each vjob holding a range of each, and a map gives every VM the
//! first queue position that names it.  Beside the queue it keeps, per index
//! of the slice, the vjob's id, its state and its queue position, and the
//! transitions of the queue, by index.
//!
//! The next decide learns which vjobs changed in one of two ways.  The
//! control loop, the only writer of its vjob slice, hands the list of the
//! indices it wrote ([`DecisionModule::decide_changed`]); a plain
//! [`decide`](DecisionModule::decide) compares every kept index with the
//! slice to derive the same list.  Both feed one path: a listed vjob is
//! queued again whether or not it changed, and so is every vjob appended
//! since (debug builds check a handed list against the walk).  The module
//! then finds the **first queue position that changed**: the smallest
//! position the map gives a VM [`Configuration::changed_vms`] lists against
//! the snapshot, of a changed vjob, or where the first changed or new vjob
//! that is not terminated now ranks (one binary search of the sorted
//! queue).  It cuts the packing back to that position —
//! truncating the vectors, trimming the map and taking the index back to
//! where that position found it — and packs the tail again.  The tail is
//! re-merged in one pass: the kept vjobs after the cut that did not change,
//! in their order, and the changed and new ones that are not terminated,
//! sorted by their key, one into the other — a terminated vjob drops out,
//! and no vjob is removed from the middle of a vector.  The transitions of
//! the positions before
//! the cut are kept; those of the tail are read off its packing.  The cost of
//! a decide is the changed vjobs, the vjobs it packs again and the changed
//! VMs, not the queue: a VM no vjob of the kept packing names costs one map
//! lookup.  Every position before the cut would be packed exactly as it was,
//! so the decision equals the one a fresh module computes (a property test
//! holds one long-lived module to that, fed the list and walking).
//!
//! Four things drop the kept packing entirely, making the next decide the
//! full re-pack (from the nodes' whole capacities) of the whole queue, sorted
//! afresh, that a fresh module does: no packing yet; a node record that
//! differs from the snapshot ([`Configuration::changed_nodes`] — a capacity
//! moves what *every* vjob found free, and a node set the index's slots); a
//! decide that returned an error; and [`forget`](DecisionModule::forget),
//! which the control loop calls on a full observation.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use cwcs_model::{Configuration, IdHashMap, NodeId, ResourceDemand, Vjob, VjobId, VjobState, VmId};

use crate::decision::{Decision, DecisionError, DecisionModule, Transition};
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
    /// The indices of the vjobs that changed since the kept packing.
    changes: Vec<usize>,
    /// The ranks of the changed vjobs to queue again, then the indices of
    /// the tail to pack.
    requeued: Vec<Rank>,
    tail: Vec<u32>,
}

/// Where a vjob stands in the FCFS queue: its [`Vjob::queue_key`], then its
/// index in the slice — the order a stable sort by the key leaves.
type Rank = ((Reverse<u32>, u64, u32), u32);

/// The rank of the vjob at `index`.
fn rank(index: usize, vjob: &Vjob) -> Rank {
    (vjob.queue_key(), index as u32)
}

/// The queue position of a vjob the queue does not hold: a terminated one.
const UNQUEUED: u32 = u32::MAX;

/// One RJSP packing: the queue in order, and what it left free.  The VM
/// lists and hosts of the queue are flat, so cutting the packing back is a
/// truncation and packing a vjob again allocates nothing.
#[derive(Debug, Clone)]
struct Packing {
    /// The configuration the packing was decided on.
    snapshot: Configuration,
    /// Every vjob that is not terminated, by rank.
    queue: Vec<Queued>,
    /// The VM lists of `queue`, back to back.
    vms: Vec<VmId>,
    /// The hosts of the vjobs of `queue` decided Running, back to back, each
    /// vjob's in the order of its VM list: the proof placement of the last
    /// decision, which shares it.
    hosts: Arc<Vec<(VmId, NodeId)>>,
    /// For every VM of `vms`, the first queue position that names it.
    position: IdHashMap<VmId, u32>,
    /// What every vjob of `queue` left free, from empty nodes.
    free: FreeCapacityIndex,
    /// What the packing read of each vjob of the slice it was decided for,
    /// by index.
    seen: Vec<Seen>,
    /// The transitions of `queue`, by ascending index: the last decision's.
    transitions: Vec<Transition>,
}

/// A vjob of the slice as the packing read it.
#[derive(Debug, Clone, Copy)]
struct Seen {
    id: VjobId,
    state: VjobState,
    /// Its position in the queue, or [`UNQUEUED`].
    at: u32,
}

/// A vjob of the queue: the inputs its outcome depends on beside the records
/// of its VMs, and the outcome.
#[derive(Debug, Clone)]
struct Queued {
    rank: Rank,
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

impl Queued {
    /// Its transition, when its outcome differs from its state.
    fn transition(&self) -> Option<Transition> {
        (self.next != self.state).then_some(Transition {
            index: self.rank.1 as usize,
            vjob: self.id,
            from: self.state,
            to: self.next,
        })
    }
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
            hosts: Arc::default(),
            position: IdHashMap::default(),
            free: FreeCapacityIndex::from_capacities(current),
            seen: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Pack nothing on `current`'s nodes any more, keeping the buffers.
    fn clear(&mut self, current: &Configuration) {
        self.snapshot = current.clone();
        self.queue.clear();
        self.vms.clear();
        Arc::make_mut(&mut self.hosts).clear();
        self.position.clear();
        self.free = FreeCapacityIndex::from_capacities(current);
        self.seen.clear();
        self.transitions.clear();
    }

    /// True when the vjob at `index` of `vjobs` is not the one the packing
    /// read there, or has other inputs: id, state, queue key, completion or
    /// VM list.  False for an index the packing never read.
    fn changed_at(&self, index: usize, vjobs: &[Vjob], completed: &BTreeSet<VjobId>) -> bool {
        let (Some(seen), Some(vjob)) = (self.seen.get(index), vjobs.get(index)) else {
            return false;
        };
        if (seen.id, seen.state) != (vjob.id, vjob.state) {
            return true;
        }
        let Some(queued) = self.queue.get(seen.at as usize) else {
            return false;
        };
        queued.rank != rank(index, vjob)
            || queued.completed != completed.contains(&vjob.id)
            || self.vms[queued.vms.clone()] != vjob.vms[..]
    }

    /// How many vjobs of `vjobs` the packing read: those after them are
    /// new.
    fn read(&self, vjobs: &[Vjob]) -> usize {
        self.seen.len().min(vjobs.len())
    }

    /// The indices of the vjobs of `vjobs` the packing read that changed
    /// since, found by comparing every one.
    fn walk(&self, vjobs: &[Vjob], completed: &BTreeSet<VjobId>) -> Vec<usize> {
        let read = 0..self.read(vjobs);
        read.filter(|&index| self.changed_at(index, vjobs, completed))
            .collect()
    }

    /// The first queue position that changed (module docs): the smallest
    /// position of a VM that changed on `current`, of a vjob of `changes`
    /// (indices the packing read) or gone from `vjobs`, or where a vjob of
    /// `changes` or new in `vjobs` that is not terminated ranks now.
    fn cut(&self, current: &Configuration, vjobs: &[Vjob], changes: &[usize]) -> usize {
        let first_changed_vm = current
            .changed_vms(&self.snapshot)
            .filter_map(|vm| self.position.get(&vm))
            .min()
            .map_or(self.queue.len(), |&position| position as usize);
        let gone = self.seen.get(vjobs.len()..).unwrap_or_default();
        let was_at = changes.iter().map(|&index| &self.seen[index]);
        let was_at = was_at.chain(gone).map(|seen| seen.at as usize);
        // Where the first of them ranks now: one search.
        let requeued = changes.iter().copied().chain(self.read(vjobs)..vjobs.len());
        let live = requeued.filter(|&index| vjobs[index].state != VjobState::Terminated);
        let first_rank = live.map(|index| rank(index, &vjobs[index])).min();
        let ranks_at =
            first_rank.map(|rank| self.queue.partition_point(|queued| queued.rank < rank));
        was_at.chain(ranks_at).fold(first_changed_vm, usize::min)
    }

    /// Cut the packing back to `cut` for `vjobs`, whose `changes` (indices
    /// the packing read, each once) it learns, and leave in `tail`, by rank,
    /// the indices of the vjobs to pack from there: the kept ones after the
    /// cut that did not change, and the changed or new ones that are not
    /// terminated.  `requeued` is a buffer.
    fn requeue(
        &mut self,
        cut: usize,
        vjobs: &[Vjob],
        changes: &[usize],
        requeued: &mut Vec<Rank>,
        tail: &mut Vec<u32>,
    ) {
        let read = self.read(vjobs);
        self.seen.truncate(read);
        let unqueued = |vjob: &Vjob| Seen {
            id: vjob.id,
            state: vjob.state,
            at: UNQUEUED,
        };
        for &index in changes {
            self.seen[index] = unqueued(&vjobs[index]);
        }
        self.seen.extend(vjobs[read..].iter().map(unqueued));

        requeued.clear();
        let changed = changes.iter().copied().chain(read..vjobs.len());
        let live = changed.filter(|&index| vjobs[index].state != VjobState::Terminated);
        requeued.extend(live.map(|index| rank(index, &vjobs[index])));
        requeued.sort_unstable();
        // A kept vjob stays where the packing still places it: not changed,
        // not gone.
        let seen = &self.seen;
        let stays = (cut..).zip(&self.queue[cut..]);
        let stays = stays.filter(|&(at, queued)| {
            let seen = seen.get(queued.rank.1 as usize);
            seen.is_some_and(|seen| seen.at as usize == at)
        });
        let mut stays = stays.map(|(_, queued)| queued.rank).peekable();
        let mut moved = requeued.iter().copied().peekable();
        tail.clear();
        loop {
            let next = match (stays.peek(), moved.peek()) {
                (Some(kept), Some(changed)) if kept < changed => stays.next(),
                (_, Some(_)) => moved.next(),
                (Some(_), None) => stays.next(),
                (None, None) => break,
            };
            tail.extend(next.map(|(_, index)| index));
        }
        self.truncate(cut);
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
        Arc::make_mut(&mut self.hosts).truncate(first_cut.hosts.start);
        self.queue.truncate(keep);
    }
}

/// True when, on every node, the packing demands of the VMs `hosts` puts
/// there fit the node's capacity: what makes a placement a proof.  A VM
/// listed twice counts once, on its last host.  Two allocations, whatever
/// the number of hosts.
fn fits(current: &Configuration, hosts: &[(VmId, NodeId)]) -> bool {
    let mut placement = IdHashMap::with_capacity_and_hasher(hosts.len(), Default::default());
    placement.extend(hosts.iter().copied());
    let mut load: IdHashMap<NodeId, ResourceDemand> =
        IdHashMap::with_capacity_and_hasher(current.node_count(), Default::default());
    for (vm, node) in placement {
        let demand = packing_demand_in(current, vm).expect("placed VMs are known");
        *load.entry(node).or_insert(ResourceDemand::ZERO) += demand;
    }
    load.iter().all(|(&node, used)| {
        let host = current.node(node).expect("hosts are nodes");
        used.fits_in(&host.capacity())
    })
}

impl FcfsConsolidation {
    /// The one decide path: continue the kept packing from what `changed`
    /// lists — `None` when there is no list, so the packing is made afresh
    /// (module docs).
    fn decide_from(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
        changed: Option<&[usize]>,
    ) -> Result<Decision, DecisionError> {
        // Taken out of `self`: a decide that fails keeps nothing.  A node
        // record that moved moves what every vjob found free: the packing
        // starts over, and every vjob is appended to it.
        let (mut packing, changed) = match (self.kept.take(), changed) {
            (Some(packing), Some(changed))
                if current.changed_nodes(&packing.snapshot).next().is_none() =>
            {
                (packing, changed)
            }
            (Some(mut packing), _) => {
                packing.clear(current);
                (packing, &[][..])
            }
            (None, _) => (Packing::new(current), &[][..]),
        };
        let changes = &mut self.changes;
        let read = packing.read(vjobs);
        changes.clear();
        changes.extend(changed.iter().copied().filter(|&index| index < read));
        changes.sort_unstable();
        changes.dedup();
        let cut = packing.cut(current, vjobs, changes);
        packing.requeue(cut, vjobs, changes, &mut self.requeued, &mut self.tail);

        // Free resources per node, from where the kept head of the queue left
        // them — empty nodes for a fresh packing: the RJSP packs every
        // selected vjob from scratch.  The first-fit index is debited vjob by
        // vjob, so a 10k-node decide costs O(VMs × log nodes) instead of
        // O(VMs × nodes).
        for &index in &self.tail {
            let vjob = &vjobs[index as usize];
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
                Arc::make_mut(&mut packing.hosts)
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
            packing.seen[index as usize].at = position;
            packing.queue.push(Queued {
                rank: rank(index as usize, vjob),
                id: vjob.id,
                vms: vms_start..packing.vms.len(),
                state: vjob.state,
                completed: is_completed,
                mark,
                next,
                hosts: hosts_start..packing.hosts.len(),
            });
        }

        // Terminated vjobs keep their state; a queued one gets its outcome,
        // a transition when it differs from its state.  The positions before
        // the cut keep theirs; the tail's are read off its packing.  Only the
        // transitions are collected: a vjob that keeps its state is not
        // listed anywhere in the decision.
        let seen = &packing.seen;
        let before_cut = |t: &Transition| seen.get(t.index).is_some_and(|s| (s.at as usize) < cut);
        packing.transitions.retain(before_cut);
        let tail = packing.queue[cut..].iter().filter_map(Queued::transition);
        packing.transitions.extend(tail);
        packing
            .transitions
            .sort_unstable_by_key(|transition| transition.index);
        #[cfg(debug_assertions)]
        {
            let mut walked: Vec<_> = packing
                .queue
                .iter()
                .filter_map(Queued::transition)
                .collect();
            walked.sort_unstable_by_key(|transition| transition.index);
            debug_assert_eq!(
                packing.transitions, walked,
                "the kept transitions are the queue's"
            );
        }
        let transitions = packing.transitions.clone();
        let decision = Decision::with_transitions(Arc::clone(&packing.hosts), transitions);
        debug_assert_eq!(
            decision.transitions(),
            Decision::new(vjobs, decision.vjob_states.clone(), Vec::new()).transitions(),
            "the transitions of the queue are those of the decided states"
        );
        debug_assert!(
            fits(current, &decision.proof_placement),
            "the RJSP proof placement must be viable"
        );
        packing.snapshot = current.clone();
        self.kept = Some(packing);
        Ok(decision)
    }
}

impl DecisionModule for FcfsConsolidation {
    /// Continue the kept packing from the vjobs a walk over the slice finds
    /// changed (module docs).
    fn decide(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
    ) -> Result<Decision, DecisionError> {
        let walked = self
            .kept
            .as_ref()
            .map(|packing| packing.walk(vjobs, completed));
        self.decide_from(current, vjobs, completed, walked.as_deref())
    }

    /// Continue the kept packing from the vjobs `changed` lists, and those
    /// appended since (module docs).  Debug builds also walk the slice and
    /// check that the list finds the same changes, so the same cut.
    fn decide_changed(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
        changed: &[usize],
    ) -> Result<Decision, DecisionError> {
        #[cfg(debug_assertions)]
        if let Some(packing) = &self.kept {
            let changed_at = |&index: &usize| packing.changed_at(index, vjobs, completed);
            let mut listed: Vec<usize> = changed.iter().copied().filter(changed_at).collect();
            listed.sort_unstable();
            listed.dedup();
            let walked = packing.walk(vjobs, completed);
            debug_assert_eq!(listed, walked, "the list misses a change the walk finds");
        }
        self.decide_from(current, vjobs, completed, Some(changed))
    }

    /// Drop the kept packing: the next decide packs the whole queue afresh.
    fn forget(&mut self) {
        self.kept = None;
    }

    fn name(&self) -> &str {
        "fcfs-dynamic-consolidation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, Vm, VmAssignment};
    use std::collections::BTreeMap;

    /// The state `decision` leaves the vjob `id` of `vjobs` in: the state
    /// [`Decision::vjob_states`] lists for it, else its own.
    fn decided(decision: &Decision, vjobs: &[Vjob], id: VjobId) -> VjobState {
        let vjob = vjobs.iter().find(|vjob| vjob.id == id);
        let own = vjob.expect("a vjob of the slice").state;
        decision.vjob_states.get(&id).copied().unwrap_or(own)
    }

    /// How many queue positions of `module`'s kept packing its next decide
    /// on `current` keeps: every one before the first that changed.
    fn kept_head(
        module: &FcfsConsolidation,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
    ) -> usize {
        let packing = module.kept.as_ref().expect("the last packing is kept");
        packing.cut(current, vjobs, &packing.walk(vjobs, completed))
    }

    /// `decision` lists in [`Decision::vjob_states`] exactly its
    /// transitions, each with its `to`, and nothing else.
    fn assert_lists_only_its_transitions(decision: &Decision, vjobs: &[Vjob]) {
        let transitions = decision.transitions();
        let listed: BTreeMap<VjobId, VjobState> =
            transitions.iter().map(|t| (t.vjob, t.to)).collect();
        assert_eq!(decision.vjob_states, listed);
        assert_eq!(listed.len(), transitions.len(), "one entry per transition");
        for t in transitions {
            assert_eq!((vjobs[t.index].id, vjobs[t.index].state), (t.vjob, t.from));
            assert_ne!(t.from, t.to, "a transition changes the state");
        }
    }

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
        assert_eq!(decided(&decision, &vjobs, VjobId(1)), VjobState::Running);
        assert_eq!(decided(&decision, &vjobs, VjobId(3)), VjobState::Running);
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
        assert_eq!(decided(&decision, &vjobs, VjobId(1)), VjobState::Running);
        assert_eq!(
            decided(&decision, &vjobs, VjobId(2)),
            VjobState::Sleeping,
            "overload suspends vjob 2"
        );
        assert_eq!(
            decided(&decision, &vjobs, VjobId(3)),
            VjobState::Running,
            "vjob 3 backfills"
        );
        // Only the vjobs that run are placed, every VM of them.
        let proof: BTreeMap<VmId, NodeId> = decision.proof_placement.iter().copied().collect();
        let placed: Vec<VmId> = proof.keys().copied().collect();
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
        assert_eq!(decided(&decision, &vjobs, VjobId(3)), VjobState::Waiting);
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
            let ids = [VjobId(1), VjobId(2), VjobId(3)];
            ids.map(|id| decided(decision, &vjobs, id)).to_vec()
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
        let proof: BTreeMap<VmId, NodeId> = fresh.proof_placement.iter().copied().collect();
        let placed: Vec<_> = proof.iter().collect();
        assert_eq!(placed, [(&VmId(0), &NodeId(0)), (&VmId(3), &NodeId(1))]);

        // The module that decided the previous tick keeps vjob 1's packing —
        // nothing it depends on moved — re-packs from vjob 2 on, and decides
        // the same.
        assert_eq!(kept_head(&module, &c, &vjobs, &BTreeSet::new()), 1);
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()).unwrap(), fresh);
        // And once nothing moves, the whole queue is kept.
        assert_eq!(kept_head(&module, &c, &vjobs, &BTreeSet::new()), 3);
        assert_eq!(module.decide(&c, &vjobs, &BTreeSet::new()).unwrap(), fresh);
        // A module told to forget keeps nothing, and packs afresh.
        module.forget();
        assert!(module.kept.is_none());
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
        assert_lists_only_its_transitions(&decision, &vjobs);
        let proof: BTreeMap<VmId, NodeId> = decision.proof_placement.iter().copied().collect();
        for vjob in &mut vjobs {
            let wanted = decision.vjob_states.get(&vjob.id).copied();
            if wanted.unwrap_or(vjob.state) == VjobState::Running {
                vjob.transition_to(VjobState::Running).unwrap();
                for vm in &vjob.vms {
                    let host = VmAssignment::running(proof[vm]);
                    c.set_assignment(*vm, host).unwrap();
                }
            }
        }
        let settled = module.decide(&c, &vjobs, &none).unwrap();
        assert_lists_only_its_transitions(&settled, &vjobs);
        let states = vjobs.iter().map(|vjob| decided(&settled, &vjobs, vjob.id));
        let waiting = states.filter(|&state| state == VjobState::Waiting).count();
        assert!(waiting > 0, "the queue overflows the cluster");

        for (round, position) in [1999, 0, 1, 777, 1998, 1000, 3].into_iter().enumerate() {
            // One VM of the vjob at `position` changes its demand: every
            // vjob before it is kept, none after it.
            let vm = vjobs[position].vms[round % 2];
            let cpu = CpuCapacity::percent(5 * (round as u32 + 1));
            assert!(c.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap());
            let head = kept_head(&module, &c, &vjobs, &none);
            assert_eq!(head, position, "change at {position}");
            let fresh = FcfsConsolidation::new().decide(&c, &vjobs, &none);
            let decision = module.decide(&c, &vjobs, &none);
            assert_eq!(decision, fresh, "change at {position}");
            assert_lists_only_its_transitions(&decision.unwrap(), &vjobs);

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
        assert_eq!(decided(&decision, &vjobs, VjobId(1)), VjobState::Terminated);
        // Its resources are recycled for the others.
        assert_eq!(decided(&decision, &vjobs, VjobId(2)), VjobState::Running);
        assert_eq!(decided(&decision, &vjobs, VjobId(3)), VjobState::Running);
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
