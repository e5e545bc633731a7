//! The simulated cluster: configuration + virtual clock + application
//! progress.
//!
//! The cluster owns a [`Configuration`] and, for each VM, the
//! [`VmWorkProfile`] of the application it runs.  Advancing the virtual clock
//! makes running VMs progress through their profile (at a reduced rate when a
//! context-switch operation is decelerating their node), updates their CPU
//! demand accordingly, and reports the vjobs whose work completed — the
//! signal the paper's applications send to Entropy so it can stop the vjob.
//!
//! # Lazy per-VM progress
//!
//! The event-driven executor calls [`SimulatedCluster::advance`] once per
//! distinct event time of a switch.  Touching every running VM (progress
//! update + demand refresh + completion scan) at each of them would make a
//! switch cost events × cluster.  Progress is therefore stored **lazily**:
//! per VM, the progress folded at its last *touch* plus the deceleration
//! factor it has been progressing under since (`VmProgress`).  `advance`
//! only touches the VMs whose rate actually changed — the VMs mutated by an
//! executed action and the VMs hosted on nodes whose deceleration changed —
//! and derives everything else on demand.  Demand changes and completions
//! happen exclusively at phase boundaries, so the cluster keeps the absolute
//! time of each progressing VM's next boundary in a min-heap and only
//! processes the boundaries the clock actually crossed.  Event processing is
//! thus O(changed VMs), not O(cluster).  The fold that carries a VM past
//! its final phase edge records the exact virtual time it finished, so a
//! vjob's completion time ([`SimulatedCluster::completed_at`]) is its last
//! VM's finish, however long the interval that reported it.
//!
//! Every touch reads the VM's phase through one rule,
//! [`VmWorkProfile::phase_after`]: the demand it writes and the boundary it
//! schedules come from the same call, so a VM is never on two sides of the
//! same edge.  The configuration's demands are therefore always current:
//! the monitor's [`SimulatedCluster::refresh_demands`] only touches the VMs
//! mutated since their last touch, never the whole cluster.
//!
//! # What a touch costs
//!
//! A switch of 10 000 actions makes about 43 000 touches, so a touch is a
//! handful of dense operations and allocates nothing:
//!
//! * the VM's record is updated in place.  Records are stored densely in
//!   registration order (`ProgressTable`), so touching VMs in that order
//!   walks them front to back; an id reaches its slot through an
//!   [`IdHashMap`] (a multiply, not SipHash);
//! * its assignment is read from the configuration once;
//! * its host's deceleration factor and list of running VMs live in a dense
//!   node table.  A VM whose host did not change finds its entry through
//!   the slot it keeps, with no lookup, and its list is left alone;
//! * a newly scheduled boundary is pushed on a heap of `(time bits, vm,
//!   stamp)`.  A boundary that is rescheduled or dropped is not searched
//!   for: its entry's stamp no longer matches the VM's, and it is skipped
//!   when popped.  The heap is compacted when stale entries outnumber the
//!   live ones, so it holds at most about twice as many entries as there are
//!   scheduled boundaries;
//! * the VM's slot goes in a bitset of dirty slots (`SlotSet`), drained in
//!   ascending slot order: each dirty VM is touched once, in registration
//!   order, and marking a slot twice costs nothing more.  Its vjob goes on
//!   a plain dirty list, sorted and deduplicated when drained: completions
//!   are reported in vjob order, as from an ordered set.
//!
//! [`SimulatedCluster::vm_touches`] counts the touches: a work counter that
//! equal inputs reproduce exactly on any machine.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

use cwcs_model::{
    Configuration, CpuCapacity, IdHashMap, MemoryMib, ModelError, NetBandwidth, NodeId,
    ResourceDemand, Vjob, VjobId, VmId, VmState,
};
use cwcs_workload::{VjobSpec, VmWorkProfile};

use crate::durations::{DurationModel, InterferenceModel};

/// Lazily-advanced progress of one VM's application (see the module docs).
#[derive(Debug, Clone)]
struct VmProgress {
    /// The application the VM runs.
    profile: VmWorkProfile,
    /// The vjob the VM belongs to (a touch rechecks its completion).
    vjob: VjobId,
    /// Progress (full-speed seconds) folded up to `touched_at`.
    base: f64,
    /// Virtual time of the last fold.
    touched_at: f64,
    /// Deceleration factor the VM progresses under since `touched_at`
    /// (`None` when the VM is not running: progress is frozen).
    factor: Option<f64>,
    /// Slot in the node table of the host the factor was derived from: the
    /// node whose running list holds the VM.
    node: Option<usize>,
    /// Absolute virtual time of the VM's next phase boundary (demand change
    /// or completion), when it is progressing toward one.
    boundary_at: Option<f64>,
    /// Progress value of that boundary (the cumulative phase edge); the
    /// fold snaps onto it when the boundary fires, so floating-point drift
    /// can never strand a VM just short of an edge.
    boundary_edge: f64,
    /// Stamp of the heap entry that schedules `boundary_at`.  Bumped at
    /// every scheduling and carried over a re-registration, so every older
    /// entry of the VM reads as stale.
    stamp: u32,
    /// Virtual time at which the VM finished its profile, once it has.
    finished_at: Option<f64>,
}

impl VmProgress {
    /// Effective progress at virtual time `clock`.
    fn progress_at(&self, clock: f64) -> f64 {
        match self.factor {
            Some(factor) => self.base + (clock - self.touched_at) / factor,
            None => self.base,
        }
    }

    /// Virtual time at which the VM reaches the end of its profile at the
    /// rate it has progressed at since its last touch (its touch time when
    /// frozen: a frozen VM is only asked once its profile is complete).
    fn finish_time(&self) -> f64 {
        let remaining = (self.profile.total_work_secs() - self.base).max(0.0);
        self.touched_at + remaining * self.factor.unwrap_or(0.0)
    }

    /// True when the heap entry carrying `stamp` is the one that schedules
    /// this VM's boundary.
    fn schedules(&self, stamp: u32) -> bool {
        self.boundary_at.is_some() && self.stamp == stamp
    }
}

/// A node of the reverse index: the effective deceleration factor of its
/// running VMs and which VMs (with a profile) ran there as of their last
/// touch.
#[derive(Debug)]
struct NodeRate {
    id: NodeId,
    factor: f64,
    /// Progress-table slots of those VMs.
    running: Vec<usize>,
}

/// The progress records, stored densely in registration order and found by
/// VM id.  Dirty VMs are touched in slot order, which walks the records
/// front to back.
#[derive(Debug, Default)]
struct ProgressTable {
    slots: IdHashMap<VmId, usize>,
    ids: Vec<VmId>,
    records: Vec<VmProgress>,
}

impl ProgressTable {
    fn slot(&self, vm: VmId) -> Option<usize> {
        self.slots.get(&vm).copied()
    }

    fn get(&self, vm: &VmId) -> Option<&VmProgress> {
        Some(&self.records[self.slot(*vm)?])
    }

    /// Store `record` for `vm` — in the slot of the record it replaces, if
    /// any, which is returned with the slot.
    fn insert(&mut self, vm: VmId, record: VmProgress) -> (usize, Option<VmProgress>) {
        match self.slot(vm) {
            Some(slot) => (
                slot,
                Some(std::mem::replace(&mut self.records[slot], record)),
            ),
            None => {
                let slot = self.records.len();
                self.slots.insert(vm, slot);
                self.ids.push(vm);
                self.records.push(record);
                (slot, None)
            }
        }
    }
}

/// Every `(id, record)` pair in registration order: how the tests walk the
/// records.
#[cfg(test)]
impl<'a> IntoIterator for &'a ProgressTable {
    type Item = (&'a VmId, &'a VmProgress);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, VmId>, std::slice::Iter<'a, VmProgress>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().zip(&self.records)
    }
}

/// A set of progress-table slots, drained in ascending order: one bit per
/// slot, and one summary bit per 64-slot word that holds a set bit, so a
/// drain reads only the words that hold marks, not the whole table.
#[derive(Debug, Default)]
struct SlotSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl SlotSet {
    fn insert(&mut self, slot: usize) {
        let word = slot / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
            self.summary.resize(word / 64 + 1, 0);
        }
        self.words[word] |= 1 << (slot % 64);
        self.summary[word / 64] |= 1 << (word % 64);
    }

    /// Empty the set, calling `visit` on every slot it held, in ascending
    /// order.
    fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (index, summary) in self.summary.iter_mut().enumerate() {
            for word in take_bits(summary) {
                let word = index * 64 + word;
                for bit in take_bits(&mut self.words[word]) {
                    visit(word * 64 + bit);
                }
            }
        }
    }
}

/// The positions of the set bits of `*bits`, ascending, which it clears.
fn take_bits(bits: &mut u64) -> impl Iterator<Item = usize> {
    let mut rest = std::mem::take(bits);
    std::iter::from_fn(move || {
        let bit = rest.trailing_zeros() as usize;
        rest &= rest.checked_sub(1)?;
        Some(bit)
    })
}

/// Heap key of a boundary time: `f64::to_bits` is monotone over the
/// non-negative times involved.
fn time_key(t: f64) -> u64 {
    debug_assert!(t >= 0.0, "virtual times are non-negative");
    t.to_bits()
}

/// The effective factor the VMs on `node` progress under in `regime`.
fn factor_in(regime: &BTreeMap<NodeId, f64>, node: NodeId) -> f64 {
    regime.get(&node).copied().unwrap_or(1.0).max(1.0)
}

/// Events reported by the cluster when the clock advances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Every VM of the vjob has finished its work profile.
    VjobCompleted(VjobId),
}

/// A snapshot of the cluster utilization, one point of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Virtual time of the sample, in seconds.
    pub time_secs: f64,
    /// Memory currently used by running VMs, in GiB.
    pub memory_gib: f64,
    /// CPU demand of running VMs as a percentage of the total cluster
    /// capacity (can exceed 100% on an overloaded cluster, as in Figure
    /// 13(b)).
    pub cpu_percent: f64,
    /// Network demand of running VMs as a percentage of the total cluster
    /// NIC capacity (0 when the cluster models no network capacity).
    pub net_percent: f64,
    /// Number of VMs in the Running state.
    pub running_vms: usize,
}

/// The simulated cluster.
pub struct SimulatedCluster {
    configuration: Configuration,
    clock_secs: f64,
    /// Lazily-folded work progress of each VM (see the module docs).
    progress: ProgressTable,
    /// Vjob membership used for completion detection.
    vjobs: IdHashMap<VjobId, Vjob>,
    /// Completion time of every vjob already reported as completed.
    completed_at: IdHashMap<VjobId, f64>,
    /// The per-node deceleration regime the current VM rates were derived
    /// under.
    rate_decels: BTreeMap<NodeId, f64>,
    /// Slot of each node in `nodes`, assigned on first use.
    node_slots: IdHashMap<NodeId, usize>,
    /// The reverse index: per node, its factor under `rate_decels` and the
    /// VMs running there as of their last touch.
    nodes: Vec<NodeRate>,
    /// Upcoming phase boundaries as `(time bits, vm, stamp)`, the earliest
    /// on top; entries whose stamp their VM no longer carries are stale.
    boundaries: BinaryHeap<Reverse<(u64, VmId, u32)>>,
    /// Number of VMs with a scheduled boundary: the live heap entries.
    live_boundaries: usize,
    /// Progress-table slots of the VMs whose state or host may have changed
    /// since their last touch.
    dirty_vms: SlotSet,
    /// Vjobs whose completion must be rechecked on the next advance
    /// (duplicates allowed).
    dirty_completion: Vec<VjobId>,
    /// Set when an arbitrary configuration mutation may have moved any VM:
    /// the next advance re-touches everything.
    resync_all: bool,
    /// Monotone version, bumped on every change a monitor could observe (see
    /// [`SimulatedCluster::change_version`]).
    version: u64,
    /// Touches that found a progress record (see
    /// [`SimulatedCluster::vm_touches`]).
    vm_touches: u64,
    durations: DurationModel,
    interference: InterferenceModel,
}

impl SimulatedCluster {
    /// Build a cluster from a configuration, with no workload attached.
    pub fn new(configuration: Configuration) -> Self {
        SimulatedCluster {
            configuration,
            clock_secs: 0.0,
            progress: ProgressTable::default(),
            vjobs: IdHashMap::default(),
            completed_at: IdHashMap::default(),
            rate_decels: BTreeMap::new(),
            node_slots: IdHashMap::default(),
            nodes: Vec::new(),
            boundaries: BinaryHeap::new(),
            live_boundaries: 0,
            dirty_vms: SlotSet::default(),
            dirty_completion: Vec::new(),
            // Only VMs with a progress record are ever touched, and
            // registering one dirties it.
            resync_all: false,
            version: 0,
            vm_touches: 0,
            durations: DurationModel::paper(),
            interference: InterferenceModel::paper(),
        }
    }

    /// Register a vjob spec: its VMs must already exist in the configuration.
    pub fn register_vjob(&mut self, spec: &VjobSpec) {
        for (vm, profile) in spec.vjob.vms.iter().zip(&spec.profiles) {
            let fresh = VmProgress {
                profile: profile.clone(),
                vjob: spec.vjob.id,
                base: 0.0,
                touched_at: self.clock_secs,
                factor: None,
                node: None,
                boundary_at: None,
                boundary_edge: 0.0,
                stamp: 0,
                finished_at: None,
            };
            let (slot, replaced) = self.progress.insert(*vm, fresh);
            if let Some(old) = replaced {
                self.drop_tracking(slot, &old);
                self.progress.records[slot].stamp = old.stamp;
            }
            self.dirty_vms.insert(slot);
            self.version += 1;
        }
        self.vjobs.insert(spec.vjob.id, spec.vjob.clone());
        self.dirty_completion.push(spec.vjob.id);
    }

    /// Update the stored state of a vjob (the control loop owns the life
    /// cycle; the cluster only needs membership for completion detection).
    pub fn update_vjob(&mut self, vjob: &Vjob) {
        for vm in &vjob.vms {
            if let Some(slot) = self.progress.slot(*vm) {
                self.progress.records[slot].vjob = vjob.id;
                self.dirty_vms.insert(slot);
            }
            self.version += 1;
        }
        self.vjobs.insert(vjob.id, vjob.clone());
        self.dirty_completion.push(vjob.id);
    }

    /// Forget a replaced record's boundary and reverse-index entry.
    fn drop_tracking(&mut self, slot: usize, vp: &VmProgress) {
        if vp.boundary_at.is_some() {
            self.live_boundaries -= 1;
        }
        if let Some(node) = vp.node {
            unlink(&mut self.nodes[node].running, slot);
        }
    }

    /// The current configuration.
    pub fn configuration(&self) -> &Configuration {
        &self.configuration
    }

    /// Mutable access to the configuration (used by the executor/drivers).
    /// Arbitrary mutations can move any VM, so every VM's rate is
    /// re-derived on the next advance; the executor's per-action path uses
    /// the crate-internal `configuration_mut_for_vm` instead, which only
    /// dirties one VM.  A monitor sees such an edit like any other: its next
    /// observation diffs the configuration against the last one it took.
    pub fn configuration_mut(&mut self) -> &mut Configuration {
        self.resync_all = true;
        self.version += 1;
        &mut self.configuration
    }

    /// Mutable configuration access scoped to an action on `vm`: only `vm`'s
    /// rate is re-derived, which is what keeps the event-driven executor's
    /// thousands of action events O(changes).
    pub(crate) fn configuration_mut_for_vm(&mut self, vm: VmId) -> &mut Configuration {
        if let Some(slot) = self.progress.slot(vm) {
            self.dirty_vms.insert(slot);
        }
        self.version += 1;
        &mut self.configuration
    }

    /// The virtual clock, in seconds.
    pub fn clock_secs(&self) -> f64 {
        self.clock_secs
    }

    /// The duration model of this cluster: always [`DurationModel::paper`],
    /// like the [`SimulatedXenDriver`](crate::SimulatedXenDriver) default, so
    /// predicted and executed durations agree.
    pub(crate) fn durations(&self) -> &DurationModel {
        &self.durations
    }

    /// The interference model of this cluster.
    pub(crate) fn interference(&self) -> &InterferenceModel {
        &self.interference
    }

    /// Progress (in full-speed seconds) of a VM's application.
    pub fn progress_of(&self, vm: VmId) -> Option<f64> {
        let progress = self.progress.get(&vm)?;
        Some(progress.progress_at(self.clock_secs))
    }

    /// True when the VM has finished its work profile.
    pub(crate) fn is_vm_complete(&self, vm: VmId) -> bool {
        self.progress
            .get(&vm)
            .map(|vp| vp.profile.is_complete(vp.progress_at(self.clock_secs)))
            .unwrap_or(false)
    }

    /// True when every VM of the vjob has finished its work.
    pub fn is_vjob_complete(&self, vjob: VjobId) -> bool {
        self.vjobs
            .get(&vjob)
            .map(|j| j.vms.iter().all(|&vm| self.is_vm_complete(vm)))
            .unwrap_or(false)
    }

    /// Virtual time at which `vjob` completed — the finish of its last VM —
    /// once its completion has been reported by [`SimulatedCluster::advance`].
    pub fn completed_at(&self, vjob: VjobId) -> Option<f64> {
        self.completed_at.get(&vjob).copied()
    }

    /// Advance the virtual clock by `dt_secs`.  `decelerations` maps nodes to
    /// the slow-down factor their busy VMs experience during the interval
    /// (1.0 when absent).  Returns the vjobs that completed during the
    /// interval (each is reported once, its exact time recorded for
    /// [`SimulatedCluster::completed_at`]).  These events are the only
    /// report of a completion.
    ///
    /// Only the VMs whose rate changed — mutated VMs, VMs on nodes whose
    /// deceleration differs from the previous interval's — and the VMs whose
    /// phase boundary the clock crossed are touched; everything else
    /// progresses implicitly (see the module docs).
    pub fn advance(
        &mut self,
        dt_secs: f64,
        decelerations: &BTreeMap<NodeId, f64>,
    ) -> Vec<ClusterEvent> {
        assert!(dt_secs >= 0.0, "time only moves forward");
        self.sync_rates(decelerations);
        let started_at = self.clock_secs;
        self.clock_secs += dt_secs;
        self.fire_boundaries();
        self.collect_completions(started_at)
    }

    /// Bring every affected VM's rate in line with `decelerations` at the
    /// current clock: dirty the VMs hosted on nodes whose effective factor
    /// changed since the previous interval, then re-touch every dirty VM.
    fn sync_rates(&mut self, decelerations: &BTreeMap<NodeId, f64>) {
        if *decelerations != self.rate_decels {
            let mut changed: Vec<NodeId> = Vec::new();
            for (&node, &factor) in decelerations {
                let old = self.rate_decels.get(&node).copied().unwrap_or(1.0);
                if old.max(1.0) != factor.max(1.0) {
                    changed.push(node);
                }
            }
            for (&node, &factor) in &self.rate_decels {
                if !decelerations.contains_key(&node) && factor.max(1.0) != 1.0 {
                    changed.push(node);
                }
            }
            for node in changed {
                if let Some(&slot) = self.node_slots.get(&node) {
                    let rate = &mut self.nodes[slot];
                    rate.factor = factor_in(decelerations, node);
                    for &slot in &rate.running {
                        self.dirty_vms.insert(slot);
                    }
                }
            }
            self.rate_decels = decelerations.clone();
        }
        self.touch_dirty();
    }

    /// Re-touch the VMs whose state or host may have changed since their
    /// last touch, each once, in registration order: every VM after an
    /// arbitrary mutation, otherwise the dirty ones.  A touch only reads and
    /// writes its own VM's record, placement and demand, so the order does
    /// not change what it computes.  A touch at an unchanged clock is
    /// idempotent, so touching early equals the touch the next
    /// [`SimulatedCluster::advance`] makes.
    fn touch_dirty(&mut self) {
        // A touch marks no VM dirty, so the set taken out stays the only one.
        let mut dirty = std::mem::take(&mut self.dirty_vms);
        if std::mem::take(&mut self.resync_all) {
            (0..self.progress.records.len()).for_each(|slot| dirty.insert(slot));
        }
        dirty.drain(|slot| self.touch(slot, None));
        self.dirty_vms = dirty;
    }

    /// The node-table slot of `host`, created on first use.  `hint` is the
    /// slot the VM's host had at its last touch: an unchanged host is found
    /// without a lookup.
    fn node_slot(&mut self, host: NodeId, hint: Option<usize>) -> usize {
        if let Some(slot) = hint.filter(|&slot| self.nodes[slot].id == host) {
            return slot;
        }
        let next = self.nodes.len();
        let slot = *self.node_slots.entry(host).or_insert(next);
        if slot == next {
            self.nodes.push(NodeRate {
                id: host,
                factor: factor_in(&self.rate_decels, host),
                running: Vec::new(),
            });
        }
        slot
    }

    /// Fold a VM's progress up to the current clock and re-derive its rate,
    /// demand, reverse-index entry and next boundary from the current
    /// configuration and deceleration regime.  `snap_to` (a phase edge the
    /// VM provably reached) clamps the fold against floating-point drift
    /// when a boundary fires.  The fold that completes the profile records
    /// when the VM finished.
    fn touch(&mut self, slot: usize, snap_to: Option<f64>) {
        let vm = self.progress.ids[slot];
        self.vm_touches += 1;
        let clock = self.clock_secs;
        let state = self.configuration.assignment(vm).ok();
        let host = state
            .filter(|a| a.state == VmState::Running)
            .and_then(|a| a.host);
        let hint = self.progress.records[slot].node;
        let node = host.map(|host| self.node_slot(host, hint));
        let vp = &mut self.progress.records[slot];

        let mut progress = vp.progress_at(clock);
        if let Some(edge) = snap_to {
            progress = progress.max(edge);
        }
        let phase = vp
            .profile
            .phase_after(progress)
            .map(|(phase, edge)| (*phase, edge));
        if vp.finished_at.is_none() && phase.is_none() {
            vp.finished_at = Some(vp.finish_time());
        }
        if vp.boundary_at.take().is_some() {
            self.live_boundaries -= 1;
        }
        vp.base = progress;
        vp.touched_at = clock;
        vp.factor = None;
        if vp.node != node {
            if let Some(old) = vp.node {
                unlink(&mut self.nodes[old].running, slot);
            }
            if let Some(new) = node {
                self.nodes[new].running.push(slot);
            }
            vp.node = node;
        }

        if let Some(node) = node {
            let factor = self.nodes[node].factor;
            vp.factor = Some(factor);
            if let Some((_, edge)) = phase {
                let at = clock + (edge - progress).max(0.0) * factor;
                vp.boundary_at = Some(at);
                vp.boundary_edge = edge;
                vp.stamp = vp.stamp.wrapping_add(1);
                self.boundaries.push(Reverse((time_key(at), vm, vp.stamp)));
                self.live_boundaries += 1;
            }
        }
        let vjob = vp.vjob;

        let (cpu, net) = match phase {
            Some((phase, _)) => (phase.cpu_demand, phase.net_demand),
            None => (CpuCapacity::ZERO, NetBandwidth::ZERO),
        };
        self.observe_demand(vm, state.map(|a| a.state), cpu, net);
        // A vjob's VMs are usually touched back to back: skip the repeats
        // the drain would deduplicate anyway.
        if self.dirty_completion.last() != Some(&vjob) {
            self.dirty_completion.push(vjob);
        }
        self.compact_boundaries();
    }

    /// Drop the stale heap entries once they outnumber the live ones (plus
    /// a small allowance), so the heap stays within about twice the
    /// scheduled boundaries at an amortised O(1) per scheduling.
    fn compact_boundaries(&mut self) {
        if self.boundaries.len() <= 2 * self.live_boundaries + 64 {
            return;
        }
        let progress = &self.progress;
        self.boundaries.retain(|Reverse((_, vm, stamp))| {
            progress.get(vm).is_some_and(|vp| vp.schedules(*stamp))
        });
    }

    /// Process every phase boundary the clock has crossed (with the same
    /// 1e-9 tolerance completion detection uses), in `(time, vm)` order: the
    /// VM's progress snaps onto the edge, its demand takes the next phase's
    /// value, and the next boundary is scheduled.  Each firing consumes at
    /// least one edge of a finite profile, so this terminates.
    fn fire_boundaries(&mut self) {
        while let Some(&Reverse((key, vm, stamp))) = self.boundaries.peek() {
            if f64::from_bits(key) > self.clock_secs + 1e-9 {
                break;
            }
            self.boundaries.pop();
            let slot = self.progress.slot(vm).expect("a scheduled VM has a record");
            let vp = &self.progress.records[slot];
            if vp.schedules(stamp) {
                self.touch(slot, Some(vp.boundary_edge));
            }
        }
    }

    /// Report the not-yet-reported completions among the vjobs whose state
    /// may have changed, in vjob order, each stamped with the latest finish
    /// of its VMs clamped into the interval `[started_at, clock]` (a vjob
    /// whose last unfinished member was dropped completes when the interval
    /// starts).
    fn collect_completions(&mut self, started_at: f64) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        let mut vjobs = std::mem::take(&mut self.dirty_completion);
        vjobs.sort_unstable();
        vjobs.dedup();
        for &vjob in &vjobs {
            if self.completed_at.contains_key(&vjob) || !self.is_vjob_complete(vjob) {
                continue;
            }
            let finished = self.vjobs[&vjob]
                .vms
                .iter()
                .filter_map(|vm| self.progress.get(vm))
                .map(|vp| vp.finished_at.unwrap_or_else(|| vp.finish_time()))
                .fold(started_at, f64::max);
            self.completed_at
                .insert(vjob, finished.min(self.clock_secs));
            self.version += 1;
            events.push(ClusterEvent::VjobCompleted(vjob));
        }
        vjobs.clear();
        self.dirty_completion = vjobs;
        events
    }

    /// Bring the observed demand of every VM with a profile up to date with
    /// its current progress (this is what the Ganglia daemons of the paper
    /// observe).
    ///
    /// A running VM's demand changes only at a phase edge, and the touch
    /// that processes the edge writes it there; so does the touch of a VM
    /// whose state or host changed.  What can be out of date are the VMs
    /// mutated since their last touch, and only those are touched here —
    /// exactly as the next [`SimulatedCluster::advance`] would, at the same
    /// clock.  The cost is O(mutated VMs), not O(cluster).
    ///
    /// Only running VMs expose the demand of their current phase: the
    /// embedded application "is launched when all the VMs of the vjob are in
    /// the Running state", so a waiting VM consumes (and reports) nothing.
    /// Sleeping VMs keep their last observed demand, which is what the
    /// decision module uses to decide whether they can be resumed.
    pub fn refresh_demands(&mut self) {
        self.touch_dirty();
    }

    /// Record what a monitor observes of `vm`, in `state`, whose application
    /// currently demands `(cpu, net)`: a running VM exposes that demand, a
    /// waiting VM reports nothing, sleeping / terminated VMs keep their last
    /// observation.  Only a demand that actually moved bumps the version, so
    /// a touch that changes nothing leaves the monitor's view current.
    fn observe_demand(
        &mut self,
        vm: VmId,
        state: Option<VmState>,
        cpu: CpuCapacity,
        net: NetBandwidth,
    ) {
        let (cpu, net) = match state {
            Some(VmState::Running) => (cpu, net),
            Some(VmState::Waiting) => (CpuCapacity::ZERO, NetBandwidth::ZERO),
            _ => return,
        };
        if self.configuration.set_vm_demand(vm, cpu, net) == Ok(true) {
            self.version += 1;
        }
    }

    /// One utilization sample (a point of Figure 13).
    pub fn utilization(&self) -> UtilizationSample {
        let used = self.configuration.total_running_demand();
        let capacity = self.configuration.total_capacity();
        let percent_of = |used: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * used as f64 / total as f64
            }
        };
        UtilizationSample {
            time_secs: self.clock_secs,
            memory_gib: used.memory.raw() as f64 / 1024.0,
            cpu_percent: percent_of(used.cpu.raw() as u64, capacity.cpu.raw() as u64),
            net_percent: percent_of(used.net.raw(), capacity.net.raw()),
            running_vms: self.configuration.running_count(),
        }
    }

    /// Number of VM touches so far that found a progress record — the fold
    /// of a VM's progress behind every rate change, action and phase
    /// boundary (see the module docs).  A work counter: the same inputs
    /// reproduce it exactly on any machine.
    pub fn vm_touches(&self) -> u64 {
        self.vm_touches
    }

    /// The cluster's change version.  It is bumped on every change a monitor
    /// could observe — a VM's demand, state or placement, a node's capacity,
    /// a vjob completion — so equal versions across two points in time mean
    /// nothing observable happened in between.
    pub fn change_version(&self) -> u64 {
        self.version
    }

    /// Change a node's capacity mid-run (a partial hardware failure — or a
    /// repaired node coming back).  The node keeps hosting its VMs; a
    /// capacity below their demand makes the configuration non-viable, which
    /// the next repair pass fixes by evacuating it.
    pub fn set_node_capacity(
        &mut self,
        node: NodeId,
        cpu: CpuCapacity,
        memory: MemoryMib,
        net: NetBandwidth,
    ) -> Result<(), cwcs_model::ModelError> {
        self.configuration
            .set_node_capacity(node, ResourceDemand::new(cpu, memory).with_net(net))?;
        self.version += 1;
        Ok(())
    }

    /// Admit a vjob arriving mid-run: add its VMs to the configuration and
    /// start tracking their progress.  Fresh VMs enter in the waiting state;
    /// the next decision picks them up.  Fails, changing nothing, when the
    /// vjob id or one of its VM ids is already taken.
    pub fn admit_vjob(&mut self, spec: &VjobSpec) -> Result<(), ModelError> {
        if self.vjobs.contains_key(&spec.vjob.id) {
            return Err(ModelError::DuplicateVjob(spec.vjob.id));
        }
        let mut seen = HashSet::new();
        let mut taken = |id: VmId| !seen.insert(id) || self.configuration.vm(id).is_ok();
        if let Some(vm) = spec.vms.iter().map(|vm| vm.id).find(|&id| taken(id)) {
            return Err(ModelError::DuplicateVm(vm));
        }
        for vm in &spec.vms {
            self.configuration.add_vm(vm.clone())?;
            self.version += 1;
        }
        self.register_vjob(spec);
        Ok(())
    }
}

/// Remove a VM's slot from a node's running list (order does not matter:
/// the VMs a regime change dirties are sorted before they are touched).
fn unlink(running: &mut Vec<usize>, slot: usize) {
    if let Some(position) = running.iter().position(|&other| other == slot) {
        running.swap_remove(position);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{Node, Vjob, Vm, VmAssignment};
    use cwcs_workload::WorkPhase;
    use std::collections::BTreeSet;

    fn spec(vjob_id: u32, vm_ids: &[u32], work_secs: f64) -> VjobSpec {
        let vms: Vec<Vm> = vm_ids
            .iter()
            .map(|&i| Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .collect();
        let vjob = Vjob::new(VjobId(vjob_id), vms.iter().map(|v| v.id).collect(), 0);
        let profiles = vms
            .iter()
            .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
            .collect();
        VjobSpec::new(vjob, vms, profiles)
    }

    fn cluster_with(spec_list: &[VjobSpec]) -> SimulatedCluster {
        let mut config = Configuration::new();
        for i in 0..4 {
            config
                .add_node(Node::new(
                    NodeId(i),
                    CpuCapacity::cores(2),
                    MemoryMib::gib(4),
                ))
                .unwrap();
        }
        for spec in spec_list {
            for vm in &spec.vms {
                config.add_vm(vm.clone()).unwrap();
            }
        }
        let mut cluster = SimulatedCluster::new(config);
        for spec in spec_list {
            cluster.register_vjob(spec);
        }
        cluster
    }

    /// One VM (vjob 0) running on node 0 a 10 s compute phase, then a 30 s
    /// idle phase.
    fn running_compute_then_idle() -> SimulatedCluster {
        let vms = vec![Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1))];
        let vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        let profiles = vec![VmWorkProfile::new(vec![
            WorkPhase::compute(10.0),
            WorkPhase::idle(30.0),
        ])];
        let mut cluster = cluster_with(&[VjobSpec::new(vjob, vms, profiles)]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster
    }

    #[test]
    fn running_vms_progress_and_complete() {
        let spec = spec(0, &[0, 1], 100.0);
        let mut cluster = cluster_with(&[spec]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster
            .configuration_mut()
            .set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        let events = cluster.advance(50.0, &BTreeMap::new());
        assert!(events.is_empty());
        assert_eq!(cluster.progress_of(VmId(0)), Some(50.0));
        let events = cluster.advance(50.0, &BTreeMap::new());
        assert_eq!(events, vec![ClusterEvent::VjobCompleted(VjobId(0))]);
        // Completion is only reported once.
        let events = cluster.advance(10.0, &BTreeMap::new());
        assert!(events.is_empty());
        assert!(cluster.is_vjob_complete(VjobId(0)));
    }

    #[test]
    fn non_running_vms_do_not_progress() {
        let spec = spec(0, &[0], 100.0);
        let mut cluster = cluster_with(&[spec]);
        // VM stays Waiting.
        cluster.advance(1000.0, &BTreeMap::new());
        assert_eq!(cluster.progress_of(VmId(0)), Some(0.0));
        assert!(!cluster.is_vjob_complete(VjobId(0)));
    }

    #[test]
    fn deceleration_slows_progress() {
        let spec = spec(0, &[0], 100.0);
        let mut cluster = cluster_with(&[spec]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut slow = BTreeMap::new();
        slow.insert(NodeId(0), 1.5);
        cluster.advance(30.0, &slow);
        assert!((cluster.progress_of(VmId(0)).unwrap() - 20.0).abs() < 1e-9);
        // Other nodes are unaffected.
        let mut other = BTreeMap::new();
        other.insert(NodeId(3), 2.0);
        cluster.advance(30.0, &other);
        assert!((cluster.progress_of(VmId(0)).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn demands_follow_the_profile() {
        // One VM with a compute phase then nothing: after completion its CPU
        // demand drops to zero.
        let spec = spec(0, &[0], 10.0);
        let mut cluster = cluster_with(&[spec]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster.refresh_demands();
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::cores(1)
        );
        cluster.advance(20.0, &BTreeMap::new());
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::ZERO
        );
    }

    #[test]
    fn demand_changes_fire_at_phase_boundaries_without_refresh() {
        // A two-phase profile (10 s compute, then 30 s idle): advancing past
        // the first edge must flip the observed demand to the idle phase
        // *inside* `advance` (the lazy boundary machinery), not only via an
        // explicit `refresh_demands` call.
        let mut cluster = running_compute_then_idle();
        cluster.advance(5.0, &BTreeMap::new());
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::cores(1)
        );
        cluster.advance(10.0, &BTreeMap::new());
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::percent(10),
            "the compute→idle edge at t=10 must have fired"
        );
        // The second edge completes the vjob.
        let events = cluster.advance(30.0, &BTreeMap::new());
        assert_eq!(events, vec![ClusterEvent::VjobCompleted(VjobId(0))]);
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::ZERO
        );
    }

    #[test]
    fn a_touch_a_nanosecond_short_of_an_edge_writes_the_next_phase() {
        // Under a 2× deceleration, 20 s − 1.5e-9 leaves the VM 7.5e-10 s of
        // work short of its compute→idle edge: the boundary (due at t=20)
        // has not fired.  The touch the regime change forces counts the
        // edge as reached, for the boundary it schedules *and* for the
        // demand it writes — nothing polls the demand afterwards.
        let mut cluster = running_compute_then_idle();
        cluster.advance(20.0 - 1.5e-9, &BTreeMap::from([(NodeId(0), 2.0)]));
        cluster.advance(0.0, &BTreeMap::new());
        assert_eq!(
            cluster.configuration().vm(VmId(0)).unwrap().cpu,
            CpuCapacity::percent(10),
            "the idle phase has begun"
        );
        // The idle phase still ends on time.
        let events = cluster.advance(30.0, &BTreeMap::new());
        assert_eq!(events, vec![ClusterEvent::VjobCompleted(VjobId(0))]);
        assert!((cluster.completed_at(VjobId(0)).unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn lazy_progress_matches_the_eager_sum_across_regime_changes() {
        // Interleave deceleration changes, targeted moves and idle advances:
        // the folded progress must equal the eager per-interval sum.
        let spec = spec(0, &[0], 1000.0);
        let mut cluster = cluster_with(&[spec]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut expected = 0.0;
        let mut decels: BTreeMap<NodeId, f64> = BTreeMap::new();
        // 10 s at full speed.
        cluster.advance(10.0, &decels);
        expected += 10.0;
        // 30 s at 1.5× deceleration.
        decels.insert(NodeId(0), 1.5);
        cluster.advance(30.0, &decels);
        expected += 30.0 / 1.5;
        // 12 s under a 2× regime entered without an intermediate advance.
        decels.insert(NodeId(0), 2.0);
        cluster.advance(12.0, &decels);
        expected += 12.0 / 2.0;
        // Move the VM (a targeted action) to an undecelerated node; the old
        // regime held up to the move, the new one after it.
        cluster
            .configuration_mut_for_vm(VmId(0))
            .set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        cluster.advance(7.0, &decels);
        expected += 7.0;
        assert!(
            (cluster.progress_of(VmId(0)).unwrap() - expected).abs() < 1e-9,
            "lazy fold diverged: {} vs {expected}",
            cluster.progress_of(VmId(0)).unwrap()
        );
    }

    #[test]
    fn utilization_sample_counts_running_vms() {
        let s = spec(0, &[0, 1, 2], 100.0);
        let mut cluster = cluster_with(&[s]);
        for i in 0..2 {
            cluster
                .configuration_mut()
                .set_assignment(VmId(i), VmAssignment::running(NodeId(i)))
                .unwrap();
        }
        cluster.refresh_demands();
        let sample = cluster.utilization();
        assert_eq!(sample.running_vms, 2);
        assert!((sample.memory_gib - 1.0).abs() < 1e-9);
        // 2 busy cores out of 8: 25%.
        assert!((sample.cpu_percent - 25.0).abs() < 1e-9);
    }

    /// The walk's oracle: every VM's progress summed eagerly, interval by
    /// interval, under the states, hosts and decelerations the cluster ran.
    #[derive(Default)]
    struct Oracle {
        /// Per VM: progress, total work, and when it finished.
        vms: BTreeMap<VmId, (f64, f64, Option<f64>)>,
        members: BTreeMap<VjobId, Vec<VmId>>,
        reported: BTreeSet<VjobId>,
    }

    impl Oracle {
        fn register(&mut self, spec: &VjobSpec) {
            for (&vm, profile) in spec.vjob.vms.iter().zip(&spec.profiles) {
                self.vms.insert(vm, (0.0, profile.total_work_secs(), None));
            }
            self.members.insert(spec.vjob.id, spec.vjob.vms.clone());
        }

        /// Run `[from, from + dt]` and return the vjobs due at its end, each
        /// with its last VM's finish clamped into the interval.
        fn advance(
            &mut self,
            config: &Configuration,
            from: f64,
            dt: f64,
            decels: &BTreeMap<NodeId, f64>,
        ) -> BTreeMap<VjobId, f64> {
            for (&vm, (progress, total, finished)) in &mut self.vms {
                if finished.is_some() || config.state(vm) != Ok(VmState::Running) {
                    continue;
                }
                let host = config.host(vm).unwrap().unwrap();
                let factor = decels.get(&host).copied().unwrap_or(1.0).max(1.0);
                let at = from + (*total - *progress) * factor;
                *progress += dt / factor;
                if *progress >= *total - 1e-9 {
                    *finished = Some(at);
                }
            }
            let mut due = BTreeMap::new();
            for (&vjob, vms) in &self.members {
                let finished: Option<Vec<f64>> = vms.iter().map(|vm| self.vms[vm].2).collect();
                if let (false, Some(times)) = (self.reported.contains(&vjob), finished) {
                    let last = times.into_iter().fold(from, f64::max);
                    due.insert(vjob, last.min(from + dt));
                }
            }
            self.reported.extend(due.keys());
            due
        }
    }

    #[test]
    fn completion_times_match_the_oracle_on_a_seeded_walk() {
        // Everything that moves a completion, interleaved at random on 6
        // nodes: vjobs admitted, re-registered and updated mid-run, per-VM
        // actions (boot, migrate, suspend, resume), advances under maps that
        // change, stay, or gain and lose 1.0 entries — and, rarely, the
        // arbitrary mutation that re-touches every VM.  Every advance must
        // report exactly the vjobs the oracle says are due, each stamped
        // with the oracle's time, and leave every demand current without a
        // `refresh_demands` poll.
        use cwcs_model::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x4071_2024);
        let specs: Vec<VjobSpec> = (0..24)
            .map(|j| {
                let work = 20.0 + 15.0 * (j % 7) as f64;
                let mut spec = spec(j, &[2 * j, 2 * j + 1], work);
                // Compute, idle, compute: two demand edges before the end.
                let phases = vec![
                    WorkPhase::compute(work / 2.0),
                    WorkPhase::idle(work / 4.0),
                    WorkPhase::compute(work / 4.0),
                ];
                spec.profiles = vec![VmWorkProfile::new(phases); 2];
                spec
            })
            .collect();
        let mut cluster = cluster_with(&specs[..4]);
        let mut oracle = Oracle::default();
        specs[..4].iter().for_each(|s| oracle.register(s));
        for extra in 4..6 {
            let node = Node::new(NodeId(extra), CpuCapacity::cores(2), MemoryMib::gib(4));
            cluster.configuration_mut().add_node(node).unwrap();
        }
        let mut registered = 4;
        let mut decels: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut completions = 0;
        for _ in 0..1_500 {
            let node = NodeId(rng.index(6) as u32);
            // An interval under a map that may differ from `decels` (the
            // control loop's own advance between two switches).
            let mut interval = None;
            match rng.index(10) {
                0 if registered < specs.len() => {
                    cluster.admit_vjob(&specs[registered]).unwrap();
                    oracle.register(&specs[registered]);
                    registered += 1;
                }
                // Registered again, a vjob starts over wherever its VMs are.
                0 => {
                    let spec = &specs[rng.index(registered)];
                    cluster.register_vjob(spec);
                    oracle.register(spec);
                }
                // Updated, it may have lost (or got back) its last VM.
                1 => {
                    let mut vjob = specs[rng.index(registered)].vjob.clone();
                    if rng.bool_with(0.5) {
                        vjob.vms.pop();
                    }
                    cluster.update_vjob(&vjob);
                    oracle.members.insert(vjob.id, vjob.vms);
                }
                2..=4 => {
                    let vm = VmId(rng.index(2 * registered) as u32);
                    let next = match cluster.configuration().state(vm).unwrap() {
                        VmState::Running if rng.bool_with(0.3) => VmAssignment::sleeping(node),
                        _ => VmAssignment::running(node),
                    };
                    let config = cluster.configuration_mut_for_vm(vm);
                    config.set_assignment(vm, next).unwrap();
                }
                5 => {
                    decels.insert(node, [1.0, 1.3, 1.5, 2.0][rng.index(4)]);
                }
                6 => {
                    decels.remove(&node);
                }
                7 if rng.bool_with(0.05) => {
                    cluster.configuration_mut();
                }
                8 => {
                    let mut other = decels.clone();
                    if other.remove(&node).is_none() {
                        other.insert(node, 2.0);
                    }
                    interval = Some((rng.f64_in(0.0, 6.0), other));
                }
                _ => interval = Some((rng.f64_in(0.0, 12.0), decels.clone())),
            }
            let Some((dt, map)) = interval else {
                continue;
            };
            let from = cluster.clock_secs();
            let due = oracle.advance(cluster.configuration(), from, dt, &map);
            let reported: BTreeSet<VjobId> = cluster
                .advance(dt, &map)
                .into_iter()
                .map(|ClusterEvent::VjobCompleted(id)| id)
                .collect();
            assert!(reported.iter().eq(due.keys()), "{reported:?} vs {due:?}");
            for (&vjob, &expected) in &due {
                let at = cluster
                    .completed_at(vjob)
                    .expect("a reported vjob is stamped");
                assert!((at - expected).abs() < 1e-6, "{vjob}: {at} vs {expected}");
                assert!((from..=cluster.clock_secs()).contains(&at), "{at} outside");
            }
            completions += due.len();
            // The demand oracle: a running VM shows its current phase's
            // demand (zero once exhausted), a waiting VM nothing.  A VM whose
            // boundary is due within 1e-8 s is skipped: under a factor f its
            // progress may already be within the 1e-9 tolerance of the edge
            // for up to 1e-9·(f − 1) s before the boundary fires.
            let (config, clock) = (cluster.configuration(), cluster.clock_secs());
            let idle = (CpuCapacity::ZERO, NetBandwidth::ZERO);
            for (&vm, vp) in &cluster.progress {
                let expected = match config.state(vm).unwrap() {
                    VmState::Running if vp.boundary_at.is_some_and(|at| at - clock < 1e-8) => {
                        continue
                    }
                    VmState::Running => vp
                        .profile
                        .phase_after(cluster.progress_of(vm).unwrap())
                        .map_or(idle, |(phase, _)| (phase.cpu_demand, phase.net_demand)),
                    VmState::Waiting => idle,
                    _ => continue,
                };
                let observed = config.vm(vm).unwrap();
                assert_eq!((observed.cpu, observed.net), expected, "{vm} at {clock}");
            }
        }
        assert_eq!(registered, specs.len());
        assert!(completions >= 10, "{completions} vjobs completed");
    }

    #[test]
    fn a_colliding_admission_changes_nothing() {
        // VM 0 runs vjob 0 and has made 50 s of progress; an arrival reusing
        // its id (or vjob 0's id) must be refused before anything moves.
        let mut cluster = cluster_with(&[spec(0, &[0], 100.0)]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster.advance(50.0, &BTreeMap::new());
        let before = cluster.configuration().clone();
        for (colliding, error) in [
            (spec(1, &[5, 0], 30.0), ModelError::DuplicateVm(VmId(0))),
            (spec(2, &[6, 6], 30.0), ModelError::DuplicateVm(VmId(6))),
            (spec(0, &[7], 30.0), ModelError::DuplicateVjob(VjobId(0))),
        ] {
            assert_eq!(cluster.admit_vjob(&colliding), Err(error));
            assert_eq!(*cluster.configuration(), before);
            assert_eq!(cluster.progress_of(VmId(0)), Some(50.0));
        }
        // The original vjob still completes on time.
        let events = cluster.advance(50.0, &BTreeMap::new());
        assert_eq!(events, vec![ClusterEvent::VjobCompleted(VjobId(0))]);
        assert_eq!(cluster.completed_at(VjobId(0)), Some(100.0));
    }

    #[test]
    fn clock_accumulates() {
        let mut cluster = cluster_with(&[]);
        cluster.advance(12.5, &BTreeMap::new());
        cluster.advance(7.5, &BTreeMap::new());
        assert!((cluster.clock_secs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn targeted_mutations_journal_only_the_touched_vm() {
        // The version moves, and what moved is the one VM the action wrote.
        let mut cluster = cluster_with(&[spec(0, &[0, 1], 100.0)]);
        let (v0, before) = (cluster.change_version(), cluster.configuration().clone());
        cluster
            .configuration_mut_for_vm(VmId(1))
            .set_assignment(VmId(1), VmAssignment::running(NodeId(2)))
            .unwrap();
        assert!(cluster.change_version() > v0);
        let changed: Vec<VmId> = cluster.configuration().changed_vms(&before).collect();
        assert_eq!(changed, vec![VmId(1)]);
    }

    #[test]
    fn demand_changes_and_completions_are_journaled() {
        // A two-phase profile: the compute→idle edge changes the demand and
        // bumps the version, and the changed VM shows in the diff.  (The
        // completion at the final edge is an event of `advance`, held to
        // its oracle by the seeded walk.)
        let mut cluster = running_compute_then_idle();
        cluster.advance(0.0, &BTreeMap::new());
        let (v0, before) = (cluster.change_version(), cluster.configuration().clone());
        cluster.advance(15.0, &BTreeMap::new());
        assert!(cluster.change_version() > v0, "the demand edge at t=10");
        let changed: Vec<VmId> = cluster.configuration().changed_vms(&before).collect();
        assert_eq!(changed, vec![VmId(0)]);
    }

    #[test]
    fn steady_state_advances_journal_nothing() {
        let mut cluster = cluster_with(&[spec(0, &[0], 1000.0)]);
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster.advance(0.0, &BTreeMap::new());
        // Mid-phase progress changes nothing a monitor observes.
        let (v, before) = (cluster.change_version(), cluster.configuration().clone());
        cluster.advance(5.0, &BTreeMap::new());
        cluster.refresh_demands();
        assert_eq!(cluster.change_version(), v);
        assert_eq!(*cluster.configuration(), before);
    }

    #[test]
    fn the_dirty_set_drains_shuffled_duplicated_marks_as_ascending_unique_slots() {
        let mut rng = cwcs_model::SmallRng::seed_from_u64(7);
        let mut dirty = SlotSet::default();
        for round in 0..40 {
            // Up to three summary words' worth of slots, with the edges of a
            // word and of a summary word among the candidates.
            let len = 1 + rng.index(3 * 64 * 64);
            let mut marks: Vec<usize> = (0..rng.index(500))
                .map(|_| rng.index(len))
                .chain([0, 63, 64, 4_095, 4_096].into_iter().filter(|&s| s < len))
                .collect();
            let doubled = marks.len() / 3;
            marks.extend_from_within(..doubled);
            rng.shuffle(&mut marks);
            for &slot in &marks {
                dirty.insert(slot);
            }
            let mut drained = Vec::new();
            dirty.drain(|slot| drained.push(slot));
            let expected: Vec<usize> = marks
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(drained, expected, "round {round}");
            dirty.drain(|slot| panic!("round {round}: slot {slot} survived the drain"));
        }
    }

    #[test]
    fn node_capacity_changes_are_journaled() {
        let mut cluster = cluster_with(&[]);
        let (v0, before) = (cluster.change_version(), cluster.configuration().clone());
        cluster
            .set_node_capacity(
                NodeId(2),
                CpuCapacity::cores(1),
                MemoryMib::gib(1),
                NetBandwidth::ZERO,
            )
            .unwrap();
        assert!(cluster.change_version() > v0);
        let changed: Vec<NodeId> = cluster.configuration().changed_nodes(&before).collect();
        assert_eq!(changed, vec![NodeId(2)]);
        assert_eq!(
            cluster.configuration().node(NodeId(2)).unwrap().cpu,
            CpuCapacity::cores(1)
        );
    }
}
