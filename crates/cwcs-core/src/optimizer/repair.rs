//! Repair-based partial reconfiguration (see the [module docs](super)):
//! split the VMs that must run into pinned and movable — counting the
//! pinned ones and reading what they weigh off the load ledger — rank the
//! candidate destination nodes, solve the sub-problem over a widening
//! candidate set, and graft the sub-solution back onto the untouched
//! configuration.
//!
//! # The split is kept
//!
//! The split of one vjob is a function of its id, its VM list, whether it
//! is decided Running, the overload set and the assignment and record of
//! each of its VMs; the room table adds each node's capacity and ledger
//! entry.  Between two ticks nearly all of that is unchanged, so the split
//! is kept in [`SolverMemory`](super::SolverMemory) as a [`KeptSplit`],
//! built the way the decision module keeps its packing: the configuration
//! it was computed on, its overload set, one record per vjob index, an
//! owner table giving every VM of the kept VM lists the index of the vjob
//! that names it, a host index giving every node the VMs of that table
//! that run there (built when a patch first sees the overload set move, so
//! a loop whose overload set holds still never pays for it), and the
//! aggregate [`Split`].  The next solve **patches** it when it can:
//!
//! * it re-reads the VMs of only the *dirty* vjobs and swaps in their new
//!   records.  A vjob is dirty when it is new, when its id, VM list or
//!   decided-Running flag differs from its record, when the owner table
//!   names it for a VM whose assignment
//!   [`Configuration::changed_assignments`] lists against the kept
//!   configuration, when the host index puts one of its VMs on a node that
//!   entered or left the overload set, or when its record holds VM records
//!   it fetched — it moves a VM, or gives a running VM's room back — whose
//!   demands may have moved.  The split of any other vjob is a function of
//!   the assignments and the overload set alone (a pinned VM weighs what
//!   the ledger says), so the diff leaves the VM records unread.  The walk
//!   over the changed assignments also moves each VM it lists to its new
//!   host in the index.  When a re-read vjob's VM list changed, its old VMs
//!   leave the owner table and the index, and its new ones enter both;
//! * it finds the dirty vjobs without walking the others
//!   ([`PlanOptimizer::optimize_changed`](super::PlanOptimizer::optimize_changed)).
//!   Its candidates are the vjobs appended since, those the owner table
//!   marks, those the previous or the current decision moves (`moved`),
//!   and those whose record holds fetched VM records, whose indices it
//!   keeps.  A committed transition changes its VMs' assignments, so the
//!   owner table already names its vjob; `moved` is there for the
//!   decided-Running flag, which a decision flips with no VM moving.  The
//!   current decision's transitions are the flags it flips now.  The
//!   previous decision's name the one vjob nothing else does: a Running
//!   vjob decided Sleeping or Terminated while its VMs sit on an
//!   overloaded node (so the split fetched none of its records) whose
//!   action then fails.  It stays Running where it was, and a next
//!   decision that runs it again lists no transition for it, yet its
//!   record says decided-not-Running (`control_loop.rs`'s
//!   `a_failed_suspend_the_next_decision_takes_back_is_found_by_the_kept_split`).
//!   A candidate whose record still holds is clean: the dirty set is
//!   exactly the one a walk over every vjob finds, and debug builds check
//!   that it is.
//!   [`optimize_incremental`](super::PlanOptimizer::optimize_incremental),
//!   whose caller may have changed any vjob, walks the slice to find them
//!   and feeds the same path;
//! * it rebuilds `visit` and the `movable*` vectors in index order from the
//!   kept `visit` and the dirty records alone — a vjob that owns a movable
//!   VM holds fetched records, so it is dirty — and problem order, and with
//!   it every search tree, is the one a fresh split gives;
//! * it re-prices the room of only four kinds of node: those
//!   [`Configuration::changed_nodes`] lists, those whose ledger entry moved
//!   ([`Configuration::changed_loads`]), those that entered or left the
//!   overload set and those where the demand the records give back moved
//!   — or every node in one pass over the ledger, once that is a quarter
//!   of them.  The summed room of every dimension
//!   is kept beside the table, and so is the **room tree** the halo is
//!   ranked from: a max tree over the rows, keyed by the room in the
//!   sub-problem's scarcest dimension first, the way the first-fit index of
//!   [`FreeCapacityIndex`](crate::ffd::FreeCapacityIndex) keeps its maxima.
//!   A re-priced row patches its path to the root, O(log nodes); the tree
//!   is built again, O(nodes), when the table is, or when the scarcest
//!   dimension moves.
//!
//! A decided-Running vjob with no transition is not thereby pinned: after a
//! failed suspend the commit leaves a vjob Running while one of its VMs
//! sleeps, and the next decision lists no transition for it.  The diff sees
//! that VM.  The split is **built from nothing**, by the same path with
//! every vjob dirty and every node priced, when nothing is kept, when the
//! node set differs from the kept one, when the `vjobs` slice is shorter
//! than the kept one, or when the kept VM lists are not disjoint: a VM two
//! vjobs name has one owner in the table, so the other would not be
//! marked.  The table holds fewer VMs than the lists exactly then (a
//! re-read vjob takes out only the entries that name it), so one length
//! compare tells, and there is one patch path.  A move of the overload set
//! is a patch: a loop whose nodes shrink and heal every tick reads the
//! vjobs on the nodes that moved, not every vjob.  A rebuild drops the
//! table and the index; the next diff that finds nothing else forcing a
//! rebuild builds the table from the kept lists, the first one that sees
//! the overload set move builds the index from the table, and patches keep
//! both from then on.  A cold solve runs that path from an empty
//! [`KeptSplit`], and a solve that fails keeps nothing.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use cwcs_model::{
    Configuration, Dimension, IdHashMap, NodeId, ResourceDemand, ResourceUsage, Vjob, VjobId,
    VjobState, VmAssignment, VmId, NUM_RESOURCE_DIMENSIONS,
};

use super::placement::{PlacementProblem, Solved};
use super::{OptimizedOutcome, OptimizerError, Placement, PlanOptimizer};
use crate::decision::Decision;

/// Tuning of [`OptimizerMode::Repair`](super::OptimizerMode::Repair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Number of extra candidate destination nodes (beyond the nodes the
    /// movable VMs already involve) admitted into the sub-problem, ranked by
    /// free capacity after pinning.  Doubled on each widening round.
    pub halo: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { halo: 16 }
    }
}

/// Statistics of one repair-mode optimization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// VMs re-placed by the sub-problem.
    pub movable_vms: usize,
    /// VMs pinned to their current host.
    pub pinned_vms: usize,
    /// Candidate destination nodes of the (last) sub-problem.
    pub candidate_nodes: usize,
    /// Halo-widening rounds performed (0 when the first candidate set
    /// sufficed).
    pub widenings: u32,
    /// Plan cost of the grafted greedy incumbent, when one existed.
    pub incumbent_cost: Option<u64>,
    /// True when every candidate set failed and the optimizer fell back to
    /// the full First-Fit-Decreasing packing.
    pub fell_back_to_full: bool,
    /// Vjobs whose VM records the split read: every vjob when it was built
    /// from nothing, the dirty ones when it was patched (module docs).
    pub(crate) split_vjobs_read: usize,
}

/// The VMs that must run, split for a repair.  The three `movable*` vectors
/// run in parallel, in problem order (vjob order × VM order).  Only the
/// movable VMs have their records fetched; the pinned ones are counted and
/// what they weigh is read off the configuration's load ledger.
#[derive(Debug, Clone, Default, PartialEq)]
struct Split {
    /// How many run on a healthy node: they stay put.
    pinned: usize,
    /// Waiting, sleeping, or on an overloaded node (its running VMs are
    /// misplaced by definition): the sub-problem re-places them.
    movable: Vec<VmId>,
    movable_demands: Vec<ResourceDemand>,
    movable_assignments: Vec<VmAssignment>,
    /// Indices in `vjobs`, ascending, of the vjobs whose target can differ
    /// from today: every vjob not decided Running that has a VM running or
    /// unknown to the configuration, and every one decided Running that
    /// owns a movable VM.  The graft visits these and no other, so a
    /// terminated vjob costs nothing tick after tick.
    visit: Vec<usize>,
    /// Capacity the sub-problem may fill on every node, in node id order.
    /// An overloaded node offers its whole capacity (none of its VMs is
    /// pinned); a healthy one its capacity less what the ledger says it
    /// carries, once the running VMs of the vjobs *not* decided Running are
    /// given back.  So it is at least `Configuration::free`, and a running
    /// VM that belongs to no vjob is debited like any load the node carries:
    /// nothing boots onto the room it occupies.
    free: Vec<(NodeId, ResourceDemand)>,
}

/// Room in the scarcest dimension first, then in the others in
/// [`Dimension::ALL`] order: the key the halo is ranked by, largest first.
type RoomKey = [u64; NUM_RESOURCE_DIMENSIONS];

/// A node as the halo ranks it: larger room first, then the smaller id.
type Ranked = (RoomKey, Reverse<NodeId>);

/// The rows of a split's room table ranked for the halo, with their summed
/// room: a max tree whose leaf `rows + r` holds row `r` as [`Ranked`] and
/// whose inner entry `i`, for `1 <= i < rows`, the larger of entries `2i`
/// and `2i + 1`, so that entry 1 is the best node.  The leaves need not be
/// a power of two: every entry but the root has its parent at half its
/// position, whatever rows the subtree covers.  A ranking takes the best
/// leaves out one by one — `None` ranks below every node — and puts them
/// back.
#[derive(Debug, Clone, Default, PartialEq)]
struct RoomTree {
    /// The rooms of the table, summed per dimension.
    total: [u64; NUM_RESOURCE_DIMENSIONS],
    /// The dimension the keys lead with; `None` before the first build.
    scarcest: Option<Dimension>,
    entries: Vec<Option<Ranked>>,
}

/// A row of the room table as the halo ranks it when `scarcest` leads: the
/// remaining dimensions follow in `Dimension::ALL` order, and the node id
/// breaks ties deterministically.
fn ranked(&(node, room): &(NodeId, ResourceDemand), scarcest: Dimension) -> Ranked {
    let dims = room.dims();
    let mut key = [dims[scarcest.index()]; NUM_RESOURCE_DIMENSIONS];
    let others = (0..NUM_RESOURCE_DIMENSIONS).filter(|&d| d != scarcest.index());
    for (slot, d) in key[1..].iter_mut().zip(others) {
        *slot = dims[d];
    }
    (key, Reverse(node))
}

/// The sub-problem's scarcest dimension: the resource whose `needed` demand
/// eats the largest fraction of the room `total_free` sums.  The
/// per-dimension pressures `needed[d] / total_free[d]` are compared
/// cross-multiplied to stay in integers; the first dimension wins ties, so
/// a CPU/memory sub-problem ranks exactly as the historical pair-based code
/// did.
fn scarcest(needed: &ResourceDemand, total_free: &[u64; NUM_RESOURCE_DIMENSIONS]) -> Dimension {
    let mut scarcest = Dimension::ALL[0];
    for &d in &Dimension::ALL[1..] {
        let challenger = (needed.get(d) as u128) * (total_free[scarcest.index()].max(1) as u128);
        let incumbent = (needed.get(scarcest) as u128) * (total_free[d.index()].max(1) as u128);
        if challenger > incumbent {
            scarcest = d;
        }
    }
    scarcest
}

impl RoomTree {
    /// Price row `row` of `free` at `room`, keeping the summed room (the
    /// tree is patched by [`RoomTree::index`]).
    fn reprice(&mut self, free: &mut [(NodeId, ResourceDemand)], row: usize, room: ResourceDemand) {
        let old = std::mem::replace(&mut free[row].1, room);
        for d in Dimension::ALL {
            let total = &mut self.total[d.index()];
            *total = *total - old.get(d) + room.get(d);
        }
    }

    /// Bring the tree up to date for `split`'s movable VMs: patch the rows
    /// `touched` lists when the scarcest dimension held, else build it.
    /// `None`: every row was priced again, so the summed room is too.
    fn index(&mut self, split: &Split, touched: Option<&[usize]>) {
        if touched.is_none() {
            self.total = [0; NUM_RESOURCE_DIMENSIONS];
            for (_, room) in &split.free {
                for d in Dimension::ALL {
                    self.total[d.index()] += room.get(d);
                }
            }
        }
        let needed: ResourceDemand = split.movable_demands.iter().copied().sum();
        let scarcest = scarcest(&needed, &self.total);
        match touched {
            Some(rows) if self.scarcest == Some(scarcest) => {
                for &row in rows {
                    let leaf = ranked(&split.free[row], scarcest);
                    self.set_leaf(split.free.len() + row, Some(leaf));
                }
            }
            _ => self.build(&split.free, scarcest),
        }
    }

    /// Rank every row of `free` with `scarcest` leading, reusing the
    /// entries' buffer: O(rows).
    fn build(&mut self, free: &[(NodeId, ResourceDemand)], scarcest: Dimension) {
        self.scarcest = Some(scarcest);
        self.entries.clear();
        self.entries.resize(free.len(), None);
        let leaves = free.iter().map(|row| Some(ranked(row, scarcest)));
        self.entries.extend(leaves);
        self.rank_inner();
    }

    /// Set every inner entry from the leaves: O(rows).
    fn rank_inner(&mut self) {
        for at in (1..self.entries.len() / 2).rev() {
            self.entries[at] = self.entries[2 * at].max(self.entries[2 * at + 1]);
        }
    }

    /// Set the leaf at position `at` to `entry` (`None`: taken out), and
    /// every entry above it: O(log rows).
    fn set_leaf(&mut self, mut at: usize, entry: Option<Ranked>) {
        self.entries[at] = entry;
        while at > 1 {
            at /= 2;
            self.entries[at] = self.entries[2 * at].max(self.entries[2 * at + 1]);
        }
    }

    /// Take the best leaf out of the tree: its position and entry, `None`
    /// once every leaf is out.  O(log rows).
    fn take_best(&mut self) -> Option<(usize, Ranked)> {
        let best = self.entries.get(1).copied().flatten()?;
        let rows = self.entries.len() / 2;
        let mut at = 1;
        while at < rows {
            at = if self.entries[2 * at] == Some(best) {
                2 * at
            } else {
                2 * at + 1
            };
        }
        self.set_leaf(at, None);
        Some((at, best))
    }
}

impl Split {
    /// Where `node` sits in the id-ordered room table: at its id when the
    /// ids below it are dense, else found by a binary search.
    fn row(&self, node: NodeId) -> usize {
        match self.free.get(node.0 as usize) {
            Some(&(id, _)) if id == node => node.0 as usize,
            _ => {
                let at = self.free.binary_search_by_key(&node, |&(id, _)| id);
                at.expect("a node of the configuration")
            }
        }
    }

    /// The room the sub-problem may fill on `node`.
    fn room(&self, node: NodeId) -> ResourceDemand {
        self.free[self.row(node)].1
    }
}

/// The split kept between two solves, and what it was computed from (see
/// the module docs).  Flat: a small record per vjob, and the VM lists and
/// fetched VM records of all of them back to back, so a patch allocates
/// nothing per vjob.
#[derive(Debug, Clone, Default)]
pub(super) struct KeptSplit {
    /// The configuration the split was computed on.
    snapshot: Configuration,
    /// Its overload set.
    overloaded: BTreeSet<NodeId>,
    /// What the split took from each vjob, by index in the `vjobs` slice.
    vjobs: Vec<VjobSplit>,
    /// The VM lists of `vjobs`, back to back.
    vms: Vec<VmId>,
    /// For every VM of `vms`, the index of a vjob whose list names it: the
    /// only one while the lists are disjoint, which is when the table holds
    /// as many VMs as `vms`.  `None` until a patch needs it (module docs).
    owner: Option<IdHashMap<VmId, u32>>,
    /// The host index kept with `owner`: per node, the VMs of the table
    /// that run there on the kept configuration, in no order.  `None` until
    /// a patch sees the overload set move, and whenever `owner` is.
    hosted: Option<IdHashMap<NodeId, Vec<VmId>>>,
    /// The VM records the split fetched, back to back in the order of
    /// `vjobs` and of their VM lists: of a vjob decided Running its movable
    /// VMs, of any other its running VMs on a healthy node (what it gives
    /// back).  Every solve reads them again (module docs).
    fetched: Vec<Fetched>,
    /// The indices of the vjobs whose records are in `fetched`, ascending.
    holders: Vec<u32>,
    /// The indices of the vjobs the last decision moved, ascending.
    moved: Vec<u32>,
    /// Per healthy node, the demand the vjobs not decided Running give back
    /// there, summed.
    released: IdHashMap<NodeId, ResourceDemand>,
    split: Split,
    /// The rows of the split's room table, ranked for the halo.
    rooms: RoomTree,
    /// The dirty indices of a patch, and the `visit` of the split it
    /// patches: buffers.
    dirty: Vec<u32>,
    visited: Vec<usize>,
}

/// A VM record the split fetched.
type Fetched = (VmId, VmAssignment, ResourceDemand);

/// What the split took from one vjob: the inputs it read beside the records
/// of the vjob's VMs, and how many records it fetched.
#[derive(Debug, Clone, Copy)]
struct VjobSplit {
    id: VjobId,
    /// Where its VM list starts in [`KeptSplit::vms`], and its length.
    start: u32,
    vms: u32,
    /// How many of its VM records are in [`KeptSplit::fetched`].
    fetched: u32,
    /// Decided Running.
    runs: bool,
    /// Its target can differ from today, so the graft visits it: decided
    /// Running with a movable VM, or not decided Running with a VM that
    /// runs (it suspends or stops) or that `current` does not know (an
    /// error).  A change of either marks the vjob dirty.
    visit: bool,
}

/// What changed since a kept split was computed.
struct Diff {
    /// The nodes whose record or ledger entry differs (the node set did not
    /// move).
    nodes: Vec<NodeId>,
    /// The indices of the kept vjobs that own a VM whose assignment
    /// differs, ascending, each once.
    marked: Vec<u32>,
}

/// How much of the vjob slice an update of a kept split looked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplitWork {
    /// The vjobs it examined: the candidates of a patch that does not walk, every vjob
    /// of a walk or a build.
    examined: usize,
    /// The vjobs whose VM records it read: the dirty ones.
    read: usize,
}

impl VjobSplit {
    /// Read `vjob`'s VMs off `current` — an assignment lookup per VM — and
    /// push onto `fetched` the records of the movable ones, or of the
    /// running VMs of a vjob not decided Running.  Its VM list is placed at
    /// `start`.
    fn read(
        current: &Configuration,
        vjob: &Vjob,
        runs: bool,
        overloaded: &BTreeSet<NodeId>,
        fetched: &mut Vec<Fetched>,
        start: usize,
    ) -> Result<Self, OptimizerError> {
        let before = fetched.len();
        let mut live = false;
        for &vm in &vjob.vms {
            // Only a running VM has a host.
            let assignment = current.assignment(vm).ok();
            let host = assignment.and_then(|a| a.host);
            live |= assignment.is_none() || host.is_some();
            let healthy_host = host.filter(|host| !overloaded.contains(host));
            if runs != healthy_host.is_some() {
                let (assignment, demand) = PlanOptimizer::vm_record(current, vm)?;
                fetched.push((vm, assignment, demand));
            }
        }
        Ok(VjobSplit {
            id: vjob.id,
            start: start as u32,
            vms: vjob.vms.len() as u32,
            fetched: (fetched.len() - before) as u32,
            runs,
            visit: match runs {
                true => fetched.len() > before,
                false => live,
            },
        })
    }

    /// Its VM list in `vms`, [`KeptSplit::vms`].
    fn list<'a>(&self, vms: &'a [VmId]) -> &'a [VmId] {
        &vms[self.start as usize..][..self.vms as usize]
    }

    /// How many of its VMs are pinned: when decided Running, those on a
    /// healthy node.
    fn pinned(&self) -> usize {
        match self.runs {
            true => (self.vms - self.fetched) as usize,
            false => 0,
        }
    }

    /// True when the split of `vjob`, decided Running or not as `runs`
    /// says, is this record, none of whose VMs changed assignment: it
    /// fetched no VM record, and has the same id, VM list (in `vms`) and
    /// flag.
    fn holds(&self, vms: &[VmId], vjob: &Vjob, runs: bool) -> bool {
        self.fetched == 0 && self.id == vjob.id && self.runs == runs && self.list(vms) == vjob.vms
    }
}

/// Add the split of a vjob — `record`, with the VM records it `fetched` — to
/// the pinned count and the released demand (`add`), or take it out, and
/// note each node whose released demand moved.
fn account(
    record: &VjobSplit,
    fetched: &[Fetched],
    add: bool,
    pinned: &mut usize,
    released: &mut IdHashMap<NodeId, ResourceDemand>,
    moved: &mut Vec<NodeId>,
) {
    if record.runs {
        match add {
            true => *pinned += record.pinned(),
            false => *pinned -= record.pinned(),
        }
        return;
    }
    for &(_, assignment, demand) in fetched {
        let node = assignment.host.expect("a released VM runs");
        let sum = released.entry(node).or_default();
        *sum = match add {
            true => *sum + demand,
            false => sum.saturating_sub(&demand),
        };
        moved.push(node);
    }
}

/// The host of `vm` on `config`: `None` unless it runs there.
fn host_of(config: &Configuration, vm: VmId) -> Option<NodeId> {
    config.assignment(vm).ok()?.host
}

/// Enter `vm` into the host index at `host`, or take it out (`add` false),
/// when there is an index.
fn index_host(
    hosted: &mut Option<IdHashMap<NodeId, Vec<VmId>>>,
    vm: VmId,
    host: Option<NodeId>,
    add: bool,
) {
    let (Some(hosted), Some(host)) = (hosted, host) else {
        return;
    };
    let vms = hosted.entry(host).or_default();
    match add {
        true => vms.push(vm),
        false => {
            let at = vms.iter().position(|&hosted| hosted == vm);
            vms.swap_remove(at.expect("an indexed VM is on its host's list"));
        }
    }
}

/// Put `new` in place of `vec[at..at + len]`.
fn replace<T: Copy>(vec: &mut Vec<T>, at: usize, len: usize, new: &[T]) {
    if len == new.len() {
        vec[at..at + len].copy_from_slice(new);
    } else if at + len == vec.len() {
        vec.truncate(at);
        vec.extend_from_slice(new);
    } else {
        vec.splice(at..at + len, new.iter().copied());
    }
}

impl KeptSplit {
    /// What changed on `current` since the kept split, or `None` when it
    /// must be built from nothing (module docs).  A diff that is not `None`
    /// has brought the host index to `current`: ask it once per update.
    fn diff(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        overloaded: &BTreeSet<NodeId>,
    ) -> Option<Diff> {
        // A kept split has a row per node: an empty table is nothing kept.
        if self.split.free.is_empty() || vjobs.len() < self.vjobs.len() {
            return None;
        }
        let mut nodes: Vec<NodeId> = current.changed_nodes(&self.snapshot).collect();
        let on_both =
            |&node: &NodeId| current.node(node).is_ok() && self.snapshot.node(node).is_ok();
        if !nodes.iter().all(on_both) {
            return None;
        }
        let owner = self.owner.get_or_insert_with(|| {
            let mut owner = IdHashMap::default();
            for (index, record) in (0..).zip(&self.vjobs) {
                owner.extend(record.list(&self.vms).iter().map(|&vm| (vm, index)));
            }
            owner
        });
        // VM lists that are not disjoint (module docs).
        if owner.len() != self.vms.len() {
            return None;
        }
        nodes.extend(current.changed_loads(&self.snapshot));
        let mut marked = Vec::new();
        for vm in current.changed_assignments(&self.snapshot) {
            let Some(&index) = owner.get(&vm) else {
                continue;
            };
            marked.push(index);
            if self.hosted.is_some() {
                let (was, now) = (host_of(&self.snapshot, vm), host_of(current, vm));
                if was != now {
                    index_host(&mut self.hosted, vm, was, false);
                    index_host(&mut self.hosted, vm, now, true);
                }
            }
        }
        // A node that entered or left the overload set changes the split of
        // every vjob running a VM there, and its own room.  The first such
        // move builds the host index, on `current`.
        if *overloaded != self.overloaded {
            let hosted = self.hosted.get_or_insert_with(|| {
                let mut hosted: IdHashMap<NodeId, Vec<VmId>> = IdHashMap::default();
                for &vm in owner.keys() {
                    if let Some(host) = host_of(current, vm) {
                        hosted.entry(host).or_default().push(vm);
                    }
                }
                hosted
            });
            for &node in overloaded.symmetric_difference(&self.overloaded) {
                nodes.push(node);
                let vms = hosted.get(&node).into_iter().flatten();
                marked.extend(vms.map(|vm| owner[vm]));
            }
        }
        marked.sort_unstable();
        marked.dedup();
        Some(Diff { nodes, marked })
    }

    /// True when the kept record of the vjob at `index` is its split, the
    /// vjob decided Running or not as `runs` says and the owner table
    /// marking the indices of `marked`.
    fn clean(&self, index: usize, vjob: &Vjob, runs: bool, marked: &[u32]) -> bool {
        let Some(kept) = self.vjobs.get(index) else {
            return false;
        };
        marked.binary_search(&(index as u32)).is_err() && kept.holds(&self.vms, vjob, runs)
    }

    /// The dirty vjobs of a patch, found walking every vjob (module docs).
    fn walk_dirty(&self, decision: &Decision, vjobs: &[Vjob], marked: &[u32]) -> Vec<u32> {
        let mut decided = decision.decided_states();
        let dirty = vjobs.iter().enumerate().filter(|&(index, vjob)| {
            let runs = decided.of(index, vjob) == VjobState::Running;
            !self.clean(index, vjob, runs, marked)
        });
        dirty.map(|(index, _)| index as u32).collect()
    }

    /// Leave in `dirty`, ascending, the dirty vjobs of a patch: found
    /// walking every vjob when `walk` is set, else the candidates of the
    /// module docs that are not clean.  Returns how many vjobs it examined.
    fn find_dirty(
        &self,
        decision: &Decision,
        vjobs: &[Vjob],
        marked: &[u32],
        walk: bool,
        dirty: &mut Vec<u32>,
    ) -> usize {
        if walk {
            *dirty = self.walk_dirty(decision, vjobs, marked);
            return vjobs.len();
        }
        let kept = self.vjobs.len();
        dirty.clear();
        dirty.extend_from_slice(marked);
        dirty.extend_from_slice(&self.holders);
        dirty.extend_from_slice(&self.moved);
        dirty.extend(decision.transitions().iter().map(|t| t.index as u32));
        dirty.retain(|&index| (index as usize) < kept);
        dirty.sort_unstable();
        dirty.dedup();
        let examined = dirty.len() + (vjobs.len() - kept);
        let mut decided = decision.decided_states();
        dirty.retain(|&index| {
            let (index, vjob) = (index as usize, &vjobs[index as usize]);
            let runs = decided.of(index, vjob) == VjobState::Running;
            !self.clean(index, vjob, runs, marked)
        });
        dirty.extend(kept as u32..vjobs.len() as u32);
        debug_assert_eq!(
            *dirty,
            self.walk_dirty(decision, vjobs, marked),
            "the candidates miss a dirty vjob the walk finds"
        );
        examined
    }

    /// Bring the split up to date for `vjobs` on `current` under `decision`,
    /// `overloaded` being `current`'s overload set, finding the vjobs
    /// changed since walking every vjob when `walk` is set: patched when it
    /// can be, built from nothing otherwise (module docs).  On an error the
    /// kept split is half updated: the caller drops it.
    fn update(
        &mut self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        overloaded: &BTreeSet<NodeId>,
        walk: bool,
    ) -> Result<SplitWork, OptimizerError> {
        let diff = self.diff(current, vjobs, overloaded);
        // Taken now, so the chunks only the old snapshot still holds are
        // freed before the solve allocates.
        self.snapshot = current.clone();
        let mut dirty = std::mem::take(&mut self.dirty);
        let examined = match &diff {
            Some(diff) => self.find_dirty(decision, vjobs, &diff.marked, walk, &mut dirty),
            None => {
                self.vjobs.clear();
                self.vms.clear();
                self.owner = None;
                self.hosted = None;
                self.fetched.clear();
                self.holders.clear();
                self.released.clear();
                self.split.pinned = 0;
                self.split.visit.clear();
                dirty.clear();
                dirty.extend(0..vjobs.len() as u32);
                vjobs.len()
            }
        };
        let split = &mut self.split;
        std::mem::swap(&mut split.visit, &mut self.visited);
        split.visit.clear();
        split.movable.clear();
        split.movable_demands.clear();
        split.movable_assignments.clear();
        self.holders.clear();
        // The healthy nodes where the released demand moved.
        let mut moved: Vec<NodeId> = Vec::new();
        // Only a dirty vjob has fetched records (a clean one fetched none):
        // the new `fetched` is their reads, in order, and the old one is
        // read only to take their old records out of the sums.
        let old_fetched = std::mem::take(&mut self.fetched);
        self.fetched.reserve(old_fetched.len());
        let mut at_old = 0;
        let mut decided = decision.decided_states();
        // The visited vjobs that are not dirty stay visited.
        let mut visited = self.visited.iter().copied().peekable();
        for &index in &dirty {
            let (index, vjob) = (index as usize, &vjobs[index as usize]);
            while let Some(clean) = visited.next_if(|&visited| visited < index) {
                split.visit.push(clean);
            }
            visited.next_if_eq(&index);
            let runs = decided.of(index, vjob) == VjobState::Running;
            let start = self.fetched.len();
            let kept = self.vjobs.get(index).copied();
            let list = kept.map_or(self.vms.len(), |kept| kept.start as usize);
            let record = VjobSplit::read(current, vjob, runs, overloaded, &mut self.fetched, list)?;
            let (pinned, released) = (&mut split.pinned, &mut self.released);
            let fetched = &self.fetched[start..];
            account(&record, fetched, true, pinned, released, &mut moved);
            let listed = match kept {
                Some(old) => {
                    self.vjobs[index] = record;
                    let fetched = &old_fetched[at_old..][..old.fetched as usize];
                    at_old += fetched.len();
                    account(&old, fetched, false, pinned, released, &mut moved);
                    old.vms as usize
                }
                None => {
                    self.vjobs.push(record);
                    0
                }
            };
            let old_list = list..list + listed;
            if self.vms[old_list.clone()] != vjob.vms[..] {
                // On a patch, its old VMs leave the owner table and the
                // host index unless another vjob took them over, and its new
                // ones name it; a VM enters the index with the table.
                if let Some(owner) = &mut self.owner {
                    let (index, hosted) = (index as u32, &mut self.hosted);
                    for &vm in &self.vms[old_list] {
                        if owner.get(&vm) == Some(&index) {
                            owner.remove(&vm);
                            index_host(hosted, vm, host_of(current, vm), false);
                        }
                    }
                    for &vm in &vjob.vms {
                        if owner.insert(vm, index).is_none() {
                            index_host(hosted, vm, host_of(current, vm), true);
                        }
                    }
                }
                replace(&mut self.vms, list, listed, &vjob.vms);
                // The lists after it moved with it.
                let grown = vjob.vms.len() as i64 - listed as i64;
                for later in &mut self.vjobs[index + 1..] {
                    later.start = (i64::from(later.start) + grown) as u32;
                }
            }
            let fetched = &self.fetched[start..];
            if record.visit {
                split.visit.push(index);
            }
            if !fetched.is_empty() {
                self.holders.push(index as u32);
            }
            if runs {
                for &(vm, assignment, demand) in fetched {
                    split.movable.push(vm);
                    split.movable_demands.push(demand);
                    split.movable_assignments.push(assignment);
                }
            }
        }
        split.visit.extend(visited);
        let read = dirty.len();
        self.dirty = dirty;
        self.moved.clear();
        let transitions = decision.transitions().iter();
        self.moved.extend(transitions.map(|t| t.index as u32));

        // A healthy node offers its capacity less what the ledger says it
        // carries, once the released demand is given back: sequential
        // saturating debits of the pinned VMs, as one (the ledger sums
        // `Vm::demand`, which is what a running VM packs by).
        let released = &self.released;
        let room = |node: NodeId, usage: ResourceUsage| {
            let mut carried = ResourceDemand::ZERO;
            if !overloaded.contains(&node) {
                let released = released.get(&node).copied().unwrap_or_default();
                carried = usage.used.saturating_sub(&released);
            }
            usage.capacity.saturating_sub(&carried)
        };
        // The nodes to price again, or `None` for all of them: one pass over
        // the ledger beats a lookup per node once a quarter of them are
        // listed.
        let stale = diff.map(|Diff { mut nodes, .. }| {
            nodes.extend(moved);
            nodes
        });
        match stale.filter(|stale| stale.len() <= split.free.len() / 4) {
            Some(stale) => {
                let mut touched = Vec::with_capacity(stale.len());
                for node in stale {
                    let usage = current.usage(node).expect("the node set did not move");
                    let row = split.row(node);
                    self.rooms.reprice(&mut split.free, row, room(node, usage));
                    touched.push(row);
                }
                self.rooms.index(split, Some(&touched));
            }
            // Collected in place: the table reuses the buffer of `usages()`.
            None => {
                let rows = current.usages().into_iter();
                split.free = rows
                    .map(|(node, usage)| (node, room(node, usage)))
                    .collect();
                self.rooms.index(split, None);
            }
        }
        self.overloaded.clone_from(overloaded);
        Ok(SplitWork { examined, read })
    }
}

/// The candidate destinations, best first, ranked only as far as they are
/// read: `ranked` holds the anchors and the nodes taken so far.  The others
/// are taken out of the room tree best first, O(log nodes) each, and put
/// back when the ranking is dropped.
struct Ranking<'a> {
    ranked: Vec<NodeId>,
    anchors: BTreeSet<NodeId>,
    rooms: &'a mut RoomTree,
    /// The leaves taken out of `rooms`, with their entries.
    taken: Vec<(usize, Ranked)>,
}

impl Ranking<'_> {
    /// The `n` best candidates (all of them when there are fewer), taking
    /// out of the tree only what was not ranked yet.
    fn first(&mut self, n: usize) -> &[NodeId] {
        while self.ranked.len() < n {
            let Some((at, entry)) = self.rooms.take_best() else {
                break;
            };
            self.taken.push((at, entry));
            let (_, Reverse(node)) = entry;
            if !self.anchors.contains(&node) {
                self.ranked.push(node);
            }
        }
        &self.ranked[..n.min(self.ranked.len())]
    }
}

impl Drop for Ranking<'_> {
    /// Put the taken leaves back: the tree is kept for the next solve.  One
    /// pass over the inner entries beats a path per leaf once the paths
    /// outnumber them.
    fn drop(&mut self) {
        let rows = self.rooms.entries.len() / 2;
        let depth = (usize::BITS - rows.leading_zeros()) as usize;
        if self.taken.len() * depth > rows {
            for &(at, entry) in &self.taken {
                self.rooms.entries[at] = Some(entry);
            }
            self.rooms.rank_inner();
        } else {
            for &(at, entry) in &self.taken {
                self.rooms.set_leaf(at, Some(entry));
            }
        }
    }
}

impl PlanOptimizer {
    /// Repair-based partial reconfiguration: re-place only the movable VMs
    /// over a reduced candidate node set, seed the search with a
    /// keep-current-host incumbent, and graft the sub-solution back onto
    /// the untouched configuration.
    ///
    /// The split is `kept`'s, brought up to date finding the changed vjobs
    /// walking every vjob when `walk` is set, among its own candidates
    /// otherwise (module docs); it is taken out of `kept` and put back only
    /// by a solve that succeeds, so a solve that fails keeps nothing.  The
    /// overloaded nodes are read off `current`'s load ledger, O(overloaded
    /// nodes).
    pub(super) fn optimize_repair(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        config: RepairConfig,
        kept: &mut Option<KeptSplit>,
        walk: bool,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        if current.node_count() == 0 {
            return Err(OptimizerError::NoViablePlacement);
        }
        let overloaded = current.viability_violations().into_iter();
        let overloaded: BTreeSet<NodeId> = overloaded.map(|(node, _)| node).collect();
        let mut updated = kept.take().unwrap_or_default();
        let work = updated.update(current, decision, vjobs, &overloaded, walk)?;
        let (split, rooms) = (&updated.split, &mut updated.rooms);
        let mut repair = RepairStats {
            movable_vms: split.movable.len(),
            pinned_vms: split.pinned,
            split_vjobs_read: work.read,
            ..Default::default()
        };
        let visit = Some(&split.visit[..]);
        let price =
            |placement: &Placement| self.outcome(current, decision, vjobs, placement, visit);

        let mut outcome = if split.movable.is_empty() {
            // Nothing to re-place: every VM that must run stays where it is.
            let outcome = price(&Placement::new())?;
            repair.incumbent_cost = Some(outcome.cost.total);
            outcome
        } else {
            let (mut ranking, base) = Self::rank_halo(split, rooms, overloaded);
            let (problem, (solved, stats, portfolio)) =
                self.widen_until_solved(split, &mut ranking, base, config, &mut repair);
            let mut outcome = match solved {
                Some(placement) => Self::graft(price, placement, &problem, &mut repair)?,
                // Even the whole cluster did not help (the decision module
                // proved the states fit, so the fallback normally succeeds).
                None => {
                    repair.fell_back_to_full = true;
                    let must_run = Self::vms_to_run(decision, vjobs);
                    let placement = Self::fallback_placement(current, decision, &must_run)?;
                    self.outcome(current, decision, vjobs, &placement, None)?
                }
            };
            (outcome.stats, outcome.portfolio) = (stats, portfolio);
            outcome
        };
        outcome.repair = Some(repair);
        *kept = Some(updated);
        Ok(outcome)
    }

    /// Multi-resource halo ranking: rank the candidate destinations by
    /// their free capacity in the sub-problem's **scarcest** dimension —
    /// the resource whose movable demand eats the largest fraction of what
    /// the cluster has free.  A network-bound sub-problem thus pulls in
    /// NIC-rich nodes first instead of the memory-heavy picks a blended
    /// score would make.
    ///
    /// Returns the ranking of every node — the anchors (everything the
    /// movable VMs already involve, plus the overloaded nodes themselves),
    /// then the rest, larger room first and the smaller id on a tie — and
    /// how many of them it takes to *hold* the movable VMs at all; the halo
    /// proper is slack beyond that.  The rest is taken off `rooms`, the
    /// split's room tree kept between solves: only the nodes read so far
    /// are ranked, so a repair that reads `base + halo` of them costs
    /// O((anchors + base + halo) · log nodes).
    fn rank_halo<'r>(
        split: &Split,
        rooms: &'r mut RoomTree,
        overloaded: BTreeSet<NodeId>,
    ) -> (Ranking<'r>, usize) {
        let mut anchors = overloaded;
        for assignment in &split.movable_assignments {
            anchors.extend(assignment.host);
            anchors.extend(assignment.image);
        }
        let needed: ResourceDemand = split.movable_demands.iter().copied().sum();
        debug_assert_eq!(
            rooms.scarcest,
            Some(scarcest(&needed, &rooms.total)),
            "the room tree leads with the scarcest dimension"
        );
        let mut ranking = Ranking {
            ranked: anchors.iter().copied().collect(),
            anchors,
            rooms,
            taken: Vec::new(),
        };

        // The halo must at least be able to *hold* the movable VMs: extend
        // the ranked list until the cumulative free capacity covers the
        // movable demand on every dimension.
        let mut acc: ResourceDemand = ranking.ranked.iter().map(|&n| split.room(n)).sum();
        let mut base = ranking.ranked.len();
        while !needed.fits_in(&acc) {
            let Some(&node) = ranking.first(base + 1).get(base) else {
                break;
            };
            acc += split.room(node);
            base += 1;
        }
        (ranking, base)
    }

    /// Solve the sub-problem over the first `base + halo` nodes of the
    /// ranking, doubling the halo each time that candidate set turns out too
    /// small, until the search finds a placement or the set is the whole
    /// cluster.  Returns the last sub-problem with what its solve yielded.
    fn widen_until_solved<'a>(
        &self,
        split: &'a Split,
        ranking: &mut Ranking<'_>,
        base: usize,
        config: RepairConfig,
        repair: &mut RepairStats,
    ) -> (PlacementProblem<'a>, Solved) {
        let mut halo = config.halo.max(1);
        loop {
            let nodes = ranking.first(base.saturating_add(halo));
            let mut candidates: Vec<_> = nodes.iter().map(|&n| (n, split.room(n))).collect();
            candidates.sort_unstable_by_key(|&(node, _)| node);
            repair.candidate_nodes = candidates.len();
            let mut problem = PlacementProblem {
                vms: &split.movable,
                demands: &split.movable_demands,
                assignments: &split.movable_assignments,
                candidates,
                incumbent: None,
            };
            problem.incumbent = problem.keep_host_incumbent();
            let solved = self.solve_placement(&problem);
            if solved.0.is_some() || problem.candidates.len() >= split.free.len() {
                return (problem, solved);
            }
            repair.widenings += 1;
            halo = halo.saturating_mul(2);
        }
    }

    /// Price the sub-solution — the target is the untouched configuration
    /// with only the movable VMs re-placed — with "no worse than the
    /// incumbent" guaranteed on *plan* costs: the search objective is only
    /// an estimate (bypass migrations and suspend fallbacks can re-price an
    /// action), so when an incumbent existed and priced better once planned
    /// (`price`), it is returned instead.
    fn graft(
        price: impl Fn(&Placement) -> Result<OptimizedOutcome, OptimizerError>,
        placement: Placement,
        problem: &PlacementProblem,
        repair: &mut RepairStats,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let incumbent = problem
            .incumbent
            .as_ref()
            .map(|values| problem.placement(values));
        let mut outcome = price(&placement)?;
        match incumbent {
            None => {}
            Some(incumbent) if incumbent == placement => {
                repair.incumbent_cost = Some(outcome.cost.total)
            }
            Some(incumbent) => {
                let priced = price(&incumbent)?;
                repair.incumbent_cost = Some(priced.cost.total);
                if priced.cost.total < outcome.cost.total {
                    outcome = priced;
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        cluster_with_an_arrival, decide, five_second_optimizer, settled_cluster,
    };
    use super::super::OptimizerMode;
    use super::*;
    use crate::control_loop::SolverConfig;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, SmallRng, VjobId, Vm, VmState};
    use std::collections::BTreeMap;
    use std::time::Duration;

    #[test]
    fn repair_pins_well_placed_vms_and_produces_an_empty_plan() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.cost.total, 0, "nothing should move");
        assert!(outcome.plan.is_empty());
        let repair = outcome.repair.expect("repair stats in repair mode");
        assert_eq!(repair.movable_vms, 0);
        assert_eq!(repair.pinned_vms, 8);
        assert!(!repair.fell_back_to_full);
    }

    #[test]
    fn repair_boots_a_new_vjob_without_touching_the_rest() {
        // A fifth node with room, and a waiting 2-VM vjob.
        let (c, vjobs) = cluster_with_an_arrival();
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(4)], VjobState::Running);

        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "only the new vjob is movable");
        assert_eq!(repair.pinned_vms, 8);
        assert_eq!(outcome.plan.stats().migrations, 0, "no one else moves");
        assert_eq!(outcome.plan.stats().runs, 2);
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    #[test]
    fn repair_prefers_local_resume_like_full_mode() {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        vjob.transition_to(VjobState::Sleeping).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.plan.stats().local_resumes, 1);
        assert_eq!(outcome.cost.total, 1024);
    }

    #[test]
    fn repair_evacuates_overloaded_nodes() {
        // Two busy 1-core VMs crammed on a 1-core node, a free node next to
        // it: the overloaded node's VMs are movable and one must migrate.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        for i in 0..2 {
            c.add_vm(Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
                .unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(0)))
                .unwrap();
        }
        assert!(!c.is_viable());
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(1)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "both crammed VMs are movable");
        assert!(outcome.target.is_viable());
        assert_eq!(outcome.plan.stats().migrations, 1);
    }

    #[test]
    fn repair_halo_ranks_by_the_scarce_resource() {
        // A CPU-skewed sub-problem: the movable VM needs 4 cores but almost
        // no memory.  Four memory-rich / CPU-poor nodes surround one
        // CPU-rich node.  The old blended `mem + 10·cpu` ranking pulled the
        // memory-rich nodes into the halo first and had to widen twice
        // before reaching the only node that can host the VM; ranking by the
        // scarcest dimension (CPU here) must find it without any widening.
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(64),
            ))
            .unwrap();
        }
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(8),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(4)))
            .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = five_second_optimizer(OptimizerMode::Repair(RepairConfig { halo: 1 }));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the CPU-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_halo_ranks_by_network_when_net_scarce() {
        // The network mirror of `repair_halo_ranks_by_the_scarce_resource`:
        // a net-skewed sub-problem — the movable VM pushes 800 Mbps but
        // needs almost no CPU or memory.  Four memory-rich nodes with a
        // saturated-looking 100 Mbps of NIC headroom surround one NIC-rich
        // node.  A memory (or blended) ranking pulls the memory-rich nodes
        // into the halo first and has to widen before reaching the only
        // node with bandwidth; ranking by the scarcest dimension (network
        // here) must find it without any widening.
        use cwcs_model::NetBandwidth;
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(
                Node::new(NodeId(i), CpuCapacity::cores(8), MemoryMib::gib(64))
                    .with_net(NetBandwidth::mbps(100)),
            )
            .unwrap();
        }
        c.add_node(
            Node::new(NodeId(4), CpuCapacity::cores(2), MemoryMib::gib(2))
                .with_net(NetBandwidth::gbps(1)),
        )
        .unwrap();
        c.add_vm(
            Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::percent(10))
                .with_net(NetBandwidth::mbps(800)),
        )
        .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = five_second_optimizer(OptimizerMode::Repair(RepairConfig { halo: 1 }));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the NIC-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_cost_never_exceeds_the_incumbent() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        if let Some(incumbent) = repair.incumbent_cost {
            assert!(outcome.cost.total <= incumbent);
        }
    }

    #[test]
    fn repair_and_full_agree_on_a_small_overload() {
        // The overload scenario of `overload_produces_suspends...`: both
        // modes must produce a viable target implementing the same decision.
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let full = five_second_optimizer(OptimizerMode::Full);
        let repair = five_second_optimizer(OptimizerMode::repair());
        let a = full.optimize(&c, &decision, &vjobs).unwrap();
        let b = repair.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(a.cost.total, b.cost.total, "both reach the optimum here");
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn an_unowned_running_vm_keeps_the_room_it_occupies() {
        // Regression: a running VM that belongs to no vjob was never debited
        // by the split (only must-run VMs were), so the 2 GiB boot below was
        // sent to node 0, onto the 3 GiB the unowned VM occupies, and the
        // planner gave up (`UnresolvableDependency`), aborting the loop.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(4),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(VmId(0), MemoryMib::gib(3), CpuCapacity::cores(1)))
            .unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::gib(2), CpuCapacity::cores(1)))
            .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(1)], 0)];
        let decision = Decision::new(
            &vjobs,
            [(VjobId(0), VjobState::Running)].into_iter().collect(),
            vec![(VmId(1), NodeId(1))],
        );
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(1)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(0)));
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    /// The split a cold solve computes, and its room tree: a kept split
    /// built from nothing.
    fn fresh_split(
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        overloaded: &BTreeSet<NodeId>,
    ) -> Result<KeptSplit, OptimizerError> {
        let mut kept = KeptSplit::default();
        kept.update(current, decision, vjobs, overloaded, true)?;
        Ok(kept)
    }

    /// The split this module had before it read the ledger, kept as the
    /// oracle: every must-run VM's record fetched, every pinned VM debited
    /// from its host one by one.  Returns the pinned placement it built
    /// beside the split (whose `visit` it leaves empty).
    fn per_vm_debit_split(
        current: &Configuration,
        must_run: &[VmId],
        overloaded: &BTreeSet<NodeId>,
    ) -> (Placement, Split) {
        let mut pinned = Placement::new();
        let mut split = Split {
            free: current.nodes().map(|n| (n.id, n.capacity())).collect(),
            ..Default::default()
        };
        for &vm in must_run {
            let (assignment, demand) = PlanOptimizer::vm_record(current, vm).unwrap();
            match (assignment.state, assignment.host) {
                (VmState::Running, Some(host)) if !overloaded.contains(&host) => {
                    pinned.insert(vm, host);
                    let at = split.free.binary_search_by_key(&host, |&(id, _)| id);
                    let left = &mut split.free[at.expect("pinned host exists")].1;
                    *left = left.saturating_sub(&demand);
                }
                _ => {
                    split.movable.push(vm);
                    split.movable_demands.push(demand);
                    split.movable_assignments.push(assignment);
                }
            }
        }
        split.pinned = pinned.len();
        (pinned, split)
    }

    /// A random cluster with no regard for viability: 2–6 uneven nodes, 1–8
    /// vjobs of 1–4 VMs (waiting, sleeping, or running wherever the dice
    /// fall, some with a NIC demand), each decided any of the four states —
    /// or absent from the decision: a waiting vjob, or a terminated one
    /// whose VMs all still run.
    fn random_case(rng: &mut SmallRng) -> (Configuration, Vec<Vjob>, Decision) {
        let mut c = Configuration::new();
        let nodes = rng.u64_in(2, 6) as u32;
        for i in 0..nodes {
            let node = Node::new(
                NodeId(i),
                CpuCapacity::cores(rng.u32_in_inclusive(1, 4)),
                MemoryMib::gib(rng.u64_in(2, 6)),
            );
            c.add_node(node.with_net(NetBandwidth::mbps(rng.u64_in(0, 2) * 500)))
                .unwrap();
        }
        let any_node = |rng: &mut SmallRng| NodeId(rng.index(nodes as usize) as u32);
        let states = [
            VjobState::Waiting,
            VjobState::Running,
            VjobState::Sleeping,
            VjobState::Terminated,
        ];
        let (mut vjobs, mut decided, mut next_vm) = (Vec::new(), BTreeMap::new(), 0);
        for j in 0..rng.u64_in(1, 8) as u32 {
            // The vjob's own state when the decision leaves it out.
            let absent = match rng.index(6) {
                0 => Some(VjobState::Waiting),
                1 => Some(VjobState::Terminated),
                _ => None,
            };
            let terminated = absent == Some(VjobState::Terminated);
            let mut vms = Vec::new();
            for _ in 0..rng.u64_in(1, 4) {
                let vm = VmId(next_vm);
                next_vm += 1;
                let record = Vm::new(
                    vm,
                    MemoryMib::mib(256 * rng.u64_in(1, 8)),
                    CpuCapacity::percent(rng.u32_in_inclusive(0, 100)),
                );
                c.add_vm(record.with_net(NetBandwidth::mbps(rng.u64_in(0, 3) * 100)))
                    .unwrap();
                let assignment = match rng.index(4) {
                    _ if terminated => VmAssignment::running(any_node(rng)),
                    0 => VmAssignment::waiting(),
                    1 => VmAssignment::sleeping(any_node(rng)),
                    _ => VmAssignment::running(any_node(rng)),
                };
                c.set_assignment(vm, assignment).unwrap();
                vms.push(vm);
            }
            let mut vjob = Vjob::new(VjobId(j), vms, j as u64);
            if terminated {
                vjob.transition_to(VjobState::Running).unwrap();
                vjob.transition_to(VjobState::Terminated).unwrap();
            } else if absent.is_none() {
                // As likely to be decided Running as anything else.
                let state = match rng.bool_with(0.5) {
                    true => VjobState::Running,
                    false => states[rng.index(states.len())],
                };
                decided.insert(VjobId(j), state);
            }
            vjobs.push(vjob);
        }
        let decision = Decision::new(&vjobs, decided, Vec::new());
        (c, vjobs, decision)
    }

    #[test]
    fn the_ledger_split_equals_the_per_vm_debit_split() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2417);
        let (mut with_movable, mut with_released, mut saturated) = (0, 0, 0);
        let (mut with_undecided, mut with_terminated, mut skipped) = (0, 0, 0);
        for case in 0..400 {
            let (mut c, vjobs, decision) = random_case(&mut rng);
            // The overload set is the *view's*: usually the ledger's own,
            // sometimes lagging it — a node shrunk since below what it
            // carries that the view still calls healthy, or a healthy node
            // the view calls overloaded.
            let violations = c.viability_violations();
            let mut overloaded: BTreeSet<NodeId> = violations.iter().map(|&(n, _)| n).collect();
            let node = NodeId(rng.index(c.node_count()) as u32);
            match rng.index(4) {
                0 => {
                    let shrunk = ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::mib(512));
                    c.set_node_capacity(node, shrunk).unwrap();
                }
                1 => {
                    overloaded.insert(node);
                }
                _ => {}
            }

            let must_run = PlanOptimizer::vms_to_run(&decision, &vjobs);
            let (pinned, oracle) = per_vm_debit_split(&c, &must_run, &overloaded);
            let split = fresh_split(&c, &decision, &vjobs, &overloaded)
                .unwrap()
                .split;
            assert_eq!(split.movable, oracle.movable, "case {case}");
            assert_eq!(split.movable_demands, oracle.movable_demands, "case {case}");
            assert_eq!(
                split.movable_assignments, oracle.movable_assignments,
                "case {case}"
            );
            assert_eq!(split.pinned, oracle.pinned, "case {case}");
            assert_eq!(split.free, oracle.free, "case {case}");
            let movable = &split.movable;

            // The graft visits the vjobs decided Running that own a movable
            // VM, and the others that have a VM running or unknown.
            let runs =
                |vjob: &Vjob| decision.vjob_states.get(&vjob.id) == Some(&VjobState::Running);
            let owns_movable = |vjob: &Vjob| vjob.vms.iter().any(|vm| movable.contains(vm));
            let live = |vjob: &Vjob| {
                let state = |&vm| c.assignment(vm).map(|a| a.state);
                vjob.vms
                    .iter()
                    .any(|vm| !matches!(state(vm), Ok(s) if s != VmState::Running))
            };
            let visit: Vec<usize> = (0..vjobs.len())
                .filter(|&i| match runs(&vjobs[i]) {
                    true => owns_movable(&vjobs[i]),
                    false => live(&vjobs[i]),
                })
                .collect();
            assert_eq!(split.visit, visit, "case {case}");

            // The target of the sub-placement (per-VM work for the visited
            // vjobs only) is the target of the whole pinned ∪ sub-placement
            // map.
            let hosts = movable
                .iter()
                .map(|&vm| (vm, NodeId(rng.index(c.node_count()) as u32)));
            let sub: Placement = hosts.collect();
            let mut whole = pinned.clone();
            whole.extend(sub.clone());
            assert_eq!(
                PlanOptimizer::build_target(&c, &decision, &vjobs, &sub, Some(&split.visit)),
                PlanOptimizer::build_target(&c, &decision, &vjobs, &whole, None),
                "case {case}"
            );

            with_movable += usize::from(!movable.is_empty() && !pinned.is_empty());
            let still_runs = |vm: &VmId| c.state(*vm).unwrap() == VmState::Running;
            with_released += usize::from(
                vjobs
                    .iter()
                    .filter(|vjob| !runs(vjob))
                    .any(|vjob| vjob.vms.iter().any(still_runs)),
            );
            saturated += usize::from(c.nodes().any(|n| {
                !overloaded.contains(&n.id) && !c.usage(n.id).unwrap().is_within_capacity()
            }));
            let mut undecided = vjobs
                .iter()
                .filter(|vjob| !decision.vjob_states.contains_key(&vjob.id));
            with_undecided += usize::from(undecided.clone().next().is_some());
            with_terminated +=
                usize::from(undecided.any(|vjob| vjob.state == VjobState::Terminated));
            skipped += usize::from(visit.len() < vjobs.len());
        }
        // The generator reaches the regimes the equality is about.
        assert!(with_movable > 100, "{with_movable}");
        assert!(with_released > 100, "{with_released}");
        assert!(saturated > 20, "{saturated}");
        assert!(with_undecided > 100, "{with_undecided}");
        assert!(with_terminated > 50, "{with_terminated}");
        assert!(skipped > 20, "{skipped}");
    }

    /// The halo ranking this module had before it ranked lazily, kept as
    /// the oracle: every node that is not an anchor sorted by one
    /// comparator.  Returns the whole ranking, how many of its nodes it
    /// takes to hold the movable VMs, and the scarcest dimension.
    fn rank_by_full_sort(
        split: &Split,
        overloaded: &BTreeSet<NodeId>,
    ) -> (Vec<NodeId>, usize, Dimension) {
        let free: BTreeMap<NodeId, ResourceDemand> = split.free.iter().copied().collect();
        let mut anchors = overloaded.clone();
        for assignment in &split.movable_assignments {
            anchors.extend(assignment.host);
            anchors.extend(assignment.image);
        }
        let needed: ResourceDemand = split.movable_demands.iter().copied().sum();
        let mut total_free = [0u64; NUM_RESOURCE_DIMENSIONS];
        for v in free.values() {
            for d in Dimension::ALL {
                total_free[d.index()] += v.get(d);
            }
        }
        let mut scarcest = Dimension::ALL[0];
        for &d in &Dimension::ALL[1..] {
            let challenger =
                (needed.get(d) as u128) * (total_free[scarcest.index()].max(1) as u128);
            let incumbent = (needed.get(scarcest) as u128) * (total_free[d.index()].max(1) as u128);
            if challenger > incumbent {
                scarcest = d;
            }
        }
        let mut ranked_rest: Vec<NodeId> = free
            .keys()
            .copied()
            .filter(|n| !anchors.contains(n))
            .collect();
        ranked_rest.sort_by(|a, b| {
            let (fa, fb) = (&free[a], &free[b]);
            fb.get(scarcest)
                .cmp(&fa.get(scarcest))
                .then_with(|| {
                    for d in Dimension::ALL {
                        if d != scarcest {
                            let ordering = fb.get(d).cmp(&fa.get(d));
                            if ordering != std::cmp::Ordering::Equal {
                                return ordering;
                            }
                        }
                    }
                    std::cmp::Ordering::Equal
                })
                .then(a.0.cmp(&b.0))
        });
        let mut acc: ResourceDemand = anchors.iter().map(|n| free[n]).sum();
        let mut base = anchors.len();
        let ranked: Vec<NodeId> = anchors.into_iter().chain(ranked_rest).collect();
        while !needed.fits_in(&acc) && base < ranked.len() {
            acc += free[&ranked[base]];
            base += 1;
        }
        (ranked, base, scarcest)
    }

    /// Assert that `kept`'s room tree ranks its split as
    /// [`rank_by_full_sort`] does, every node of it, and is put back as it
    /// was; return the scarcest dimension.
    fn ranks_as_full_sort(
        kept: &mut KeptSplit,
        overloaded: &BTreeSet<NodeId>,
        what: &str,
    ) -> Dimension {
        let before = kept.rooms.clone();
        let (oracle, oracle_base, scarcest) = rank_by_full_sort(&kept.split, overloaded);
        // A few nodes are put back one by one, all of them in one pass.
        for n in [2, oracle.len() + 1] {
            let split = &kept.split;
            let anchors = overloaded.clone();
            let (mut ranking, base) = PlanOptimizer::rank_halo(split, &mut kept.rooms, anchors);
            assert_eq!(base, oracle_base, "{what}");
            assert_eq!(ranking.first(n), &oracle[..n.min(oracle.len())], "{what}");
            drop(ranking);
            assert_eq!(
                kept.rooms, before,
                "{what}: the ranking puts back what it took"
            );
        }
        scarcest
    }

    #[test]
    fn the_lazy_ranking_equals_the_full_sort() {
        let mut rng = SmallRng::seed_from_u64(0x4a2e_1a7e);
        let mut scarcest_seen = [0; NUM_RESOURCE_DIMENSIONS];
        let mut tied = 0;
        for case in 0..400 {
            // 2–60 nodes with gaps between their ids, rooms drawn from a
            // few values (so ties are common), a NIC on about a third.
            let (mut free, mut id) = (Vec::new(), 0);
            for _ in 0..rng.u64_in(2, 61) {
                id += rng.u64_in(1, 3) as u32;
                let room = ResourceDemand::new(
                    CpuCapacity::percent(100 * rng.u32_in_inclusive(0, 3)),
                    MemoryMib::mib(1024 * rng.u64_in(0, 4)),
                );
                let nic = rng.bool_with(0.35) as u64 * 500 * rng.u64_in(1, 3);
                free.push((NodeId(id), room.with_net(NetBandwidth::mbps(nic))));
            }
            let any_node = |rng: &mut SmallRng| free[rng.index(free.len())].0;
            let mut split = Split::default();
            for _ in 0..rng.u64_in(1, 5) {
                let demand = ResourceDemand::new(
                    CpuCapacity::percent(rng.u32_in_inclusive(0, 400)),
                    MemoryMib::mib(256 * rng.u64_in(0, 16)),
                );
                let net = NetBandwidth::mbps(100 * rng.u64_in(0, 10));
                split.movable_demands.push(demand.with_net(net));
                split.movable_assignments.push(match rng.index(3) {
                    0 => VmAssignment::waiting(),
                    1 => VmAssignment::sleeping(any_node(&mut rng)),
                    _ => VmAssignment::running(any_node(&mut rng)),
                });
            }
            let overloaded: BTreeSet<NodeId> = free
                .iter()
                .map(|&(node, _)| node)
                .filter(|_| rng.bool_with(0.05))
                .collect();
            split.free = free;
            let mut rooms = RoomTree::default();
            rooms.index(&split, None);

            let (oracle, oracle_base, scarcest) = rank_by_full_sort(&split, &overloaded);
            let (mut ranking, base) = PlanOptimizer::rank_halo(&split, &mut rooms, overloaded);
            assert_eq!(base, oracle_base, "case {case}");
            for n in 0..=oracle.len() + 1 {
                let prefix = &oracle[..n.min(oracle.len())];
                assert_eq!(ranking.first(n), prefix, "case {case}, first({n})");
            }
            // The ranking puts back every node it took out.
            drop(ranking);
            let mut built = RoomTree::default();
            built.index(&split, None);
            assert_eq!(rooms, built, "case {case}");

            scarcest_seen[scarcest.index()] += 1;
            let rooms: BTreeSet<_> = split.free.iter().map(|(_, room)| room.dims()).collect();
            tied += usize::from(rooms.len() < split.free.len());
        }
        // Every dimension leads the ranking somewhere, and equal rooms,
        // which only the id orders, are the rule.
        assert!(scarcest_seen.iter().all(|&n| n > 20), "{scarcest_seen:?}");
        assert!(tied > 300, "{tied}");
    }

    #[test]
    fn a_quiet_repair_ranks_and_visits_only_what_it_changes() {
        // 2 000 settled nodes, each running a 1-VM vjob and with a core
        // left, and one arriving 2-VM vjob.
        let mut c = Configuration::new();
        let mut vjobs = Vec::new();
        let vm = |id| Vm::new(VmId(id), MemoryMib::gib(1), CpuCapacity::cores(1));
        for i in 0..2000 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
            c.add_node(node).unwrap();
            c.add_vm(vm(i)).unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(i)))
                .unwrap();
            let mut vjob = Vjob::new(VjobId(i), vec![VmId(i)], i as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        c.add_vm(vm(2000)).unwrap();
        c.add_vm(vm(2001)).unwrap();
        vjobs.push(Vjob::new(VjobId(2000), vec![VmId(2000), VmId(2001)], 2000));
        let decision = Decision::new(
            &vjobs,
            vjobs.iter().map(|j| (j.id, VjobState::Running)).collect(),
            Vec::new(),
        );

        let overloaded = BTreeSet::new();
        let mut kept = KeptSplit::default();
        let work = kept
            .update(&c, &decision, &vjobs, &overloaded, true)
            .unwrap();
        assert_eq!(work.read, 2001, "a fresh split reads every vjob");
        let split = &kept.split;
        assert_eq!(split.visit, [2000], "only the arrival is visited");
        let (mut ranking, base) = PlanOptimizer::rank_halo(split, &mut kept.rooms, overloaded);
        assert_eq!(base, 2, "two nodes with a core free hold the arrival");

        let config = RepairConfig::default();
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let mut repair = RepairStats::default();
        let (_, (solved, _, _)) =
            optimizer.widen_until_solved(split, &mut ranking, base, config, &mut repair);
        assert!(solved.is_some());
        assert_eq!(repair.widenings, 0);
        assert!(
            ranking.ranked.len() <= base + config.halo,
            "{} nodes ranked",
            ranking.ranked.len()
        );
        drop(ranking);

        // The next tick: the arrival booted where the solve put it, and
        // another 2-VM vjob arrives.  The patched split reads the booted
        // vjob (the diff lists its VMs) and the new one, and nothing else.
        for (vm, node) in solved.unwrap() {
            c.set_assignment(vm, VmAssignment::running(node)).unwrap();
        }
        vjobs[2000].transition_to(VjobState::Running).unwrap();
        c.add_vm(vm(2002)).unwrap();
        c.add_vm(vm(2003)).unwrap();
        vjobs.push(Vjob::new(VjobId(2001), vec![VmId(2002), VmId(2003)], 2001));
        let decision = Decision::new(
            &vjobs,
            vjobs.iter().map(|j| (j.id, VjobState::Running)).collect(),
            Vec::new(),
        );
        let overloaded = BTreeSet::new();
        let mut walked = kept.clone();
        let work = walked.update(&c, &decision, &vjobs, &overloaded, true);
        let (examined, read) = (2002, 2);
        assert_eq!(
            work,
            Ok(SplitWork { examined, read }),
            "a walk examines every vjob"
        );
        // Among its own candidates, the patch examines only the vjobs it
        // reads again: the booted one, which the last decision moved, and
        // the arrival.
        let work = kept.update(&c, &decision, &vjobs, &overloaded, false);
        let (examined, read) = (2, 2);
        assert_eq!(
            work,
            Ok(SplitWork { examined, read }),
            "the booted vjob and the arrival"
        );
        assert_eq!(kept.split.visit, [2001]);
        let fresh = fresh_split(&c, &decision, &vjobs, &overloaded).unwrap();
        assert_eq!((&kept.split, &kept.rooms), (&fresh.split, &fresh.rooms));
        assert_eq!((&walked.split, &walked.rooms), (&fresh.split, &fresh.rooms));
        // The patched room tree ranks as a full sort does.
        ranks_as_full_sort(&mut kept, &overloaded, "the patched tree");
    }

    #[test]
    fn a_moved_overload_set_patches_the_split_of_the_vjobs_on_its_nodes() {
        // 2 000 nodes, each running a 1-VM vjob with a core left.  Each tick
        // 20 nodes shrink below their VM and the 20 shrunk before come back:
        // the overload set moves every tick.  The kept split is patched, not
        // built again: it reads the vjobs on the nodes that entered or left
        // the set and those the last switch moved, and solves as a cold
        // split does.
        let mut c = Configuration::new();
        let mut vjobs = Vec::new();
        let healthy = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(4));
        let shrunk = ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::mib(512));
        for i in 0..2000 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
            c.add_node(node).unwrap();
            let vm = Vm::new(VmId(i), MemoryMib::gib(1), CpuCapacity::cores(1));
            c.add_vm(vm).unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(i)))
                .unwrap();
            let mut vjob = Vjob::new(VjobId(i), vec![VmId(i)], i as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        let decision = Decision::new(
            &vjobs,
            vjobs.iter().map(|j| (j.id, VjobState::Running)).collect(),
            Vec::new(),
        );
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let mut memory = crate::SolverMemory::new();
        let view = cwcs_sim::monitor::ClusterView::new();
        let mut solve = |c: &Configuration| {
            let outcome = optimizer.optimize_incremental(&mut memory, &view, c, &decision, &vjobs);
            let outcome = outcome.unwrap();
            let cold = optimizer.optimize(c, &decision, &vjobs).unwrap();
            assert_eq!(
                outcome.cost, cold.cost,
                "the patched split solves as a cold one"
            );
            assert_eq!(outcome.target, cold.target);
            outcome
        };
        let outcome = solve(&c);
        assert_eq!(outcome.repair.unwrap().split_vjobs_read, 2000);
        let mut target = outcome.target;
        for tick in 0..4u32 {
            c = target;
            for i in 0..20 {
                let node = NodeId(100 * tick + 5 * i);
                c.set_node_capacity(node, shrunk).unwrap();
                if tick > 0 {
                    let back = NodeId(100 * (tick - 1) + 5 * i);
                    c.set_node_capacity(back, healthy).unwrap();
                }
            }
            assert_eq!(c.viability_violations().len(), 20);
            let outcome = solve(&c);
            assert_eq!(outcome.plan.stats().migrations, 20, "tick {tick}");
            let read = outcome.repair.unwrap().split_vjobs_read;
            assert!(read <= 150, "tick {tick}: the patch read {read} vjobs");
            target = outcome.target;
        }
    }

    #[test]
    fn a_solve_keeps_its_split_and_a_failed_one_keeps_none() {
        let (c, mut vjobs) = cluster_with_an_arrival();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let mut memory = crate::SolverMemory::new();
        let view = cwcs_sim::monitor::ClusterView::new();
        let mut solve = |decision: &Decision, vjobs: &[Vjob]| {
            let outcome = optimizer.optimize_incremental(&mut memory, &view, &c, decision, vjobs);
            let read = outcome.map(|outcome| outcome.repair.unwrap().split_vjobs_read);
            (read, memory.split.is_some())
        };
        // Built from nothing, then patched: only the arrival is read again,
        // its record holding the demands of the VMs it boots.
        assert_eq!(solve(&decision, &vjobs), (Ok(5), true));
        assert_eq!(solve(&decision, &vjobs), (Ok(1), true));
        // A vjob naming a VM the configuration never heard of.
        vjobs.push(Vjob::new(VjobId(5), vec![VmId(99)], 5));
        let mut states = decision.vjob_states.clone();
        states.insert(VjobId(5), VjobState::Running);
        let failing = Decision::new(&vjobs, states, decision.proof_placement.clone());
        let err = OptimizerError::UnknownVm(VmId(99));
        assert_eq!(solve(&failing, &vjobs), (Err(err), false));
        vjobs.pop();
        assert_eq!(solve(&decision, &vjobs), (Ok(5), true));
    }

    /// Decided states for `vjobs`: a terminated vjob left out, any other
    /// left out too one time in six, else any of the four states, Running
    /// as likely as the other three together.
    fn draw_decided(rng: &mut SmallRng, vjobs: &[Vjob]) -> BTreeMap<VjobId, VjobState> {
        let states = [
            VjobState::Waiting,
            VjobState::Running,
            VjobState::Sleeping,
            VjobState::Terminated,
        ];
        let mut decided = BTreeMap::new();
        for vjob in vjobs {
            if vjob.state == VjobState::Terminated || rng.index(6) == 0 {
                continue;
            }
            let state = match rng.bool_with(0.5) {
                true => VjobState::Running,
                false => states[rng.index(states.len())],
            };
            decided.insert(vjob.id, state);
        }
        decided
    }

    #[test]
    fn the_kept_split_equals_a_fresh_one_at_every_step() {
        // Two kept splits per seed, held across random steps on a
        // `random_case` cluster the way a memory holds it (an error drops
        // it), against the split a cold solve computes after each step: one
        // finds the changed vjobs walking, the other among its own
        // candidates, as the control loop's does — walking too after a step
        // that edits the vjob slice otherwise than by committing the last
        // decision, which the loop never does.  The patched room tree is
        // held to a full sort.  The regimes are counted over every walk: on one
        // stream, neutral changes to the step mix move a count by a factor
        // of two or more.
        let mut steps = [0; 9];
        let (mut patched, mut rebuilt, mut errors, mut flips) = (0, 0, 0, 0);
        let (mut failed_suspends, mut patched_overloaded, mut patched_viable) = (0, 0, 0);
        let (mut through_table, mut shared, mut crossed, mut indexed) = (0, 0, 0, 0);
        let mut candidates_only = 0;
        for seed in [
            0x6b3e_5917,
            0x1d2c_0a44,
            0x7f01_c3e9,
            0x2b95_6d10,
            0x58e4_b273,
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut c, mut vjobs, _) = random_case(&mut rng);
            // Roomy nodes, so that the overload set holds still between the
            // steps that shrink a node, and a step that moves it is a patch
            // the host index must get right; and 20 more of them, so that a
            // step leaves most rows of the room table as they are and the
            // patch prices the others one by one.
            let roomy = ResourceDemand::new(CpuCapacity::cores(8), MemoryMib::gib(16))
                .with_net(NetBandwidth::gbps(10));
            for node in c.node_ids() {
                c.set_node_capacity(node, roomy).unwrap();
            }
            for id in c.node_count() as u32..c.node_count() as u32 + 20 {
                let node = Node::new(NodeId(id), CpuCapacity::cores(8), MemoryMib::gib(16));
                c.add_node(node.with_net(NetBandwidth::gbps(10))).unwrap();
            }
            let mut decided = draw_decided(&mut rng, &vjobs);
            let mut next_vm = c.vm_count() as u32;
            let mut kept = KeptSplit::default();
            let mut unwalked = KeptSplit::default();
            // Whether a step edited the vjob slice otherwise than by
            // committing the last decision since the last update, and the
            // scarcest dimension it ranked by.
            let mut edited = false;
            let mut last_scarcest = None;
            for step in 0..400 {
                let nodes = c.node_count();
                let any_node = |rng: &mut SmallRng| NodeId(rng.index(nodes) as u32);
                let vms = c.vm_ids();
                // Reassignments twice as often as any other step.
                let kind = match rng.index(steps.len() + 1) {
                    9 => 1,
                    kind => kind,
                };
                steps[kind] += 1;
                let mut removed = None;
                match kind {
                    // A demand change.
                    0 if !vms.is_empty() => {
                        let vm = vms[rng.index(vms.len())];
                        let cpu = CpuCapacity::percent(rng.u32_in_inclusive(0, 100));
                        let net = NetBandwidth::mbps(rng.u64_in(0, 3) * 100);
                        c.set_vm_demand(vm, cpu, net).unwrap();
                    }
                    // A reassignment.  Two in five put a running VM of a vjob
                    // that runs and stays Running to sleep, as a failed suspend
                    // leaves it; two in five move a running or sleeping VM of a
                    // vjob whose kept record fetched nothing — a vjob a patch
                    // re-reads only when the owner table marks it — to sleep,
                    // to another node, or back to running where it sleeps; the
                    // fifth moves any VM anywhere.
                    1 if !vms.is_empty() => {
                        let runs = |vjob: &Vjob| {
                            vjob.state == VjobState::Running
                                && decided
                                    .get(&vjob.id)
                                    .is_none_or(|&s| s == VjobState::Running)
                        };
                        let running = |vm: &&VmId| c.state(**vm).ok() == Some(VmState::Running);
                        let to_sleep = vjobs.iter().filter(|vjob| runs(vjob));
                        let to_sleep: Vec<VmId> = to_sleep
                            .flat_map(|j| j.vms.iter().filter(running))
                            .copied()
                            .collect();
                        let mut unfetched = Vec::new();
                        for (record, vjob) in kept.vjobs.iter().zip(&vjobs) {
                            let list = record.list(&kept.vms);
                            if record.fetched == 0 && record.id == vjob.id && list == vjob.vms {
                                let placed =
                                    |vm: &&VmId| c.state(**vm).ok() != Some(VmState::Waiting);
                                unfetched.extend(list.iter().filter(placed));
                            }
                        }
                        let pick = rng.index(5);
                        if pick < 2 && !to_sleep.is_empty() {
                            let vm = to_sleep[rng.index(to_sleep.len())];
                            let image = c.host(vm).unwrap().unwrap();
                            c.set_assignment(vm, VmAssignment::sleeping(image)).unwrap();
                            failed_suspends += 1;
                        } else if pick < 4 && !unfetched.is_empty() {
                            let vm = unfetched[rng.index(unfetched.len())];
                            let now = c.assignment(vm).unwrap();
                            let next = match (now.host, now.image) {
                                (Some(host), _) if rng.bool_with(0.5) => {
                                    VmAssignment::sleeping(host)
                                }
                                (None, Some(image)) => VmAssignment::running(image),
                                _ => VmAssignment::running(any_node(&mut rng)),
                            };
                            c.set_assignment(vm, next).unwrap();
                        } else {
                            let vm = vms[rng.index(vms.len())];
                            let assignment = match rng.index(3) {
                                0 => VmAssignment::waiting(),
                                1 => VmAssignment::sleeping(any_node(&mut rng)),
                                _ => VmAssignment::running(any_node(&mut rng)),
                            };
                            c.set_assignment(vm, assignment).unwrap();
                        }
                    }
                    // A node shrunk (often into overload), healed or resized.
                    2 => {
                        let node = any_node(&mut rng);
                        let capacity = match rng.index(4) {
                            0 => ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::mib(512)),
                            1 | 2 => roomy,
                            _ => ResourceDemand::new(
                                CpuCapacity::cores(rng.u32_in_inclusive(1, 4)),
                                MemoryMib::gib(rng.u64_in(2, 6)),
                            )
                            .with_net(NetBandwidth::mbps(rng.u64_in(0, 2) * 500)),
                        };
                        c.set_node_capacity(node, capacity).unwrap();
                    }
                    // A VM removed, and from its vjobs after this step.
                    3 if !vms.is_empty() => {
                        let vm = vms[rng.index(vms.len())];
                        c.remove_vm(vm).unwrap();
                        removed = Some(vm);
                    }
                    // A vjob appended, with 1–3 new VMs.
                    4 => {
                        let mut members = Vec::new();
                        for _ in 0..rng.u64_in(1, 4) {
                            let vm = VmId(next_vm);
                            next_vm += 1;
                            let mib = MemoryMib::mib(256 * rng.u64_in(1, 8));
                            let record = Vm::new(
                                vm,
                                mib,
                                CpuCapacity::percent(rng.u32_in_inclusive(0, 100)),
                            );
                            c.add_vm(record).unwrap();
                            if rng.bool_with(0.5) {
                                c.set_assignment(vm, VmAssignment::running(any_node(&mut rng)))
                                    .unwrap();
                            }
                            members.push(vm);
                        }
                        let id = VjobId(vjobs.iter().map(|j| j.id.0 + 1).max().unwrap_or(0));
                        vjobs.push(Vjob::new(id, members, u64::from(id.0)));
                    }
                    // A vjob's VM list edited: the second naming of a VM two
                    // lists name dropped; else a VM dropped, or another one
                    // added — any VM, which most often another list names too
                    // (the lists are then not disjoint until the next edit or
                    // until the VM goes), or a new one.
                    5 if !vms.is_empty() => {
                        let mut seen = BTreeSet::new();
                        let named_twice = vjobs.iter().enumerate().find_map(|(at, vjob)| {
                            let again = vjob.vms.iter().position(|&vm| !seen.insert(vm));
                            again.map(|position| (at, position))
                        });
                        let at = rng.index(vjobs.len());
                        let pick = rng.index(8);
                        if let Some((twice, position)) = named_twice {
                            vjobs[twice].vms.remove(position);
                        } else if pick < 3 && vjobs[at].vms.len() > 1 {
                            let vjob = &mut vjobs[at];
                            vjob.vms.remove(rng.index(vjob.vms.len()));
                        } else if pick < 5 {
                            vjobs[at].vms.push(vms[rng.index(vms.len())]);
                        } else {
                            let vm = VmId(next_vm);
                            next_vm += 1;
                            c.add_vm(Vm::new(vm, MemoryMib::mib(512), CpuCapacity::percent(50)))
                                .unwrap();
                            vjobs[at].vms.push(vm);
                        }
                        edited = true;
                    }
                    // The decided states re-drawn.
                    6 => decided = draw_decided(&mut rng, &vjobs),
                    // The decided states committed where the life cycle
                    // allows: transitions of the last decision.
                    7 => {
                        for vjob in &mut vjobs {
                            if let Some(&state) = decided.get(&vjob.id) {
                                if vjob.state != state {
                                    let _ = vjob.transition_to(state);
                                }
                            }
                        }
                    }
                    // Two vjobs swap places, or the last one is dropped.
                    8 if vjobs.len() > 1 => {
                        if rng.bool_with(0.5) {
                            let (a, b) = (rng.index(vjobs.len()), rng.index(vjobs.len()));
                            vjobs.swap(a, b);
                            edited = true;
                        } else {
                            vjobs.pop();
                        }
                    }
                    _ => steps[kind] -= 1,
                }

                let decision = Decision::new(&vjobs, decided.clone(), Vec::new());
                let overloaded: BTreeSet<NodeId> = c
                    .viability_violations()
                    .into_iter()
                    .map(|(node, _)| node)
                    .collect();
                // Asked of a copy: a diff brings the kept host index forward.
                let patch = kept.clone().diff(&c, &vjobs, &overloaded).is_some();
                crossed += usize::from(patch && overloaded != kept.overloaded);
                // A patch only the owner table can get right: a vjob whose
                // record holds by its id, flag and VM list, fetched nothing,
                // and owns a VM whose assignment changed.
                if patch {
                    let changed: BTreeSet<VmId> = c.changed_assignments(&kept.snapshot).collect();
                    let mut states = decision.decided_states();
                    let mut marked_only = false;
                    for (index, (record, vjob)) in kept.vjobs.iter().zip(&vjobs).enumerate() {
                        let runs = states.of(index, vjob) == VjobState::Running;
                        let holds = record.holds(&kept.vms, vjob, runs);
                        marked_only |= holds && vjob.vms.iter().any(|vm| changed.contains(vm));
                    }
                    through_table += usize::from(marked_only);
                }
                let fresh = fresh_split(&c, &decision, &vjobs, &overloaded);
                let by_candidates = unwalked.update(&c, &decision, &vjobs, &overloaded, edited);
                candidates_only += usize::from(patch && !edited);
                edited = false;
                let walked = kept.update(&c, &decision, &vjobs, &overloaded, true);
                assert_eq!(
                    by_candidates.as_ref().map(|work| work.read),
                    walked.as_ref().map(|work| work.read),
                    "seed {seed:#x}, step {step}: the candidates and the walk read the same vjobs"
                );
                match (walked, fresh) {
                    (Ok(work), Ok(fresh)) => {
                        // The kept VM lists are the slice's.  The owner table,
                        // once a patch built it: the table the lists give while
                        // they are disjoint, short of them exactly when not.
                        let lists = vjobs.iter().flat_map(|vjob| vjob.vms.iter().copied());
                        assert!(
                            kept.vms.iter().copied().eq(lists),
                            "seed {seed:#x}, step {step}"
                        );
                        let mut named = IdHashMap::default();
                        for (index, vjob) in (0..).zip(&vjobs) {
                            named.extend(vjob.vms.iter().map(|&vm| (vm, index)));
                        }
                        let disjoint = named.len() == kept.vms.len();
                        if let Some(owner) = &kept.owner {
                            assert_eq!(
                                owner.len() == kept.vms.len(),
                                disjoint,
                                "seed {seed:#x}, step {step}"
                            );
                            if disjoint {
                                assert_eq!(owner, &named, "seed {seed:#x}, step {step}");
                                // The host index: the table's VMs by their host.
                                let mut hosts: BTreeMap<NodeId, Vec<VmId>> = BTreeMap::new();
                                for &vm in named.keys() {
                                    if let Ok(Some(host)) = c.host(vm) {
                                        hosts.entry(host).or_default().push(vm);
                                    }
                                }
                                if let Some(hosted) = &kept.hosted {
                                    let mut index: BTreeMap<NodeId, Vec<VmId>> = BTreeMap::new();
                                    for (&node, vms) in hosted.iter().filter(|e| !e.1.is_empty()) {
                                        index.insert(node, vms.clone());
                                    }
                                    for vms in hosts.values_mut().chain(index.values_mut()) {
                                        vms.sort_unstable();
                                    }
                                    assert_eq!(index, hosts, "seed {seed:#x}, step {step}");
                                    indexed += 1;
                                }
                            }
                        }
                        assert_eq!(kept.owner.is_some(), patch, "seed {seed:#x}, step {step}");
                        shared += usize::from(!disjoint);
                        // The kept room tree ranks as a full sort does, and
                        // is put back as it was.
                        let what = format!("seed {seed:#x}, step {step}");
                        let scarcest = ranks_as_full_sort(&mut unwalked, &overloaded, &what);
                        flips += usize::from(patch && last_scarcest.is_some_and(|d| d != scarcest));
                        last_scarcest = Some(scarcest);

                        assert_eq!(kept.rooms, fresh.rooms, "seed {seed:#x}, step {step}");
                        assert_eq!(unwalked.rooms, fresh.rooms, "seed {seed:#x}, step {step}");
                        let (split, fresh) = (&kept.split, &fresh.split);
                        assert_eq!(split.pinned, fresh.pinned, "seed {seed:#x}, step {step}");
                        assert_eq!(split.movable, fresh.movable, "seed {seed:#x}, step {step}");
                        assert_eq!(
                            split.movable_demands, fresh.movable_demands,
                            "seed {seed:#x}, step {step}"
                        );
                        assert_eq!(
                            split.movable_assignments, fresh.movable_assignments,
                            "seed {seed:#x}, step {step}"
                        );
                        assert_eq!(split.visit, fresh.visit, "seed {seed:#x}, step {step}");
                        assert_eq!(split.free, fresh.free, "seed {seed:#x}, step {step}");
                        assert_eq!(unwalked.split, *split, "seed {seed:#x}, step {step}");
                        if !patch {
                            assert_eq!(
                                work.read,
                                vjobs.len(),
                                "seed {seed:#x}, step {step}: built from nothing"
                            );
                        }
                        patched += usize::from(patch);
                        rebuilt += usize::from(!patch);
                        patched_overloaded += usize::from(patch && !overloaded.is_empty());
                        patched_viable += usize::from(patch && overloaded.is_empty());
                    }
                    (Err(kept_err), Err(fresh_err)) => {
                        assert_eq!(kept_err, fresh_err, "seed {seed:#x}, step {step}");
                        kept = KeptSplit::default();
                        unwalked = KeptSplit::default();
                        last_scarcest = None;
                        errors += 1;
                    }
                    (kept_result, fresh) => {
                        let fresh = fresh.map(|_| ());
                        panic!(
                            "seed {seed:#x}, step {step}: the kept split gave \
                             {kept_result:?}, a fresh one {fresh:?}"
                        )
                    }
                }
                for vjob in &mut vjobs {
                    let named = vjob.vms.len();
                    vjob.vms.retain(|&vm| Some(vm) != removed);
                    edited |= vjob.vms.len() < named;
                }
            }
        }
        // Every step ran, and the regimes the equality is about were reached.
        assert!(steps.iter().all(|&n| n > 20), "{steps:?}");
        assert!(patched > 250, "{patched}");
        assert!(rebuilt > 25, "{rebuilt}");
        assert!(patched_viable > 100, "{patched_viable}");
        assert!(patched_overloaded > 80, "{patched_overloaded}");
        assert!(errors > 5, "{errors}");
        assert!(failed_suspends > 8, "{failed_suspends}");
        assert!(through_table > 25, "{through_table}");
        assert!(shared > 20, "{shared}");
        assert!(flips > 20, "{flips}");
        assert!(crossed > 20, "{crossed}");
        assert!(indexed > 200, "{indexed}");
        assert!(candidates_only > 500, "{candidates_only}");
    }

    #[test]
    fn a_shrunk_node_keeps_what_it_still_holds_and_its_root_proves_it() {
        // Nodes 0 and 1 shrunk to 2 cores / 6 GiB, each running six 1-core
        // VMs of 1, 2, 4, 1, 2, 4 GiB; nodes 2 and 3 empty.  Each shrunk
        // node keeps two VMs at most, and keeping a 4 and a 2 GiB one evicts
        // the least memory (8 GiB).  Packed largest first in one pass, node
        // 0's second 4 GiB VM first-fits into node 1's room, and node 1
        // then evicts 10 GiB.
        let mut c = Configuration::new();
        for i in 0..4 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(8), MemoryMib::gib(16));
            c.add_node(node).unwrap();
        }
        let gibs = [1, 2, 4, 1, 2, 4];
        let mut vjobs = Vec::new();
        for id in 0..12u32 {
            let memory = MemoryMib::gib(gibs[id as usize % 6]);
            c.add_vm(Vm::new(VmId(id), memory, CpuCapacity::cores(1)))
                .unwrap();
            c.set_assignment(VmId(id), VmAssignment::running(NodeId(id / 6)))
                .unwrap();
            let mut vjob = Vjob::new(VjobId(id), vec![VmId(id)], id as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        let shrunk = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(6));
        for node in [NodeId(0), NodeId(1)] {
            c.set_node_capacity(node, shrunk).unwrap();
        }
        let decision = Decision::new(
            &vjobs,
            vjobs.iter().map(|j| (j.id, VjobState::Running)).collect(),
            Vec::new(),
        );

        let overloaded: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let mut kept = KeptSplit::default();
        kept.update(&c, &decision, &vjobs, &overloaded, true)
            .unwrap();
        let split = &kept.split;
        assert_eq!(split.movable.len(), 12);
        let (mut ranking, base) = PlanOptimizer::rank_halo(split, &mut kept.rooms, overloaded);
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_secs(3_600))
            .with_node_limit(2_000)
            .with_workers(2)
            .with_mode(OptimizerMode::repair())
            .build_optimizer();
        let config = RepairConfig::default();
        let mut repair = RepairStats::default();
        let (problem, (solved, stats, portfolio)) =
            optimizer.widen_until_solved(split, &mut ranking, base, config, &mut repair);

        let incumbent = problem.incumbent.as_ref().expect("the incumbent packs");
        let host = |i: usize| problem.candidates[incumbent[i] as usize].0;
        for node in [NodeId(0), NodeId(1)] {
            let mut kept: Vec<u64> = (0..problem.vms.len())
                .filter(|&i| host(i) == node)
                .map(|i| problem.demands[i].memory.raw())
                .collect();
            kept.sort_unstable();
            assert_eq!(
                kept,
                [2 * 1024, 4 * 1024],
                "{node} keeps a 4 and a 2 GiB VM"
            );
        }
        let incumbent: Placement = (0..problem.vms.len())
            .map(|i| (problem.vms[i], host(i)))
            .collect();
        assert_eq!(solved, Some(incumbent), "the search keeps the incumbent");
        assert!(stats.completed, "the root proves the incumbent");
        assert!(stats.incumbent_kept);
        // Both nodes evict 1 + 2 + 4 + 1 GiB, a migration each.
        assert_eq!(stats.root_bound, Some(2 * 8 * 1024));
        let portfolio = portfolio.expect("a 2-worker race");
        assert_eq!(portfolio.workers.len(), 2);
        for worker in &portfolio.workers {
            assert_eq!(worker.best_cost, Some(2 * 8 * 1024));
            assert_eq!(worker.stats.root_bound, stats.root_bound);
        }
    }
}
