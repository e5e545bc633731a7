//! What an incremental control loop keeps between two solves: the cached
//! placement model with its set-diff patch protocol, and the warm-start
//! state of the search (see the [module docs](super)).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cwcs_model::{Configuration, Dimension, NodeId, VmId, NUM_RESOURCE_DIMENSIONS};
use cwcs_sim::monitor::ObservationDelta;
use cwcs_solver::constraints::{MultiDimPacking, PackingSlots};
use cwcs_solver::{Model, VarId};

use super::PlanOptimizer;

/// Maximum VM set-diff (removed + added) the cached placement model absorbs
/// by patching variables in place before a solve falls back to a rebuild:
/// sized so one streaming tick of vjob arrivals at the 10k-node benchmark
/// shape (1 000 vjobs × 2 VMs arriving while the previous tick's 2 000 leave
/// the movable set ≈ a 4 000-VM diff) still patches instead of rebuilding.
pub const DEFAULT_MODEL_PATCH_BUDGET: usize = 4096;

/// Number of leading dimensions whose packing constraint is posted even when
/// every size is zero: the paper's (CPU, memory) pair, derived from
/// [`Dimension::is_legacy`] so there is a single source of truth.  See
/// [`MultiDimPacking::post`] — this is what keeps the 2-dimensional search
/// bit-identical to the historical pair-based model.
const LEGACY_DIMS: usize = {
    let mut n = 0;
    while n < NUM_RESOURCE_DIMENSIONS && Dimension::ALL[n].is_legacy() {
        n += 1;
    }
    n
};

/// Search state carried from one solve to the next by a warm-started
/// optimizer (see [`PlanOptimizer::with_warm_start`]): the previous
/// iteration's placement seeds the value ordering (each VM first tries the
/// node it was just assigned to), and `next_diversify` continues the Luby
/// restart schedule where the previous solve stopped instead of replaying
/// its prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Host chosen for each placed VM by the previous solve.
    pub placement: BTreeMap<VmId, NodeId>,
    /// Diversification index the next solve starts from (the previous
    /// solve's [`SearchStats::final_run`](cwcs_solver::search::SearchStats::final_run)
    /// plus one).
    pub next_diversify: u64,
}

/// The persistent solver state of an incremental control loop: the cached
/// placement model (variables + packing propagators, patched in place via
/// [`PackingSlots::resize`] while the VM set stays within the set-diff
/// budget) and the warm-start state of the search.  It holds no copy of any
/// VM's demand: every solve reads demands from the configuration it is
/// given.
///
/// [`PlanOptimizer::optimize_incremental`] threads this through every solve;
/// [`PlanOptimizer::optimize`] is the same solve over a fresh, discarded
/// memory.  The memory is purely an accelerator: with warm start disabled
/// (the default) a solve over a patched memory is bit-identical to one over
/// an empty memory on the same inputs — the lockstep suite in
/// `tests/lockstep.rs` holds the loop to that contract.
#[derive(Clone, Default)]
pub struct SolverMemory {
    /// Version of the [`ClusterView`](cwcs_sim::monitor::ClusterView) this
    /// memory was last synchronized with.
    pub view_version: u64,
    /// Warm-start state of the previous solve (`None` until a warm-started
    /// solve completes).
    pub warm: Option<WarmStart>,
    /// The cached placement model, patched in place while the VM set stays
    /// within the set-diff budget of the cached one (see the module docs).
    cached: Option<CachedModel>,
    /// Solves that reused the cached model (same-shape re-parameterizations
    /// plus set-diff patches).
    pub model_patches: u64,
    /// The subset of [`SolverMemory::model_patches`] that went through the
    /// set-diff path (variables retired, recycled or appended) rather than
    /// a same-VM-set re-parameterization.
    pub model_set_diff_patches: u64,
    /// Solves that had to rebuild the model (cold cache, over-budget diff,
    /// packing-dimension flip or zombie compaction).
    pub model_rebuilds: u64,
}

impl fmt::Debug for SolverMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMemory")
            .field("view_version", &self.view_version)
            .field("warm", &self.warm)
            .field("cached", &self.cached.as_ref().map(|c| c.vars.len()))
            .field("model_patches", &self.model_patches)
            .field("model_set_diff_patches", &self.model_set_diff_patches)
            .field("model_rebuilds", &self.model_rebuilds)
            .finish()
    }
}

impl SolverMemory {
    /// Fresh, empty solver memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every cached structure (model, warm state), as a full resync
    /// does.  The next solve rebuilds from the configuration.
    pub fn invalidate(&mut self) {
        self.cached = None;
        self.warm = None;
    }

    /// The placement model of the sub-problem `(vms, node_count, sizes,
    /// capacities)`: the cached model patched in place when
    /// [`CachedModel::patch`] accepts the diff under `budget`, a counted
    /// rebuild otherwise.  The caller hands the model back with
    /// [`SolverMemory::keep`] once it has searched it.
    pub(super) fn model_for(
        &mut self,
        vms: &[VmId],
        node_count: usize,
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        budget: usize,
    ) -> CachedModel {
        let patched = self
            .cached
            .take()
            .and_then(|cache| cache.patch(vms, node_count, sizes, capacities, budget));
        match patched {
            Some((model, set_diff)) => {
                self.model_patches += 1;
                self.model_set_diff_patches += u64::from(set_diff);
                model
            }
            None => {
                self.model_rebuilds += 1;
                CachedModel::build(vms, node_count, sizes, capacities)
            }
        }
    }

    /// Keep `model` for the next solve over a nearby problem shape.
    pub(super) fn keep(&mut self, model: CachedModel) {
        self.cached = Some(model);
    }
}

impl PlanOptimizer {
    /// Synchronize the persistent solver state with one observation delta:
    /// a full delta (a resync) drops the cached model and the warm state,
    /// as a resync must; an incremental one only records the view version.
    /// Nothing is copied out of `_current`: every solve reads the demands
    /// of the configuration it is handed, so there is no table to patch.
    pub fn sync_memory(
        &self,
        memory: &mut SolverMemory,
        delta: &ObservationDelta,
        _current: &Configuration,
    ) {
        if delta.full {
            memory.invalidate();
        }
        memory.view_version = delta.version;
    }
}

/// A placement model kept across solves: patched in place while the new
/// sub-problem's VM set stays within the set-diff budget of the cached one
/// (see the module docs), rebuilt otherwise.
#[derive(Clone)]
pub(super) struct CachedModel {
    pub(super) model: Model,
    /// Live `(VM, variable slot)` pairs, in the problem order of the solve
    /// that produced them.
    pub(super) vars: Vec<(VmId, VarId)>,
    /// Retired variable slots (fixed to a singleton, excluded from the
    /// packing constraints), recyclable for arriving VMs.
    retired: Vec<VarId>,
    /// Candidate-node count the live domains are `[0, count - 1]` over.
    /// Node *identity* is not cached: capacities, move costs and preferred
    /// values are re-derived from the problem on every solve.
    node_count: usize,
    slots: PackingSlots,
}

impl CachedModel {
    /// Build the model from scratch: one host variable per VM over
    /// `[0, node_count - 1]`, one packing constraint per live dimension.
    fn build(
        vms: &[VmId],
        node_count: usize,
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
    ) -> CachedModel {
        let mut model = Model::new();
        let vars: Vec<(VmId, VarId)> = vms
            .iter()
            .map(|&vm| {
                let var = model.new_named_var(format!("host({vm})"), 0, node_count as u32 - 1);
                (vm, var)
            })
            .collect();
        let ids: Vec<VarId> = vars.iter().map(|&(_, var)| var).collect();
        let slots =
            MultiDimPacking::post_patchable(&mut model, &ids, sizes, capacities, LEGACY_DIMS);
        CachedModel {
            model,
            vars,
            retired: Vec::new(),
            node_count,
            slots,
        }
    }

    /// Patch this model to the sub-problem `(vms, node_count, sizes,
    /// capacities)`, consuming the cache.  Returns the patched model and
    /// whether the VM set changed (variables retired, recycled or appended
    /// — a set-diff patch), or `None` — the caller rebuilds — when the VM
    /// set-diff exceeds `budget`, a packing dimension's inertness flipped,
    /// or retired slots would outnumber the live variables (zombie
    /// compaction).
    fn patch(
        mut self,
        vms: &[VmId],
        node_count: usize,
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        budget: usize,
    ) -> Option<(CachedModel, bool)> {
        let cached: BTreeMap<VmId, VarId> = self.vars.iter().copied().collect();
        let wanted: BTreeSet<VmId> = vms.iter().copied().collect();
        let removed: Vec<VarId> = self
            .vars
            .iter()
            .filter(|(vm, _)| !wanted.contains(vm))
            .map(|&(_, var)| var)
            .collect();
        let added = vms.iter().filter(|vm| !cached.contains_key(vm)).count();
        if removed.len() + added > budget {
            return None;
        }
        // Zombie compaction: recycling keeps the variable count flat under
        // balanced churn, but a shrinking sub-problem strands retired slots
        // and every store clone of the search pays for them.  Rebuild when
        // they would outnumber the live variables (small models are exempt:
        // a handful of zombies is cheaper than re-posting).
        let free = self.retired.len() + removed.len();
        let appended = added.saturating_sub(free);
        let total_after = self.model.var_count() + appended;
        if total_after > (2 * vms.len()).max(64) {
            return None;
        }
        // An inertness flip needs a different propagator set: pre-check so
        // a refusal never leaves a half-patched model behind.
        if !self.slots.dims_compatible(sizes, LEGACY_DIMS) {
            return None;
        }
        let set_diff = !removed.is_empty() || added > 0;
        for &var in &removed {
            self.model.retire_var(var);
            self.retired.push(var);
        }
        let domain_hi = node_count as u32 - 1;
        let reset_domains = node_count != self.node_count;
        self.vars.clear();
        for &vm in vms {
            // `cached` only holds live pairs, and every cached VM of `vms`
            // survived the removal pass above, so a hit is a kept variable.
            let var = match cached.get(&vm) {
                Some(&var) => {
                    if reset_domains {
                        self.model.reset_var(var, 0, domain_hi);
                    }
                    var
                }
                None => match self.retired.pop() {
                    Some(var) => {
                        self.model.reset_var(var, 0, domain_hi);
                        self.model.rename_var(var, format!("host({vm})"));
                        var
                    }
                    None => self
                        .model
                        .new_named_var(format!("host({vm})"), 0, domain_hi),
                },
            };
            self.vars.push((vm, var));
        }
        self.node_count = node_count;
        let ids: Vec<VarId> = self.vars.iter().map(|&(_, var)| var).collect();
        // Compatibility was pre-checked, so the resize cannot refuse.
        let resized = self
            .slots
            .resize(&mut self.model, &ids, sizes, capacities, LEGACY_DIMS);
        debug_assert!(resized, "dimension compatibility was pre-checked");
        resized.then_some((self, set_diff))
    }

    /// Scatter per-VM values given in problem order into a full
    /// per-variable vector (what the search takes as an incumbent): recycled
    /// slots assign variable indices out of problem order, and every retired
    /// variable sits at its singleton value, 0.
    pub(super) fn scatter(&self, values: &[u32]) -> Vec<u32> {
        let mut full = vec![0u32; self.model.var_count()];
        for (&(_, var), &value) in self.vars.iter().zip(values) {
            full[var.0] = value;
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_bit_identical, decide, settled_cluster};
    use super::*;
    use crate::consolidation::FcfsConsolidation;
    use crate::decision::DecisionModule;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, Vjob, VjobId, Vm};
    use cwcs_solver::search::{Search, SearchConfig};
    use std::time::Duration;

    #[test]
    fn same_vm_set_reuses_the_cached_model_without_a_set_diff() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        let first = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "cold cache builds once");
        assert_eq!(memory.model_patches, 0);
        let second = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "the same VM set must not rebuild");
        assert_eq!(memory.model_patches, 1);
        assert_eq!(memory.model_set_diff_patches, 0, "no variable changed");
        assert_bit_identical(&first, &second);
    }

    #[test]
    fn an_arrival_within_budget_patches_by_set_diff_bit_identically() {
        let (mut c, mut vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        // An arrival: a fifth node and a waiting 2-VM vjob.  The node count
        // changes too, so the patch must also re-bound every live domain.
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = decide(&c, &vjobs);
        let patched = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "the arrival must not rebuild");
        assert_eq!(memory.model_patches, 1);
        assert_eq!(memory.model_set_diff_patches, 1, "two VMs were appended");

        let mut fresh_memory = SolverMemory::new();
        let fresh = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut fresh_memory, None)
            .unwrap();
        assert_eq!(fresh_memory.model_rebuilds, 1);
        assert_bit_identical(&patched, &fresh);
    }

    #[test]
    fn an_over_budget_diff_falls_back_to_a_rebuild() {
        // Budget 1 cannot absorb a 2-VM arrival: the cache must cleanly
        // rebuild, into the very model a fresh memory builds.
        let vms = |count: u32| -> Vec<VmId> { (0..count).map(VmId).collect() };
        let sizes = |count: usize| vec![vec![100; count], vec![1024; count], vec![0; count]];
        let capacities = |nodes: usize| vec![vec![200; nodes], vec![4096; nodes], vec![0; nodes]];
        let mut memory = SolverMemory::new();
        let first = memory.model_for(&vms(8), 4, &sizes(8), &capacities(4), 1);
        memory.keep(first);
        let rebuilt = memory.model_for(&vms(10), 5, &sizes(10), &capacities(5), 1);
        assert_eq!(memory.model_rebuilds, 2, "over budget: rebuild, not patch");
        assert_eq!(memory.model_patches, 0);
        assert_eq!(memory.model_set_diff_patches, 0);

        let fresh = SolverMemory::new().model_for(&vms(10), 5, &sizes(10), &capacities(5), 1);
        assert_eq!(rebuilt.vars, fresh.vars);
        assert!(rebuilt.retired.is_empty());
        let search = |cached: &CachedModel| {
            let (solution, stats) =
                Search::new(&cached.model, SearchConfig::default()).solve_with_stats();
            let values = solution.map(|s| s.values().to_vec());
            (values, stats.nodes, stats.failures)
        };
        assert_eq!(search(&rebuilt), search(&fresh));
    }

    #[test]
    fn departures_retire_and_arrivals_recycle_variable_slots() {
        let (mut c, mut vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        let vars_after_build = memory.cached.as_ref().unwrap().model.var_count();
        assert_eq!(vars_after_build, 8);

        // Vjob 0 completes: its two VMs leave the sub-problem and their
        // variable slots are retired in place.
        let completed: BTreeSet<VjobId> = [VjobId(0)].into_iter().collect();
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_set_diff_patches, 1);
        let cached = memory.cached.as_ref().unwrap();
        assert_eq!(cached.model.var_count(), 8, "retiring must not shrink");
        assert_eq!(cached.retired.len(), 2);

        // A new 2-VM vjob arrives: both retired slots are recycled, so the
        // model still has exactly eight variables.
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        let patched = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1);
        assert_eq!(memory.model_set_diff_patches, 2);
        let cached = memory.cached.as_ref().unwrap();
        assert_eq!(cached.model.var_count(), 8, "recycling must not grow");
        assert_eq!(cached.retired.len(), 0);

        let mut fresh_memory = SolverMemory::new();
        let fresh = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut fresh_memory, None)
            .unwrap();
        assert_bit_identical(&patched, &fresh);
    }
}
