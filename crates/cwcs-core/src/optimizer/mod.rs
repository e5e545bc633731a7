//! Constraint-programming optimization of the cluster-wide context switch
//! (Section 4.3).
//!
//! Given the current configuration and the vjob states chosen by the decision
//! module, many equivalent viable configurations exist; they differ by the
//! cost of the reconfiguration plan that reaches them.  The optimizer builds
//! a CP model over the placement of the VMs that must run:
//!
//! * one assignment variable per running VM whose domain is the set of nodes;
//! * one bin-packing constraint per resource dimension (CPU, memory and —
//!   when some VM demands it — network bandwidth), the multi-knapsack
//!   constraint of the paper generalized over [`Dimension::ALL`](cwcs_model::Dimension::ALL);
//! * a branch & bound objective that estimates the cost of the induced plan
//!   from the VMs already assigned (migration = `Dm`, local resume = `Dm`,
//!   remote resume = `2·Dm`, run/stop = 0), exactly the incremental estimate
//!   Entropy uses while the configuration is being constructed;
//! * first-fail variable ordering weighted by the VM demands ("VMs with
//!   important CPU and memory requirements are treated earlier") and a value
//!   ordering that tries each VM's current location first so that cheap
//!   configurations are found early;
//! * a solve timeout: the best configuration found so far is returned when
//!   the time budget expires (40 s in the Figure 10 experiment).
//!
//! The First-Fit-Decreasing baseline ([`PlanOptimizer::ffd_outcome`]) stops
//! at the first viable configuration, without any cost consideration: it is
//! the comparison point of Figure 10.
//!
//! # Repair-based partial reconfiguration
//!
//! At cluster scale a full re-solve is hopeless: 500 nodes and thousands of
//! VMs give the bin-packing model a search space no time budget survives.
//! The paper's optimizer stays inside its timeout because it solves a
//! *repair* problem instead: only the VMs that are misplaced (hosted on an
//! overloaded node) or whose state must change for the decided vjob set are
//! reconsidered; every other running VM keeps its host.  In
//! [`OptimizerMode::Repair`] the optimizer
//!
//! 1. splits the VMs that must run into **pinned** (running on a healthy
//!    node: they stay put) and **movable** (waiting, sleeping, or hosted on
//!    an overloaded node — read off the load ledger of the configuration
//!    the solve is handed, O(overloaded nodes), by every entry point).  The
//!    split is kept between solves and patched from the configuration's
//!    diff: a quiet solve reads the VMs of the vjobs that changed — those a
//!    kept VM → vjob owner table names, those running a VM on a node that
//!    entered or left the overload set (a kept node → VM host index names
//!    them), those the previous or the current decision moves — and
//!    (`PlanOptimizer::optimize_changed`) finds them without walking
//!    every vjob;
//! 2. builds the **candidate node set**: the nodes already involved (current
//!    hosts and image locations of the movable VMs, overloaded nodes) plus a
//!    configurable *halo* of extra destination nodes ranked by the capacity
//!    left — in the sub-problem's scarcest resource dimension — once the
//!    pinned VMs are accounted for.  The ranking is a max tree over the
//!    room table, kept with the split and patched for each node the split
//!    prices again; the candidate set takes the nodes it reads out of it,
//!    best first, O(log nodes) each, and puts them back;
//! 3. solves the reduced placement model over movable VMs × candidate nodes,
//!    with the node capacities debited by the pinned VMs, **seeding the
//!    branch & bound with a greedy keep-current-host incumbent** (so "no
//!    worse than today" is the first incumbent: every VM that still fits
//!    its node stays, then the rest first-fit).  The bound knows what
//!    the candidates can hold (the capacity floor of
//!    [`AnchoredCost`](cwcs_solver::AnchoredCost)), and the floor is
//!    computed from the problem's tables before any model: when the
//!    incumbent moves no more than the overloaded nodes must lose, it costs
//!    the floor, it is the answer, and the solve builds no model and runs
//!    no search (debug builds search the model too and check that it
//!    agrees);
//! 4. **grafts** the sub-solution back onto the untouched configuration —
//!    the target is built from the sub-placement alone, and only the vjobs
//!    the split found changing (not decided Running, or owning a movable
//!    VM) are looked at — and plans the switch.  If the
//!    candidate set turns out too small the halo is doubled and the
//!    sub-problem re-solved; the final fallback is the full
//!    First-Fit-Decreasing packing and, where even that fails, the placement
//!    the decision module itself proved viable.
//!
//! By construction the repair outcome never costs more than the grafted
//! incumbent: if planning the search's solution somehow exceeds the
//! incumbent's plan cost, the incumbent target is returned instead.
//!
//! # One demand source
//!
//! What a VM weighs when it is packed is decided by one rule
//! ([`packing_demand`](crate::ffd::packing_demand) — the decision module
//! packs by it too, so admission and placement cannot disagree) from one
//! record (the configuration the solve is handed).  Each solve fetches the
//! assignment and demand of every VM it **places** exactly once — every
//! must-run VM in full mode, the movable ones in a repair — carries them
//! alongside the VM ids into the placement problem, and everything
//! downstream — the halo ranking, the packing constraints, the search
//! weights, the move costs, both First-Fit-Decreasing incumbents — reads
//! those vectors.  What the **pinned** VMs of a repair weigh is not fetched
//! VM by VM: it is read off the configuration's load ledger, which sums
//! `Vm::demand` — exactly the packing demand of a running VM — per node
//! (less the running VMs of the vjobs the decision stops, found by walking
//! only those vjobs).  The kept split holds the demands it fetched and
//! fetches them again at every solve; the demand of a pinned VM it never
//! holds.
//!
//! # What survives between solves
//!
//! One thing, in [`SolverMemory`]: the **kept split** of the last repair
//! that succeeded, with its room tree (see `repair`), which only saves
//! work: a solve through it returns what a cold solve returns.  Every
//! search starts from the VMs' anchors, whatever the previous solve found.
//! A resync ([`PlanOptimizer::sync_memory`] on a full delta) drops it.
//!
//! Every solve that searches builds its own CP model — one `host(vm)` variable per VM in
//! problem order, one packing constraint per live dimension — from the
//! configuration it is handed, searches it and drops it: sizes, capacities,
//! move costs and preferred values all change from tick to tick, so a model
//! holds nothing the next solve could reuse but its empty domains.  The
//! variable of VM `i` is variable `i`: the search weights, the preferred
//! values, the incumbents and the solution are all plain problem-order
//! vectors.
//!
//! # Modules
//!
//! * this module — [`PlanOptimizer`], its entry points (one solve: the
//!   incremental ones only add what the memory keeps) and what every solve
//!   shares: which VMs must run, the target configuration, the plan;
//! * `memory` — [`SolverMemory`]: the kept split;
//! * `placement` — one placement (sub-)problem and its CP solve: model,
//!   heuristics, objective, search;
//! * `repair` — the pinned/movable split (off the load ledger, kept and
//!   patched between solves), the room tree the halo is ranked from, the
//!   widening loop and the graft.

use std::collections::BTreeMap;
use std::fmt;

use cwcs_model::{Configuration, NodeId, Vjob, VjobState, VmAssignment, VmId, VmState};
use cwcs_plan::{ActionCostModel, PlanCost, Planner, PlannerError, ReconfigurationPlan};
use cwcs_sim::monitor::ClusterView;
use cwcs_solver::portfolio::PortfolioStats;
use cwcs_solver::search::SearchStats;

use crate::control_loop::SolverConfig;
use crate::decision::Decision;
use crate::ffd::FirstFitDecreasing;

mod memory;
mod placement;
mod repair;

pub use memory::SolverMemory;
use repair::KeptSplit;
pub use repair::{RepairConfig, RepairStats};

/// A host for each VM that must run.
type Placement = BTreeMap<VmId, NodeId>;

/// How the optimizer scopes the placement problem.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OptimizerMode {
    /// Re-place every VM that must run (the paper's Figure 10 setting).
    #[default]
    Full,
    /// Repair-based partial reconfiguration: keep healthy running VMs where
    /// they are and re-place only the VMs that must change, over a reduced
    /// candidate node set (see the module docs).
    Repair(RepairConfig),
}

impl OptimizerMode {
    /// Repair mode with the default halo.
    pub fn repair() -> Self {
        OptimizerMode::Repair(RepairConfig::default())
    }
}

/// Result of an optimization: the chosen target configuration, its plan and
/// the associated costs.
#[derive(Debug, Clone)]
pub struct OptimizedOutcome {
    /// The target configuration (viable, with the requested vjob states).
    pub target: Configuration,
    /// The reconfiguration plan from the current configuration.
    pub plan: ReconfigurationPlan,
    /// Cost breakdown of the plan (Table 1 model).
    pub cost: PlanCost,
    /// Search statistics (empty for the FFD baseline).  For a portfolio
    /// solve these are the aggregate over the workers (counts summed, the
    /// race's wall-clock time).
    pub stats: SearchStats,
    /// Portfolio race breakdown (per-worker statistics, winning worker),
    /// `None` when the solve ran single-threaded.
    pub portfolio: Option<PortfolioStats>,
    /// Sub-problem statistics, `None` outside repair mode.
    pub repair: Option<RepairStats>,
}

/// Errors raised by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerError {
    /// The requested states do not fit on the cluster at all.
    NoViablePlacement,
    /// The planner could not sequence the actions.
    Planner(PlannerError),
    /// A vjob references a VM unknown to the configuration.
    UnknownVm(VmId),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::NoViablePlacement => {
                f.write_str("no viable placement exists for the requested vjob states")
            }
            OptimizerError::Planner(e) => write!(f, "planning failed: {e}"),
            OptimizerError::UnknownVm(vm) => write!(f, "unknown VM {vm}"),
        }
    }
}

impl std::error::Error for OptimizerError {}

impl From<PlannerError> for OptimizerError {
    fn from(e: PlannerError) -> Self {
        OptimizerError::Planner(e)
    }
}

/// The plan optimizer.  Plans are priced by the paper's cost model
/// ([`ActionCostModel::paper`]), in the search estimate and the final plan
/// cost alike.
#[derive(Debug, Clone)]
pub struct PlanOptimizer {
    /// Every search setting: time budget, node budget, portfolio workers
    /// and mode.
    pub(crate) solver: SolverConfig,
    /// Planner used to sequence the chosen configuration.
    pub planner: Planner,
}

impl Default for PlanOptimizer {
    fn default() -> Self {
        SolverConfig::default().build_optimizer()
    }
}

impl PlanOptimizer {
    /// Optimize: find a cheap viable configuration implementing `decision`
    /// and the plan that reaches it from `current`.  A cold solve: no kept
    /// split.
    pub fn optimize(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        self.solve(&mut None, current, decision, vjobs, true)
    }

    /// Optimize against the persistent solver state: the solve of
    /// [`PlanOptimizer::optimize`], on the repair split the previous solve
    /// left in `memory`, patched from the configuration's diff (a repair
    /// outcome equals the cold one).  A solve that fails keeps no split.
    /// The kept split finds the vjobs that changed since by walking
    /// `vjobs`; `PlanOptimizer::optimize_changed` finds them among its own
    /// candidates instead.  `_view` is unused, like `sync_memory`'s
    /// `_current`: it stays only because perf/README.md freezes this
    /// signature.
    pub fn optimize_incremental(
        &self,
        memory: &mut SolverMemory,
        _view: &ClusterView,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        self.solve(&mut memory.split, current, decision, vjobs, true)
    }

    /// [`PlanOptimizer::optimize_incremental`] for a caller that changes
    /// the vjobs only as the decisions it solves say: the kept repair split
    /// finds the vjobs that changed since the last solve through `memory`
    /// among its own candidates — those the previous and the current
    /// decision move, those the configuration's diff names, those appended
    /// — instead of walking every vjob (see `repair`), and the outcome is
    /// the same.  Since that solve, a vjob of `vjobs` may have changed its
    /// state only by a transition of that solve's decision, not its id or VM
    /// list; vjobs may be appended, none may leave the slice or move in it.
    /// The control loop, which commits only such transitions, calls this
    /// one.
    pub(crate) fn optimize_changed(
        &self,
        memory: &mut SolverMemory,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        self.solve(&mut memory.split, current, decision, vjobs, false)
    }

    /// The one solve path behind every entry point: a repair brings the
    /// `kept` split up to date (from nothing when there is none), finding
    /// the changed vjobs walking every vjob when `walk` is set, among the
    /// split's own candidates otherwise.
    fn solve(
        &self,
        kept: &mut Option<KeptSplit>,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        walk: bool,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        match self.solver.mode {
            OptimizerMode::Full => self.optimize_full(current, decision, vjobs),
            OptimizerMode::Repair(config) => {
                self.optimize_repair(current, decision, vjobs, config, kept, walk)
            }
        }
    }

    /// Plan the switch from `current` to `placement` and price it: the tail
    /// every solve shares.  Search and repair statistics start empty.
    /// `visit` as in [`PlanOptimizer::build_target`].
    fn outcome(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        placement: &Placement,
        visit: Option<&[usize]>,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let target = Self::build_target(current, decision, vjobs, placement, visit)?;
        let plan = self.planner.plan(current, &target, vjobs)?;
        let cost = ActionCostModel::paper().plan_cost(&plan);
        Ok(OptimizedOutcome {
            target,
            plan,
            cost,
            stats: SearchStats::default(),
            portfolio: None,
            repair: None,
        })
    }

    /// The First-Fit-Decreasing baseline: keep the first viable configuration
    /// (the decision module's proof placement recomputed with FFD), with no
    /// cost optimization.
    pub fn ffd_outcome(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        let placement = FirstFitDecreasing::pack_all(current, &must_run)
            .ok_or(OptimizerError::NoViablePlacement)?;
        self.outcome(current, decision, vjobs, &placement, None)
    }

    /// The VMs that must be running in the target configuration: those of
    /// every vjob decided Running, a vjob with no transition keeping its own
    /// state (a merge-walk of the transitions, no lookup).
    fn vms_to_run(decision: &Decision, vjobs: &[Vjob]) -> Vec<VmId> {
        let mut decided = decision.decided_states();
        vjobs
            .iter()
            .enumerate()
            .filter(|&(index, vjob)| decided.of(index, vjob) == VjobState::Running)
            .flat_map(|(_, vjob)| vjob.vms.iter().copied())
            .collect()
    }

    /// Build the target configuration: running VMs take the optimized
    /// placement, the other VMs follow their vjob's decided state (its
    /// transition's, else its own).
    ///
    /// `visit` lists, ascending, the indices of the vjobs whose target can
    /// differ from today — every vjob not decided Running that has a VM
    /// running or unknown, and every one decided Running that owns a VM of
    /// `placement` — and only those are
    /// walked (`None`: every vjob, as when `placement` places every VM).  A
    /// vjob left out runs and stays where it is, so a repair costs its
    /// changes, not the cluster.  Within a visited vjob, a VM the placement
    /// does not list keeps its assignment if it runs.
    fn build_target(
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        placement: &Placement,
        visit: Option<&[usize]>,
    ) -> Result<Configuration, OptimizerError> {
        let mut target = current.clone();
        let visited: Box<dyn Iterator<Item = (usize, &Vjob)>> = match visit {
            Some(visit) => Box::new(visit.iter().map(|&index| (index, &vjobs[index]))),
            None => Box::new(vjobs.iter().enumerate()),
        };
        let mut decided = decision.decided_states();
        for (index, vjob) in visited {
            let wanted = decided.of(index, vjob);
            for &vm in &vjob.vms {
                let assignment = current
                    .assignment(vm)
                    .map_err(|_| OptimizerError::UnknownVm(vm))?;
                let next = match (wanted, assignment.state) {
                    (VjobState::Running, state) => match placement.get(&vm) {
                        Some(&node) => VmAssignment::running(node),
                        None if state == VmState::Running => assignment,
                        None => return Err(OptimizerError::NoViablePlacement),
                    },
                    // A running VM suspends onto its current host; a sleeping
                    // one keeps its image where it already is.
                    (VjobState::Sleeping, VmState::Running) => {
                        VmAssignment::sleeping(assignment.host.expect("running VM has a host"))
                    }
                    (VjobState::Terminated, VmState::Running) => VmAssignment::terminated(),
                    // Already out of the way (never started, asleep, or to
                    // keep waiting): the life cycle has no single action for
                    // these transitions.
                    _ => assignment,
                };
                // Most VMs keep their assignment tick over tick: skipping
                // the no-op write leaves the target's chunks shared.
                if next != assignment {
                    target
                        .set_assignment(vm, next)
                        .map_err(|_| OptimizerError::UnknownVm(vm))?;
                }
            }
        }
        Ok(target)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::consolidation::FcfsConsolidation;
    use crate::decision::DecisionModule;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, VjobId, Vm};
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// An optimizer with a 5 s search budget in `mode`.
    pub(super) fn five_second_optimizer(mode: OptimizerMode) -> PlanOptimizer {
        let solver = SolverConfig::default().with_timeout(Duration::from_secs(5));
        solver.with_mode(mode).build_optimizer()
    }

    /// A cluster where every running VM is already well placed: the optimal
    /// plan is empty while FFD would reshuffle everything.
    pub(super) fn settled_cluster() -> (Configuration, Vec<Vjob>) {
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        let mut vjobs = Vec::new();
        for j in 0..4 {
            let vm_ids = vec![VmId(j * 2), VmId(j * 2 + 1)];
            for &vm in &vm_ids {
                c.add_vm(Vm::new(vm, MemoryMib::mib(1024), CpuCapacity::cores(1)))
                    .unwrap();
                c.set_assignment(vm, VmAssignment::running(NodeId(j)))
                    .unwrap();
            }
            let mut vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        (c, vjobs)
    }

    /// The settled cluster plus a fifth node and a waiting 2-VM vjob: a
    /// repair with something to search for.
    pub(super) fn cluster_with_an_arrival() -> (Configuration, Vec<Vjob>) {
        let (mut c, mut vjobs) = settled_cluster();
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
        (c, vjobs)
    }

    pub(super) fn decide(c: &Configuration, vjobs: &[Vjob]) -> Decision {
        FcfsConsolidation::new()
            .decide(c, vjobs, &BTreeSet::new())
            .unwrap()
    }

    #[test]
    fn ffd_baseline_is_never_cheaper_than_the_optimizer() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::Full);
        let optimized = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let ffd = optimizer.ffd_outcome(&c, &decision, &vjobs).unwrap();
        assert!(optimized.cost.total <= ffd.cost.total);
    }

    #[test]
    fn overload_produces_suspends_and_a_viable_target() {
        // 2 nodes, 3 vjobs of 2 busy VMs each: one vjob must sleep.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        let mut vjobs = Vec::new();
        for j in 0..3u32 {
            let vm_ids = vec![VmId(j * 2), VmId(j * 2 + 1)];
            for (k, &vm) in vm_ids.iter().enumerate() {
                c.add_vm(Vm::new(vm, MemoryMib::mib(512), CpuCapacity::cores(1)))
                    .unwrap();
                if j < 2 {
                    c.set_assignment(
                        vm,
                        VmAssignment::running(NodeId((j as usize + k) as u32 % 2)),
                    )
                    .unwrap();
                }
            }
            let mut vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
            if j < 2 {
                vjob.transition_to(VjobState::Running).unwrap();
            }
            vjobs.push(vjob);
        }
        let decision = decide(&c, &vjobs);
        // The third vjob cannot fit: it stays waiting (unlisted, it keeps
        // its state); the first two run.
        let decided = |vjob: &Vjob| decision.vjob_states.get(&vjob.id).copied();
        assert_eq!(
            decided(&vjobs[2]).unwrap_or(vjobs[2].state),
            VjobState::Waiting
        );

        let optimizer = five_second_optimizer(OptimizerMode::Full);
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    #[test]
    fn terminated_vjobs_generate_stops() {
        let (c, vjobs) = settled_cluster();
        let completed: BTreeSet<VjobId> = [VjobId(0)].into_iter().collect();
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        let optimizer = five_second_optimizer(OptimizerMode::Full);
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.plan.stats().stops, 2);
        assert_eq!(outcome.target.state(VmId(0)).unwrap(), VmState::Terminated);
    }

    #[test]
    fn unknown_vm_errors_name_the_offending_vm() {
        // Regression: a vjob whose *second* VM is unknown to the
        // configuration used to be reported as `UnknownVm(first_vm)`.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(4),
            MemoryMib::gib(8),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        // VmId(99) is never registered.
        let vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(99)], 0);
        let mut states = BTreeMap::new();
        states.insert(VjobId(0), VjobState::Running);
        let decision = Decision::new(std::slice::from_ref(&vjob), states, Vec::new());
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(200))
            .build_optimizer();
        let err = optimizer.optimize(&c, &decision, &[vjob]).unwrap_err();
        assert_eq!(err, OptimizerError::UnknownVm(VmId(99)));
        assert!(err.to_string().contains("vm-99"));
    }

    #[test]
    fn infeasible_states_are_rejected() {
        // One tiny node, one vjob that cannot fit but is forced Running.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(1),
            MemoryMib::mib(256),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::gib(8), CpuCapacity::cores(1)))
            .unwrap();
        let vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        let mut states = BTreeMap::new();
        states.insert(VjobId(0), VjobState::Running);
        let decision = Decision::new(std::slice::from_ref(&vjob), states, Vec::new());
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(200))
            .build_optimizer();
        let err = optimizer.optimize(&c, &decision, &[vjob]).unwrap_err();
        assert_eq!(err, OptimizerError::NoViablePlacement);
    }

    #[test]
    fn a_failed_ffd_repack_falls_back_to_the_decision_proof() {
        // Two 10 GiB nodes and, in queue order, the vjobs A1 = {4 GiB},
        // C = {3, 3}, A2 = {4}, B = {3, 3}.  Packed vjob by vjob they fit
        // (4 + 3 + 3 on each node); sorted globally they do not (4, 4 on
        // node 0, 3, 3, 3 on node 1, the last 3 nowhere).  Today A1 and A2
        // share node 0 and C runs on node 1, leaving (2, 4) GiB free: the
        // waiting B cannot boot around the pinned VMs either.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(8),
                MemoryMib::gib(10),
            ))
            .unwrap();
        }
        for (vm, gib) in [4, 3, 3, 4, 3, 3].into_iter().enumerate() {
            c.add_vm(Vm::new(
                VmId(vm as u32),
                MemoryMib::gib(gib),
                CpuCapacity::percent(10),
            ))
            .unwrap();
        }
        for (vm, node) in [(0, 0), (1, 1), (2, 1), (3, 0)] {
            c.set_assignment(VmId(vm), VmAssignment::running(NodeId(node)))
                .unwrap();
        }
        let mut vjobs = vec![
            Vjob::new(VjobId(0), vec![VmId(0)], 0),
            Vjob::new(VjobId(1), vec![VmId(1), VmId(2)], 1),
            Vjob::new(VjobId(2), vec![VmId(3)], 2),
            Vjob::new(VjobId(3), vec![VmId(4), VmId(5)], 3),
        ];
        for vjob in &mut vjobs[..3] {
            vjob.transition_to(VjobState::Running).unwrap();
        }
        let decision = decide(&c, &vjobs);
        // Every vjob is decided Running: listed so, or running and unlisted.
        let decided = |vjob: &Vjob| decision.vjob_states.get(&vjob.id).copied();
        assert!(vjobs
            .iter()
            .all(|vjob| decided(vjob).unwrap_or(vjob.state) == VjobState::Running));
        assert!(
            FirstFitDecreasing::pack_all(&c, &c.vm_ids()).is_none(),
            "the global repack must fail for the proof to be the last resort"
        );

        // Repair: the sub-problem is infeasible around the pinned VMs.  Full:
        // a one-node budget never reaches a leaf.  Both used to end in
        // `NoViablePlacement`.
        let repair = five_second_optimizer(OptimizerMode::repair())
            .optimize(&c, &decision, &vjobs)
            .unwrap();
        assert!(repair.repair.as_ref().unwrap().fell_back_to_full);
        let mut full = five_second_optimizer(OptimizerMode::Full);
        full.solver.node_limit = Some(1);
        let full = full.optimize(&c, &decision, &vjobs).unwrap();
        for outcome in [repair, full] {
            let hosts = c.vm_ids().into_iter().map(|vm| {
                let host = outcome.target.host(vm).unwrap();
                (vm, host.expect("every vjob runs"))
            });
            let proof: Placement = decision.proof_placement.iter().copied().collect();
            assert_eq!(hosts.collect::<Placement>(), proof);
            assert!(outcome.target.is_viable());
            outcome.plan.validate(&c).unwrap();
        }
    }

    #[test]
    fn a_running_vjob_the_decision_leaves_out_keeps_running_where_it_is() {
        // Regression: a running vjob with no entry in the decision used to
        // count as not running.  The repair split released its room and the
        // target then found no host for its VM; a full solve never placed
        // it.  Both modes ended in `NoViablePlacement`.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        for i in 0..2 {
            c.add_vm(Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
                .unwrap();
        }
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut running = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        running.transition_to(VjobState::Running).unwrap();
        let vjobs = vec![running, Vjob::new(VjobId(1), vec![VmId(1)], 1)];
        let states = [(VjobId(1), VjobState::Running)].into_iter().collect();
        let decision = Decision::new(&vjobs, states, vec![(VmId(1), NodeId(1))]);
        assert_eq!(decision.transitions().len(), 1);

        for mode in [OptimizerMode::Full, OptimizerMode::repair()] {
            let outcome = five_second_optimizer(mode)
                .optimize(&c, &decision, &vjobs)
                .unwrap();
            assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(0)));
            assert_eq!(outcome.target.state(VmId(1)).unwrap(), VmState::Running);
            assert!(outcome.target.is_viable());
            outcome.plan.validate(&c).unwrap();
        }
    }

    #[test]
    fn the_one_solve_path_reads_overloads_from_current() {
        // Two busy 1-core VMs crammed on a 1-core node, a free node next to
        // it, and a view that has observed nothing: the incremental solve
        // must find the overload in `current`, not in the view, and evacuate
        // it.
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
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(1)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        assert!(!decision.changes_anything(&vjobs));
        let outcome = five_second_optimizer(OptimizerMode::repair())
            .optimize_incremental(
                &mut SolverMemory::new(),
                &ClusterView::new(),
                &c,
                &decision,
                &vjobs,
            )
            .unwrap();
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
        assert_eq!(outcome.plan.stats().migrations, 1);
    }
}
