//! One placement (sub-)problem — which VMs to place over which nodes, with
//! what capacities — and its constraint-programming solve: the model, the
//! search heuristics, the plan-cost objective, the search.

use cwcs_model::{
    Configuration, Dimension, NodeId, ResourceDemand, Vjob, VmAssignment, VmId, VmState,
    NUM_RESOURCE_DIMENSIONS,
};
use cwcs_plan::ActionCostModel;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch, PortfolioStats};
use cwcs_solver::search::{RestartPolicy, Search, SearchConfig, SearchStats};
use cwcs_solver::{AnchoredCost, CostRow, Model, VarId};

use super::memory::WarmStart;
use super::{OptimizedOutcome, OptimizerError, Placement, PlanOptimizer};
use crate::decision::Decision;
use crate::ffd::{
    pack_decreasing, packing_demand, FfdScratch, FirstFitDecreasing, FreeCapacityIndex,
};

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

/// A reduced (or full) placement sub-problem.  The three per-VM slices run
/// in parallel, in problem order; the caller fetched them once from the
/// configuration ([`PlanOptimizer::vm_record`]) and nothing below looks a VM
/// up again.
pub(super) struct PlacementProblem<'a> {
    /// VMs to place.
    pub(super) vms: &'a [VmId],
    /// Packing demand of each VM.
    pub(super) demands: &'a [ResourceDemand],
    /// Current assignment of each VM.
    pub(super) assignments: &'a [VmAssignment],
    /// Candidate nodes in ascending id order — a node's position is its
    /// domain value — each with its capacity (already debited by the pinned
    /// VMs in repair mode).
    pub(super) candidates: Vec<(NodeId, ResourceDemand)>,
    /// Incumbent placement (domain values), when one is known.
    pub(super) incumbent: Option<Vec<u32>>,
    /// Luby restart policy of the search.
    pub(super) restarts: Option<RestartPolicy>,
    /// The previous solve's search state, when warm-starting: its placement
    /// overrides the preferred values (VMs it does not know, or whose warm
    /// node left the candidate set, fall back to the anchor) and its restart
    /// schedule is continued (diversification 0 is the canonical ordering).
    pub(super) warm: Option<&'a WarmStart>,
}

/// What one placement solve yields: the chosen placement (`None` when the
/// search found nothing), the search statistics (the portfolio aggregate
/// when racing), and the portfolio breakdown (`None` for a single-threaded
/// solve).
pub(super) type Solved = (Option<Placement>, SearchStats, Option<PortfolioStats>);

impl PlacementProblem<'_> {
    /// Domain value of `node`, when it is a candidate.
    fn slot_of(&self, node: NodeId) -> Option<u32> {
        let slot = self.candidates.binary_search_by_key(&node, |&(n, _)| n);
        slot.ok().map(|slot| slot as u32)
    }

    /// Domain value of the anchor of VM `i` — the node where placing it is
    /// cheapest: its current host (running) or the node holding its image
    /// (sleeping), which yields zero-migration / local-resume placements;
    /// waiting VMs boot anywhere — when that node is a candidate.
    fn anchor_slot(&self, i: usize) -> Option<u32> {
        let assignment = &self.assignments[i];
        let anchor = match assignment.state {
            VmState::Running => assignment.host,
            VmState::Sleeping => assignment.image,
            _ => None,
        };
        self.slot_of(anchor?)
    }

    /// First-fit-decreasing packing of the VMs over the candidates, as
    /// domain values in problem order (`None` when it fails to pack).
    fn pack<K: Ord>(
        &self,
        tie: impl Fn(usize) -> K,
        preferred: impl Fn(usize) -> Option<u32>,
    ) -> Option<Vec<u32>> {
        let mut index = FreeCapacityIndex::new(self.candidates.clone());
        let preferred = |i| preferred(i).map(|slot| slot as usize);
        let mut scratch = FfdScratch::default();
        let slots = pack_decreasing(self.demands, tie, preferred, &mut index, &mut scratch)?;
        Some(slots.iter().map(|&slot| slot as u32).collect())
    }

    /// The keep-current-host incumbent of a repair: each VM (largest first,
    /// equal demands by VM id) stays on its anchor node while it still fits
    /// there, else goes to the first candidate with room.
    pub(super) fn keep_host_incumbent(&self) -> Option<Vec<u32>> {
        self.pack(|i| self.vms[i].0, |i| self.anchor_slot(i))
    }

    /// Plain first-fit-decreasing (equal demands in problem order), the
    /// seed of the portfolio's FFD rider worker: where the keep-current-host
    /// incumbent is migration-averse, this one is migration-heavy but almost
    /// always feasible, so the race starts with a proper upper bound even
    /// when the current placement is badly overloaded.  When it fails to
    /// pack the race simply runs without the extra incumbent.
    fn first_fit_decreasing(&self) -> Option<Vec<u32>> {
        self.pack(|i| i, |_| None)
    }
}

impl PlanOptimizer {
    /// The two records a solve reads about a VM that must run — its current
    /// assignment and its [`packing_demand`] — or `UnknownVm` when the
    /// configuration does not hold it.
    pub(super) fn vm_record(
        current: &Configuration,
        vm: VmId,
    ) -> Result<(VmAssignment, ResourceDemand), OptimizerError> {
        let unknown = |_| OptimizerError::UnknownVm(vm);
        let assignment = current.assignment(vm).map_err(unknown)?;
        let record = current.vm(vm).map_err(unknown)?;
        Ok((assignment, packing_demand(record, assignment.state)))
    }

    /// Where the VMs go when the search found nothing: the global
    /// First-Fit-Decreasing repack, and where that fails too, the hosts of
    /// the decision's proof placement.  The decision module packed it vjob
    /// by vjob — a different heuristic from the global sort, which can fail
    /// where the per-vjob packing succeeded — sizing every VM by the same
    /// rule, so the decided states are known to fit there.  The proof's list
    /// is read as a map (a VM's last host counts) only here, once the
    /// repack failed.  `NoViablePlacement` only when the proof does not host
    /// some VM either.
    pub(super) fn fallback_placement(
        current: &Configuration,
        decision: &Decision,
        must_run: &[VmId],
    ) -> Result<Placement, OptimizerError> {
        FirstFitDecreasing::pack_all(current, must_run)
            .or_else(|| {
                let proof: Placement = decision.proof_placement.iter().copied().collect();
                let host = |&vm| Some((vm, *proof.get(&vm)?));
                must_run.iter().map(host).collect()
            })
            .ok_or(OptimizerError::NoViablePlacement)
    }

    /// Full re-solve: every VM that must run is a variable over every node.
    pub(super) fn optimize_full(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        warm: Option<&WarmStart>,
    ) -> Result<(OptimizedOutcome, Placement), OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        if current.node_count() == 0 {
            return Err(OptimizerError::NoViablePlacement);
        }
        let records = must_run.iter().map(|&vm| Self::vm_record(current, vm));
        let records: Result<Vec<_>, _> = records.collect();
        let (assignments, demands): (Vec<_>, Vec<_>) = records?.into_iter().unzip();
        let problem = PlacementProblem {
            vms: &must_run,
            demands: &demands,
            assignments: &assignments,
            candidates: current.nodes().map(|n| (n.id, n.capacity())).collect(),
            incumbent: None,
            restarts: None,
            warm,
        };
        let (solved, stats, portfolio) = self.solve_placement(&problem);
        let placement = match solved {
            Some(placement) => placement,
            // The CP search found nothing within its budget (or the problem
            // is infeasible).
            None => Self::fallback_placement(current, decision, &must_run)?,
        };
        let mut outcome = self.outcome(current, decision, vjobs, &placement, None)?;
        (outcome.stats, outcome.portfolio) = (stats, portfolio);
        Ok((outcome, placement))
    }

    /// Build and solve the CP model of one placement (sub-)problem: one
    /// `host(vm)` variable per VM over `[0, candidates - 1]`, created in
    /// problem order — so variable `i` is VM `i` and every per-VM table
    /// below is indexed by it directly — and one packing constraint per
    /// live dimension.
    pub(super) fn solve_placement(&self, problem: &PlacementProblem) -> Solved {
        let candidates = &problem.candidates;
        debug_assert!(candidates.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let mut model = Model::new();
        let last = candidates.len() as u32 - 1;
        let vars: Vec<VarId> = problem.vms.iter().map(|_| model.new_var(0, last)).collect();
        // One packing constraint per resource dimension, the paper's
        // multi-knapsack formulation generalized to N dimensions.  The
        // legacy (CPU, memory) constraints are posted unconditionally;
        // further dimensions only when some VM actually demands them, so a
        // model whose extra dimensions are inert is bit-identical to the
        // historical 2-dimensional one.
        let sizes: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| problem.demands.iter().map(|dem| dem.get(d)).collect())
            .collect();
        let capacities: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| candidates.iter().map(|(_, c)| c.get(d)).collect())
            .collect();
        MultiDimPacking::post(&mut model, &vars, &sizes, &capacities, LEGACY_DIMS);

        let objective = Self::plan_cost_estimate(problem, &mut model, &vars);
        let config = self.search_config(problem);
        self.run_search(problem, &model, config, &objective)
    }

    /// A single worker goes through the plain search; two or more race a
    /// portfolio, seeded with the FFD packing as a second incumbent — a
    /// deterministic race (no shared bound, fixed node budgets) exactly when
    /// the configuration pins a node budget.
    fn run_search(
        &self,
        problem: &PlacementProblem,
        model: &Model,
        config: SearchConfig,
        objective: &AnchoredCost,
    ) -> Solved {
        let workers = self.solver.workers;
        let (best, stats, portfolio) = if workers <= 1 {
            let outcome = Search::new(model, config).minimize(objective);
            (outcome.best, outcome.stats, None)
        } else {
            let race = PortfolioConfig {
                workers,
                ffd_incumbent: problem.first_fit_decreasing(),
            };
            let outcome = PortfolioSearch::new(model, config, race).minimize(objective);
            (outcome.best, outcome.stats, Some(outcome.portfolio))
        };
        let placement = best.map(|solution| {
            let hosts = solution
                .values()
                .iter()
                .map(|&v| problem.candidates[v as usize].0);
            problem.vms.iter().copied().zip(hosts).collect()
        });
        (placement, stats, portfolio)
    }

    /// The search heuristics of one solve, every per-VM table in problem
    /// order.
    fn search_config(&self, problem: &PlacementProblem) -> SearchConfig {
        // Preferred value: a warm-started solve first tries the node the
        // previous iteration chose; otherwise (or when that node left the
        // candidate set) the VM's anchor node.
        let preferred = |(i, vm): (usize, &VmId)| {
            let warm_node = problem.warm.and_then(|warm| warm.placement.get(vm));
            let warm_slot = warm_node.and_then(|&node| problem.slot_of(node));
            warm_slot.or_else(|| problem.anchor_slot(i))
        };
        // Weight used by first-fail tie-breaking: bigger VMs first ("VMs
        // with important CPU and memory requirements are treated earlier").
        // The network term is additive like the memory one, so it is inert
        // (zero) on legacy 2-dimensional models.
        let weight = |d: &ResourceDemand| d.memory.raw() + d.cpu.raw() as u64 * 10 + d.net.raw();
        SearchConfig {
            weights: problem.demands.iter().map(weight).collect(),
            preferred: problem.vms.iter().enumerate().map(preferred).collect(),
            timeout: Some(self.solver.timeout),
            node_limit: self.solver.node_limit,
            incumbent: problem.incumbent.clone(),
            restarts: problem.restarts.clone(),
            diversify: problem.warm.map_or(0, |warm| warm.next_diversify),
        }
    }

    /// The branch & bound objective, posted into `model` over `vars`: the
    /// incremental plan-cost estimate Entropy uses while the configuration
    /// is being constructed.  A VM has two prices
    /// ([`PlanOptimizer::move_prices`]), one on its anchor node
    /// ([`PlacementProblem::anchor_slot`]) and one on every other
    /// candidate, so the estimate is three numbers per VM; the solver keeps
    /// the cheapest still possible per VM and their sum on its trail, and a
    /// search node's bound costs what its decision narrowed
    /// ([`AnchoredCost`]).
    fn plan_cost_estimate(
        problem: &PlacementProblem,
        model: &mut Model,
        vars: &[VarId],
    ) -> AnchoredCost {
        let rows: Vec<CostRow> = std::iter::zip(problem.assignments, problem.demands)
            .enumerate()
            .map(|(i, (assignment, demand))| {
                let (at_anchor, elsewhere) = Self::move_prices(assignment, demand.memory.raw());
                CostRow {
                    anchor: problem.anchor_slot(i),
                    at_anchor,
                    elsewhere,
                }
            })
            .collect();
        AnchoredCost::post(model, vars, &rows)
    }

    /// The two prices of placing a VM with memory demand `dm` and the given
    /// current assignment — on its anchor node, and on any other node: the
    /// incremental plan-cost estimate of the paper (migration = `Dm`, local
    /// resume = `Dm`, remote resume = `remote_resume_factor · Dm`, run =
    /// constant, under [`ActionCostModel::paper`]).  A VM that is neither
    /// running nor sleeping has no anchor and boots anywhere at the run
    /// cost.
    fn move_prices(assignment: &VmAssignment, dm: u64) -> (u64, u64) {
        let costs = ActionCostModel::paper();
        match assignment.state {
            VmState::Running => (0, dm),
            VmState::Sleeping => (dm, costs.remote_resume_factor * dm),
            _ => (costs.run_cost, costs.run_cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decide, five_second_optimizer, settled_cluster};
    use super::super::OptimizerMode;
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, VjobId, VjobState, Vm};

    #[test]
    fn optimizer_keeps_well_placed_vms() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::Full);
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.cost.total, 0, "nothing should move");
        assert!(outcome.plan.is_empty());
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn sleeping_vjob_prefers_local_resume() {
        // A sleeping vjob whose images are on node 1, with room everywhere:
        // the optimizer must resume it on node 1 (local resume, cost Dm) and
        // not elsewhere (2·Dm).
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
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = five_second_optimizer(OptimizerMode::Full);
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.plan.stats().local_resumes, 1);
        assert_eq!(outcome.plan.stats().remote_resumes, 0);
        assert_eq!(outcome.cost.total, 1024);
    }
}
