//! One placement (sub-)problem — which VMs to place over which nodes, with
//! what capacities — and its constraint-programming solve: the plan-cost
//! rows and the capacity floor, read off the problem's tables first (an
//! incumbent that costs the floor is optimal and answers without a model),
//! then the model, the search heuristics, the plan-cost objective, the
//! search.

use cwcs_model::{
    Configuration, Dimension, NodeId, ResourceDemand, Vjob, VmAssignment, VmId, VmState,
    NUM_RESOURCE_DIMENSIONS,
};
use cwcs_plan::ActionCostModel;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch, PortfolioStats};
use cwcs_solver::search::{Search, SearchConfig, SearchStats};
use cwcs_solver::{capacity_floor, AnchoredCost, CostRow, Model, VarId};

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
}

/// What one placement solve yields: the chosen placement (`None` when the
/// search found nothing), the search statistics (the portfolio aggregate
/// when racing), and the portfolio breakdown (`None` for a single-threaded
/// solve).
pub(super) type Solved = (Option<Placement>, SearchStats, Option<PortfolioStats>);

/// The tables a model is built from: the packing sizes and capacities (one
/// table per dimension), the cost rows and the capacity floor over them.
type Tables<'t> = (&'t [Vec<u64>], &'t [Vec<u64>], &'t [CostRow], u64);

impl PlacementProblem<'_> {
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
        let slot = self.candidates.binary_search_by_key(&anchor?, |&(n, _)| n);
        slot.ok().map(|slot| slot as u32)
    }

    /// The placement that puts VM `i` on candidate `values[i]`.
    pub(super) fn placement(&self, values: &[u32]) -> Placement {
        let hosts = values.iter().map(|&v| self.candidates[v as usize].0);
        self.vms.iter().copied().zip(hosts).collect()
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

    /// The keep-current-host incumbent of a repair, in two passes over the
    /// VMs largest first (equal demands by VM id): every VM that still fits
    /// its anchor node stays there, then every other VM goes to the first
    /// candidate with room.  A VM evicted from one shrunk node thus never
    /// takes the room another shrunk node keeps for its own VMs: each node
    /// keeps what it alone would keep, and on a shrunk node that is often
    /// the optimum the bound's capacity floor proves at the root.
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
    ) -> Result<OptimizedOutcome, OptimizerError> {
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
        Ok(outcome)
    }

    /// Solve one placement (sub-)problem.  The plan-cost rows of the VMs
    /// and the capacity floor of the bound come first, straight from the
    /// problem's tables ([`capacity_floor`]): when they already prove the
    /// incumbent optimal, it is the answer and no model is built
    /// ([`PlanOptimizer::floor_proven`]).  Otherwise the CP model is built
    /// and searched ([`PlanOptimizer::solve_model`]).
    pub(super) fn solve_placement(&self, problem: &PlacementProblem) -> Solved {
        let candidates = &problem.candidates;
        debug_assert!(candidates.windows(2).all(|pair| pair[0].0 < pair[1].0));
        // One packing table per resource dimension, the paper's
        // multi-knapsack formulation generalized to N dimensions.
        let sizes: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| problem.demands.iter().map(|dem| dem.get(d)).collect())
            .collect();
        let capacities: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| candidates.iter().map(|(_, c)| c.get(d)).collect())
            .collect();
        let rows = Self::cost_rows(problem);
        let floor = capacity_floor(&rows, &sizes, &capacities);
        let tables = (&sizes[..], &capacities[..], &rows[..], floor);
        if let Some(proven) = self.floor_proven(problem, &rows, floor) {
            // Debug builds search the model too, and hold the shortcut to it.
            #[cfg(debug_assertions)]
            {
                let ((placement, stats, portfolio), best) = self.solve_model(problem, tables);
                let winner = |portfolio: &Option<PortfolioStats>| portfolio.as_ref()?.winner;
                debug_assert_eq!(placement, proven.0, "the model keeps the incumbent");
                debug_assert_eq!(best, Some(floor as i64), "the model's best cost");
                debug_assert_eq!(stats.root_bound, proven.1.root_bound, "the root bound");
                debug_assert_eq!(winner(&portfolio), winner(&proven.2), "the race's winner");
            }
            return proven;
        }
        self.solve_model(problem, tables).0
    }

    /// The incumbent, shaped as the search that proves it at its propagated
    /// root reports it, when the capacity floor already proves it: it costs
    /// no more than the floor, under which no solution costs (the bound of
    /// [`AnchoredCost`]), so it costs the floor.  That search would prune every
    /// child of the root and return the incumbent; the report is one node,
    /// pruned, `completed` with the incumbent kept and the floor as its root
    /// bound.  A race's report has worker 0 win and every worker hold the
    /// incumbent's cost ([`PortfolioStats::proven_incumbent`]).  A solve
    /// given no node to explore is left to the search, which reports that it
    /// proved nothing.
    fn floor_proven(
        &self,
        problem: &PlacementProblem,
        rows: &[CostRow],
        floor: u64,
    ) -> Option<Solved> {
        let incumbent = problem.incumbent.as_ref()?;
        if self.solver.node_limit == Some(0) {
            return None;
        }
        let cost: u64 = std::iter::zip(rows, incumbent)
            .map(|(row, &value)| row.price(value))
            .sum();
        if cost > floor {
            return None;
        }
        debug_assert_eq!(cost, floor, "no solution costs less than the floor");
        let stats = SearchStats {
            nodes: 1,
            failures: 1,
            incumbent_kept: true,
            completed: true,
            root_bound: Some(floor as i64),
            ..Default::default()
        };
        let workers = self.solver.workers;
        let race =
            (workers > 1).then(|| PortfolioStats::proven_incumbent(workers, &stats, cost as i64));
        Some((Some(problem.placement(incumbent)), stats, race))
    }

    /// Build and solve the CP model of one placement (sub-)problem: one
    /// `host(vm)` variable per VM over `[0, candidates - 1]`, created in
    /// problem order — so variable `i` is VM `i` and every per-VM table
    /// below is indexed by it directly — one packing constraint per live
    /// dimension, and the plan-cost objective over the `rows` with the
    /// capacity `floor` computed from the same `sizes` and `capacities`.
    /// Returns the solve with the best cost the search found.
    fn solve_model(&self, problem: &PlacementProblem, tables: Tables) -> (Solved, Option<i64>) {
        let (sizes, capacities, rows, floor) = tables;
        let mut model = Model::new();
        let last = problem.candidates.len() as u32 - 1;
        let vars: Vec<VarId> = problem.vms.iter().map(|_| model.new_var(0, last)).collect();
        // The legacy (CPU, memory) constraints are posted unconditionally;
        // further dimensions only when some VM actually demands them, so a
        // model whose extra dimensions are inert is bit-identical to the
        // historical 2-dimensional one.
        MultiDimPacking::post(&mut model, &vars, sizes, capacities, LEGACY_DIMS);
        let objective = AnchoredCost::post_with_floor(&mut model, &vars, rows, floor);
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
    ) -> (Solved, Option<i64>) {
        let workers = self.solver.workers;
        let (best, best_cost, stats, portfolio) = if workers <= 1 {
            let outcome = Search::new(model, config).minimize(objective);
            (outcome.best, outcome.best_cost, outcome.stats, None)
        } else {
            let race = PortfolioConfig {
                workers,
                ffd_incumbent: problem.first_fit_decreasing(),
            };
            let outcome = PortfolioSearch::new(model, config, race).minimize(objective);
            let portfolio = Some(outcome.portfolio);
            (outcome.best, outcome.best_cost, outcome.stats, portfolio)
        };
        let placement = best.map(|solution| problem.placement(solution.values()));
        ((placement, stats, portfolio), best_cost)
    }

    /// The search heuristics of one solve, every per-VM table in problem
    /// order.
    fn search_config(&self, problem: &PlacementProblem) -> SearchConfig {
        // Weight used by first-fail tie-breaking: bigger VMs first ("VMs
        // with important CPU and memory requirements are treated earlier").
        // The network term is additive like the memory one, so it is inert
        // (zero) on legacy 2-dimensional models.
        let weight = |d: &ResourceDemand| d.memory.raw() + d.cpu.raw() as u64 * 10 + d.net.raw();
        SearchConfig {
            weights: problem.demands.iter().map(weight).collect(),
            // Each VM tries its anchor node first.
            preferred: (0..problem.vms.len())
                .map(|i| problem.anchor_slot(i))
                .collect(),
            timeout: Some(self.solver.timeout),
            node_limit: self.solver.node_limit,
            incumbent: problem.incumbent.clone(),
        }
    }

    /// The prices of the branch & bound objective, one row per VM in
    /// problem order: the incremental plan-cost estimate Entropy uses while
    /// the configuration is being constructed.  A VM has two prices
    /// ([`PlanOptimizer::move_prices`]), one on its anchor node
    /// ([`PlacementProblem::anchor_slot`]) and one on every other
    /// candidate, so the estimate is three numbers per VM; the solver keeps
    /// the cheapest still possible per VM and their sum on its trail, and a
    /// search node's bound costs what its decision narrowed
    /// ([`AnchoredCost`]).  The packing tables give the bound its capacity
    /// floor: the VMs an anchor node cannot hold all pay at least their
    /// cheapest way out, so a solve whose incumbent moves only those is
    /// proven before any model is built.
    fn cost_rows(problem: &PlacementProblem) -> Vec<CostRow> {
        std::iter::zip(problem.assignments, problem.demands)
            .enumerate()
            .map(|(i, (assignment, demand))| {
                let (at_anchor, elsewhere) = Self::move_prices(assignment, demand.memory.raw());
                CostRow {
                    anchor: problem.anchor_slot(i),
                    at_anchor,
                    elsewhere,
                }
            })
            .collect()
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
    use crate::control_loop::SolverConfig;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, SmallRng, VjobId, VjobState, Vm};
    use std::time::Duration;

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

    #[test]
    fn a_floor_proven_solve_answers_as_the_model_does() {
        // Seeded repairs over 2–4 small, often overloaded hosts and one roomy
        // empty node (every VM can go there, so no propagated root is fixed):
        // running, sleeping and waiting VMs.  Wherever the floor proves the keep-host incumbent, the solve that
        // builds no model answers as the model's search does, serially and as
        // a deterministic 2-worker race.
        let mut rng = SmallRng::seed_from_u64(0x000f_100d_5eed);
        let mut proven = [0; 2];
        for case in 0..300 {
            let hosts = rng.u64_in(2, 5) as u32;
            let mut candidates: Vec<_> = (0..hosts)
                .map(|i| {
                    let cpu = CpuCapacity::cores(rng.u32_in_inclusive(1, 4));
                    let memory = MemoryMib::mib(512 * rng.u64_in(1, 12));
                    (NodeId(i), ResourceDemand::new(cpu, memory))
                })
                .collect();
            let roomy = ResourceDemand::new(CpuCapacity::cores(64), MemoryMib::gib(256));
            candidates.push((NodeId(hosts), roomy));
            let vms: Vec<VmId> = (0..rng.u64_in(1, 9) as u32).map(VmId).collect();
            let demands: Vec<ResourceDemand> = vms
                .iter()
                .map(|_| {
                    let cpu = CpuCapacity::percent(rng.u32_in_inclusive(0, 100));
                    ResourceDemand::new(cpu, MemoryMib::mib(256 * rng.u64_in(1, 9)))
                })
                .collect();
            let assignments: Vec<VmAssignment> = vms
                .iter()
                .map(|_| {
                    let host = NodeId(rng.index(hosts as usize) as u32);
                    match rng.index(5) {
                        0 => VmAssignment::waiting(),
                        1 => VmAssignment::sleeping(host),
                        _ => VmAssignment::running(host),
                    }
                })
                .collect();
            let mut problem = PlacementProblem {
                vms: &vms,
                demands: &demands,
                assignments: &assignments,
                candidates,
                incumbent: None,
            };
            problem.incumbent = problem.keep_host_incumbent();
            let sizes: Vec<Vec<u64>> = Dimension::ALL
                .iter()
                .map(|&d| demands.iter().map(|dem| dem.get(d)).collect())
                .collect();
            let capacities: Vec<Vec<u64>> = Dimension::ALL
                .iter()
                .map(|&d| problem.candidates.iter().map(|(_, c)| c.get(d)).collect())
                .collect();
            let rows = PlanOptimizer::cost_rows(&problem);
            let floor = capacity_floor(&rows, &sizes, &capacities);
            for (at, workers) in [1, 2].into_iter().enumerate() {
                let optimizer = SolverConfig::default()
                    .with_timeout(Duration::from_secs(3_600))
                    .with_node_limit(2_000)
                    .with_workers(workers)
                    .with_mode(OptimizerMode::repair())
                    .build_optimizer();
                let Some((placement, stats, race)) = optimizer.floor_proven(&problem, &rows, floor)
                else {
                    continue;
                };
                let tables = (&sizes[..], &capacities[..], &rows[..], floor);
                let ((model, model_stats, model_race), best) =
                    optimizer.solve_model(&problem, tables);
                let what = format!("case {case}, {workers} workers");
                assert_eq!(placement, model, "{what}");
                assert!(placement.is_some(), "{what}");
                assert_eq!(Some(floor as i64), best, "{what}");
                assert_eq!(stats.root_bound, model_stats.root_bound, "{what}");
                let shape = |s: &SearchStats| (s.completed, s.incumbent_kept);
                assert_eq!(shape(&stats), shape(&model_stats), "{what}");
                let per_worker = |race: &Option<PortfolioStats>| {
                    let race = race.as_ref()?;
                    let workers = race.workers.iter();
                    let reports = workers.map(|w| (w.best_cost, w.stats.root_bound));
                    Some((race.winner, reports.collect::<Vec<_>>()))
                };
                assert_eq!(per_worker(&race), per_worker(&model_race), "{what}");
                assert_eq!(race.is_some(), workers > 1, "{what}");
                proven[at] += 1;
            }
        }
        assert!(proven.iter().all(|&n| n > 100), "{proven:?}");
    }
}
