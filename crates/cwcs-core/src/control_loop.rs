//! The Entropy control loop: observe, decide, plan, execute (Figure 4) —
//! run **incrementally** end to end.
//!
//! Each iteration:
//!
//! 1. **observe** — snapshot the cluster's configuration into an
//!    [`ObservationDelta`](cwcs_sim::monitor::ObservationDelta) (the
//!    snapshot and the VMs and nodes whose demand, state, placement or
//!    capacity differ from the previous snapshot); the monitor keeps the
//!    snapshot as the loop's [`ClusterView`], and a full delta drops the
//!    optimizer's warm [`SolverMemory`].  The loop pays for what changed,
//!    not for the whole cluster: demands are written at the phase edges
//!    that change them, so only the VMs mutated since their last touch are
//!    re-read; a snapshot is an O(chunks) clone and the diff skips every
//!    chunk the two snapshots share.  Completions are not part of the observation: they
//!    arrive as the events of the advances the loop makes (the executor's
//!    and its own sleep), so a completion never waits for a monitoring
//!    refresh;
//! 2. **decide** — ask the decision module for the state every vjob should
//!    have next, telling it which vjobs the loop changed since the last
//!    decide ([`DecisionModule::decide_changed`]);
//! 3. **plan** — ask the optimizer for a cheap viable configuration with
//!    those states and the reconfiguration plan that reaches it, telling it
//!    which vjobs the loop changed since the last solve
//!    ([`PlanOptimizer::optimize_changed`]).  There is one solve path, that
//!    of [`PlanOptimizer::optimize_incremental`], on a current and a stale
//!    view alike: the overload set is the cluster configuration's ledger,
//!    O(overloaded nodes), and (when enabled) the search warm-starts from
//!    the previous iteration;
//! 4. **execute** — run the cluster-wide context switch on the simulated
//!    cluster, which advances the virtual clock by the switch duration and
//!    decelerates the co-hosted applications, then commit each decided vjob
//!    transition the configuration confirms (every VM of the vjob in the
//!    new state): a vjob whose action failed keeps its state, and the next
//!    iteration plans it again;
//! 5. sleep until the next iteration (30 s period by default) while the
//!    applications keep progressing, and record a utilization sample
//!    (the points of Figure 13).
//!
//! # Delta vs. full-resync observation
//!
//! [`ObservationMode::Delta`] (the default) is the incremental pipeline
//! above.  [`ObservationMode::FullResync`] resyncs the monitoring service
//! before every observation, so each real observation diffs against the
//! empty configuration and drops every state kept between ticks — the
//! solver's memory and the decision module's
//! ([`DecisionModule::forget`]) — so that each tick is computed from
//! nothing: the reference behavior the lockstep suite (`tests/lockstep.rs`)
//! holds the delta pipeline bit-identical to.
//!
//! # What the loop hands over
//!
//! The loop is the only writer of its vjob slice: [`ControlLoop::submit_vjob`]
//! appends, the commit walks the decision's transitions, and the completion
//! events of its own advances add to the pending set.  It lists the index of
//! every vjob it writes, once per consumer, and hands each consumer the list
//! since it last read it: the decision module the states it committed and
//! the completions it learnt, the optimizer the states it committed.  An
//! appended vjob is listed in neither, as both find it past the slice they
//! last read.  Both consumers keep state between ticks that a list spares
//! walking every vjob, and both decide exactly as if they had walked (debug
//! builds check that they find the same changes).  The number of vjobs not
//! terminated is kept the same way, so [`ControlLoop::all_terminated`] is
//! O(1).
//!
//! Workloads are no longer fixed at construction: [`ControlLoop::submit_vjob`]
//! registers a new vjob mid-run (its VMs reach the solver through the next
//! observation's diff), and [`ControlLoop::cluster_mut`]
//! exposes the cluster for failure injection
//! ([`SimulatedCluster::set_node_capacity`]).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use cwcs_model::{IdHashMap, Vjob, VjobId, VjobState};
use cwcs_plan::{PlanCost, PlanStats, Planner};
use cwcs_sim::monitor::ClusterView;
use cwcs_sim::{
    ClusterEvent, ExecutionMode, ExecutionTimeline, MonitoringService, PlanExecutor,
    SimulatedCluster, SimulatedXenDriver, UtilizationSample,
};
use cwcs_solver::{PortfolioStats, SearchStats};
use cwcs_workload::VjobSpec;

use crate::decision::DecisionModule;
use crate::optimizer::{OptimizerError, OptimizerMode, PlanOptimizer, RepairStats, SolverMemory};

/// How the control loop observes the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObservationMode {
    /// Each observation diffs against the previous snapshot (the default):
    /// each tick only carries the VMs and nodes that changed.
    #[default]
    Delta,
    /// Re-observe everything every tick and drop every kept state (the
    /// solver's and the decision module's): the from-scratch reference the
    /// delta pipeline is held bit-identical to.
    FullResync,
}

/// Observation tuning, grouped (see also the `EngineBuilder` facade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationConfig {
    /// Monitoring refresh period in seconds of virtual time (10 s in the
    /// paper): within it, observations return an empty delta and the view
    /// keeps the last snapshot.  Decisions do not wait for a refresh: they
    /// read the cluster's configuration.
    pub refresh_period_secs: f64,
    /// Delta or full-resync observation.
    pub mode: ObservationMode,
}

impl Default for ObservationConfig {
    fn default() -> Self {
        ObservationConfig {
            refresh_period_secs: 10.0,
            mode: ObservationMode::default(),
        }
    }
}

impl ObservationConfig {
    /// Set the monitoring refresh period (seconds of virtual time).
    pub fn with_refresh_period_secs(mut self, secs: f64) -> Self {
        self.refresh_period_secs = secs;
        self
    }

    /// Select delta or full-resync observation.
    pub fn with_mode(mut self, mode: ObservationMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Every setting of the plan optimizer's search, in one place: the
/// [`PlanOptimizer`] holds one of these ([`PlanOptimizer::solver`]) and the
/// `EngineBuilder` facade takes one.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Time budget of the branch & bound search per solve (40 s by default,
    /// the paper's Figure 10 budget).
    pub timeout: Duration,
    /// Scope of the placement problem (full re-solve or repair).
    pub mode: OptimizerMode,
    /// Deterministic search budget: maximum search nodes per solve.
    /// Benchmarks set this (together with a generous timeout) when
    /// byte-identical artifacts across runs matter more than wall-clock
    /// fidelity.  With a portfolio the budget applies **per worker**, and it
    /// is what makes the race deterministic (independent workers, `(cost,
    /// worker id)` winner — see `cwcs_solver::portfolio`).
    pub node_limit: Option<u64>,
    /// Number of portfolio workers racing each placement solve (1 = the
    /// plain single-threaded search).
    pub workers: usize,
    /// Warm-start incremental solves from the previous iteration's search
    /// state (see [`crate::optimizer::WarmStart`]).  Off by default: a
    /// warm-started search explores a different prefix, so decisions may
    /// legitimately differ from a cold solve — callers that need bit-stable
    /// artifacts leave this unset.
    pub warm_start: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            timeout: Duration::from_secs(40),
            mode: OptimizerMode::Full,
            node_limit: None,
            workers: 1,
            warm_start: false,
        }
    }
}

impl SolverConfig {
    /// Set the solve time budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Select the optimizer mode.
    pub fn with_mode(mut self, mode: OptimizerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set a deterministic search-node budget.
    pub fn with_node_limit(mut self, node_limit: u64) -> Self {
        self.node_limit = Some(node_limit);
        self
    }

    /// Race `workers` diversified portfolio workers per solve.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Warm-start incremental solves from the previous iteration's search
    /// state (value ordering + restart schedule).  Only
    /// [`PlanOptimizer::optimize_incremental`] consults this; a plain
    /// [`PlanOptimizer::optimize`] has no previous iteration to start from.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// The [`PlanOptimizer`] this configuration describes (with the default
    /// planner).
    pub fn build_optimizer(self) -> PlanOptimizer {
        PlanOptimizer {
            solver: self,
            planner: Planner::new(),
        }
    }
}

/// Control-loop tuning.
#[derive(Debug, Clone)]
pub struct ControlLoopConfig {
    /// Period between two iterations, in seconds (30 s in the paper).
    pub period_secs: f64,
    /// Optimizer (its [`SolverConfig`] and planner).
    pub optimizer: PlanOptimizer,
    /// Safety bound on the number of iterations of
    /// [`ControlLoop::run_until_complete`].
    pub max_iterations: usize,
    /// How context switches are executed (event-driven by default; the
    /// paper's pool-barrier semantics are available for comparisons).
    pub execution_mode: ExecutionMode,
    /// How the cluster is observed (delta protocol by default).
    pub observation: ObservationConfig,
}

impl Default for ControlLoopConfig {
    fn default() -> Self {
        ControlLoopConfig {
            period_secs: 30.0,
            optimizer: PlanOptimizer::default(),
            max_iterations: 10_000,
            execution_mode: ExecutionMode::default(),
            observation: ObservationConfig::default(),
        }
    }
}

/// What one iteration observed (step 1).
#[derive(Debug, Clone, Default)]
pub struct ObservationReport {
    /// The cluster's change version as of the observation the iteration ran
    /// on (see `SimulatedCluster::change_version`).
    pub version: u64,
    /// True when the delta was a full (re)observation.
    pub full: bool,
    /// VMs whose demand, state or placement the delta carried.
    pub changed_vms: usize,
    /// Nodes whose capacity the delta carried.
    pub changed_nodes: usize,
}

/// What one iteration decided and solved (steps 2–3).
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Statistics of the constraint search (the portfolio aggregate when
    /// the optimizer races several workers).  Its
    /// [`root_bound`](SearchStats::root_bound) is the least plan-cost
    /// estimate any placement of the solve could have: the solve's
    /// optimality gap is measured from it.
    pub search_stats: SearchStats,
    /// Portfolio race breakdown: per-worker [`SearchStats`] and the winning
    /// worker (`None` for single-threaded solves or when no switch was
    /// performed).
    pub portfolio_stats: Option<PortfolioStats>,
    /// Repair sub-problem statistics (`None` outside repair mode or when no
    /// switch was performed).
    pub repair_stats: Option<RepairStats>,
    /// Wall-clock milliseconds of the decision module alone.
    pub decision_ms: f64,
    /// Wall-clock milliseconds of the whole decide step (decision module
    /// plus placement optimization) — the latency the streaming benchmark
    /// holds under its ceiling.
    pub decide_ms: f64,
}

/// What one iteration executed (step 4).
#[derive(Debug, Clone, Default)]
pub struct SwitchReport {
    /// Action counts of the executed plan.
    pub plan_stats: PlanStats,
    /// Cost of the executed plan (Table 1 model).
    pub plan_cost: Option<PlanCost>,
    /// Wall-clock duration of the switch, in seconds of virtual time.
    pub duration_secs: f64,
    /// Number of actions that failed (driver failures).
    pub failed_actions: usize,
    /// Timeline of the executed switch (per-action start/end times, exact
    /// vjob completion times), `None` when no switch was performed.
    pub timeline: Option<ExecutionTimeline>,
}

/// Report of one control-loop iteration, one sub-report per pipeline stage.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration number (starting at 0).
    pub iteration: usize,
    /// Virtual time at the start of the iteration.
    pub started_at_secs: f64,
    /// Whether a cluster-wide context switch was performed.
    pub performed_switch: bool,
    /// The observation stage.
    pub observation: ObservationReport,
    /// The decide/solve stage.
    pub solve: SolveReport,
    /// The executed context switch (defaults when no switch was performed).
    pub switch: SwitchReport,
    /// Vjobs terminated by this iteration's switch: their stop actions ran
    /// and the configuration confirms every VM stopped.
    pub completed_vjobs: Vec<VjobId>,
    /// Utilization at the end of the iteration.
    pub utilization: UtilizationSample,
}

/// Report of a full run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every iteration, in order.
    pub iterations: Vec<IterationReport>,
    /// Utilization samples (one per iteration).
    pub utilization: Vec<UtilizationSample>,
    /// Virtual time at which every vjob was terminated (the paper's global
    /// completion time), `None` when the run hit the iteration bound first.
    pub completion_time_secs: Option<f64>,
}

impl RunReport {
    /// The (cost, duration) pairs of the context switches that performed at
    /// least one action — the points of Figure 11.
    pub fn switch_points(&self) -> Vec<(u64, f64)> {
        self.iterations
            .iter()
            .filter(|it| it.performed_switch && it.switch.plan_stats.total_actions() > 0)
            .map(|it| {
                (
                    it.switch.plan_cost.as_ref().map(|c| c.total).unwrap_or(0),
                    it.switch.duration_secs,
                )
            })
            .collect()
    }

    /// Mean duration of the non-empty context switches.
    pub fn mean_switch_duration_secs(&self) -> f64 {
        let points = self.switch_points();
        if points.is_empty() {
            0.0
        } else {
            points.iter().map(|(_, d)| d).sum::<f64>() / points.len() as f64
        }
    }
}

/// Errors raised by the control loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopError {
    /// The decision module failed.
    Decision(String),
    /// The optimizer failed.
    Optimizer(OptimizerError),
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::Decision(e) => write!(f, "decision failed: {e}"),
            LoopError::Optimizer(e) => write!(f, "optimization failed: {e}"),
        }
    }
}

impl std::error::Error for LoopError {}

/// The control loop.
pub struct ControlLoop<D: DecisionModule> {
    cluster: SimulatedCluster,
    monitor: MonitoringService,
    memory: SolverMemory,
    decision: D,
    executor: PlanExecutor<SimulatedXenDriver>,
    config: ControlLoopConfig,
    vjobs: Vec<Vjob>,
    /// The index of every vjob of `vjobs`, by id: where a completion lands.
    index: IdHashMap<VjobId, u32>,
    pending_completed: BTreeSet<VjobId>,
    /// The indices of the vjobs the loop changed — a state committed or a
    /// completion reported — since the decision module last decided, and of
    /// those whose state it committed since the optimizer last solved: the
    /// lists [`DecisionModule::decide_changed`] and
    /// [`PlanOptimizer::optimize_changed`] take.  An appended vjob is listed
    /// in neither: both consumers find it past the slice they last read.
    decision_changes: Vec<usize>,
    solve_changes: Vec<usize>,
    /// How many vjobs are not terminated.
    live: usize,
    iteration: usize,
}

impl<D: DecisionModule> ControlLoop<D> {
    /// Build a loop over a simulated cluster.  The VMs of every spec must
    /// already be registered in the cluster's configuration; the specs'
    /// vjobs give the initial states.  No two specs may share a vjob id: a
    /// decision names its transitions by position in the loop's vjob list,
    /// and the cluster tracks one vjob per id (`EngineBuilder::build` rejects
    /// such a scenario; here it is a debug assertion).
    pub fn new(
        mut cluster: SimulatedCluster,
        specs: &[VjobSpec],
        decision: D,
        config: ControlLoopConfig,
    ) -> Self {
        let mut ids = BTreeSet::new();
        debug_assert!(
            specs.iter().all(|spec| ids.insert(spec.vjob.id)),
            "two specs share a vjob id"
        );
        for spec in specs {
            cluster.register_vjob(spec);
        }
        let vjobs: Vec<Vjob> = specs.iter().map(|s| s.vjob.clone()).collect();
        let index = (0..).zip(&vjobs).map(|(at, vjob)| (vjob.id, at)).collect();
        let live = vjobs
            .iter()
            .filter(|j| j.state != VjobState::Terminated)
            .count();
        // Every later completion is reported by an advance the loop makes; a
        // vjob already running and complete at registration is not, until
        // the first advance, and tick 0 must see it.
        let pending_completed = vjobs
            .iter()
            .filter(|j| j.state == VjobState::Running && cluster.is_vjob_complete(j.id))
            .map(|j| j.id)
            .collect();
        let executor =
            PlanExecutor::new(SimulatedXenDriver::default()).with_mode(config.execution_mode);
        let monitor = MonitoringService::new(config.observation.refresh_period_secs);
        ControlLoop {
            cluster,
            monitor,
            memory: SolverMemory::new(),
            decision,
            executor,
            config,
            vjobs,
            index,
            pending_completed,
            decision_changes: Vec::new(),
            solve_changes: Vec::new(),
            live,
            iteration: 0,
        }
    }

    /// The current vjob states.
    pub fn vjobs(&self) -> &[Vjob] {
        &self.vjobs
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &SimulatedCluster {
        &self.cluster
    }

    /// Mutable access to the cluster, for mid-run perturbations: injecting
    /// node failures through [`SimulatedCluster::set_node_capacity`], or
    /// arbitrary configuration edits, which the next tick observes as an
    /// ordinary diff, like any other change.  Do not advance the clock
    /// through it: the loop learns of completions from the events of the
    /// advances it makes itself, so a completion reported elsewhere is lost
    /// to it.
    pub fn cluster_mut(&mut self) -> &mut SimulatedCluster {
        &mut self.cluster
    }

    /// The loop's view of the cluster: the monitor's snapshot of the last
    /// observation.
    pub fn view(&self) -> &ClusterView {
        self.monitor.view()
    }

    /// Submit a new vjob mid-run (a rolling arrival): its VMs are registered
    /// with the cluster and reach the view and the solver with the next
    /// observation.  The vjob is picked up by the next iteration's
    /// decision.  Fails when a VM id collides with an existing VM.
    pub fn submit_vjob(&mut self, spec: &VjobSpec) -> Result<(), cwcs_model::ModelError> {
        self.cluster.admit_vjob(spec)?;
        self.index.insert(spec.vjob.id, self.vjobs.len() as u32);
        self.live += usize::from(spec.vjob.state != VjobState::Terminated);
        self.vjobs.push(spec.vjob.clone());
        Ok(())
    }

    /// True once every vjob is terminated: a count the commit keeps, O(1).
    pub fn all_terminated(&self) -> bool {
        self.live == 0
    }

    /// Note that the vjob `id` reported its completion.
    fn completed(&mut self, id: VjobId) {
        if self.pending_completed.insert(id) {
            let index = self.index.get(&id).map(|&index| index as usize);
            self.decision_changes.extend(index);
        }
    }

    /// Perform one iteration of the loop.
    pub fn iterate(&mut self) -> Result<IterationReport, LoopError> {
        let started_at = self.cluster.clock_secs();

        // 1. Observe: bring the demands of the VMs mutated since their last
        // touch up to date and snapshot the configuration: the monitor
        // keeps the snapshot as the view.
        self.cluster.refresh_demands();
        if self.config.observation.mode == ObservationMode::FullResync {
            self.monitor.resync();
        }
        let delta = self.monitor.observe(&mut self.cluster);
        self.config
            .optimizer
            .sync_memory(&mut self.memory, &delta, self.cluster.configuration());
        // A full observation rebuilds every kept state: the solver's above,
        // the decision module's here.
        if delta.full {
            self.decision.forget();
        }
        let observation = ObservationReport {
            version: delta.version,
            full: delta.full,
            changed_vms: delta.vms.len(),
            changed_nodes: delta.node_capacities.len(),
        };

        // 2. Decide, on the vjobs changed since the last decide.
        let decide_started = Instant::now();
        let decided = self.decision.decide_changed(
            self.cluster.configuration(),
            &self.vjobs,
            &self.pending_completed,
            &self.decision_changes,
        );
        self.decision_changes.clear();
        let decision = decided.map_err(|e| LoopError::Decision(e.to_string()))?;
        let decision_ms = decide_started.elapsed().as_secs_f64() * 1e3;

        // 3 & 4. Plan and execute, unless nothing changes and the cluster is
        // already viable (the ledger's overload set, O(1)).
        let viable = self.cluster.configuration().is_viable();
        let needs_switch = decision.changes_anything(&self.vjobs) || !viable;
        let mut solve = SolveReport {
            decision_ms,
            ..Default::default()
        };
        let mut switch = SwitchReport::default();
        let mut completed_now: Vec<VjobId> = Vec::new();

        if needs_switch {
            let optimized = self.config.optimizer.optimize_changed(
                &mut self.memory,
                self.cluster.configuration(),
                &decision,
                &self.vjobs,
                &self.solve_changes,
            );
            self.solve_changes.clear();
            let outcome = optimized.map_err(LoopError::Optimizer)?;
            solve.decide_ms = decide_started.elapsed().as_secs_f64() * 1e3;
            let report = self.executor.execute(&mut self.cluster, &outcome.plan);
            switch.plan_stats = outcome.plan.stats();
            switch.plan_cost = Some(outcome.cost.clone());
            switch.duration_secs = report.duration_secs;
            solve.search_stats = outcome.stats.clone();
            solve.portfolio_stats = outcome.portfolio.clone();
            solve.repair_stats = outcome.repair.clone();
            switch.failed_actions = report.failed_actions.len();
            for &ClusterEvent::VjobCompleted(id) in &report.completed_vjobs {
                self.completed(id);
            }
            switch.timeline = Some(report.timeline);

            // Commit the decided transitions the switch realized: every VM
            // of the vjob in the wanted state.  A failed action leaves its
            // vjob as it was, and the next iteration plans it again.  Only
            // the transitions are walked, in slice order: a vjob the
            // decision does not list keeps its state.  A committed one is
            // listed for the next decide and the next solve.
            for transition in decision.transitions() {
                let vjob = &mut self.vjobs[transition.index];
                debug_assert_eq!((vjob.id, vjob.state), (transition.vjob, transition.from));
                let wanted = transition.to;
                let configuration = self.cluster.configuration();
                let in_wanted = |&vm: &_| configuration.state(vm) == Ok(wanted.vm_state());
                if !vjob.state.can_transition_to(wanted) || !vjob.vms.iter().all(in_wanted) {
                    continue;
                }
                vjob.transition_to(wanted).expect("checked transition");
                self.cluster.update_vjob(vjob);
                self.decision_changes.push(transition.index);
                self.solve_changes.push(transition.index);
                if wanted == VjobState::Terminated {
                    self.pending_completed.remove(&vjob.id);
                    completed_now.push(vjob.id);
                    self.live -= 1;
                }
            }
        } else {
            solve.decide_ms = decide_started.elapsed().as_secs_f64() * 1e3;
        }

        // 5. Sleep until the next iteration.
        let remaining = (self.config.period_secs - switch.duration_secs).max(0.0);
        let events = self.cluster.advance(remaining, &BTreeMap::new());
        for ClusterEvent::VjobCompleted(id) in events {
            self.completed(id);
        }

        let report = IterationReport {
            iteration: self.iteration,
            started_at_secs: started_at,
            performed_switch: needs_switch,
            observation,
            solve,
            switch,
            completed_vjobs: completed_now,
            utilization: self.cluster.utilization(),
        };
        self.iteration += 1;
        Ok(report)
    }

    /// Run iterations until every vjob is terminated (or the iteration bound
    /// is hit) and return the full report.
    pub fn run_until_complete(&mut self) -> Result<RunReport, LoopError> {
        let mut iterations = Vec::new();
        let mut utilization = Vec::new();
        let mut completion_time = None;
        for _ in 0..self.config.max_iterations {
            let report = self.iterate()?;
            utilization.push(report.utilization);
            iterations.push(report);
            if self.all_terminated() {
                completion_time = Some(self.cluster.clock_secs());
                break;
            }
        }
        Ok(RunReport {
            iterations,
            utilization,
            completion_time_secs: completion_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidation::FcfsConsolidation;
    use cwcs_model::{Configuration, CpuCapacity, MemoryMib, Node, NodeId, Vm, VmId, VmState};
    use cwcs_workload::{VmWorkProfile, WorkPhase};
    use std::time::Duration;

    /// Build a small scenario: `node_count` nodes (2 cores, 4 GiB) and
    /// `vjob_count` vjobs of `vms_per_vjob` busy VMs running `work_secs` of
    /// computation each.
    fn scenario(
        node_count: u32,
        vjob_count: u32,
        vms_per_vjob: u32,
        work_secs: f64,
    ) -> (SimulatedCluster, Vec<VjobSpec>) {
        let mut config = Configuration::new();
        for i in 0..node_count {
            config
                .add_node(Node::new(
                    NodeId(i),
                    CpuCapacity::cores(2),
                    MemoryMib::gib(4),
                ))
                .unwrap();
        }
        let mut specs = Vec::new();
        let mut next_vm = 0u32;
        for j in 0..vjob_count {
            let vm_ids: Vec<VmId> = (0..vms_per_vjob)
                .map(|_| {
                    let id = VmId(next_vm);
                    next_vm += 1;
                    id
                })
                .collect();
            let vms: Vec<Vm> = vm_ids
                .iter()
                .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
                .collect();
            for vm in &vms {
                config.add_vm(vm.clone()).unwrap();
            }
            let vjob = cwcs_model::Vjob::new(cwcs_model::VjobId(j), vm_ids, j as u64);
            let profiles = vms
                .iter()
                .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
                .collect();
            specs.push(VjobSpec::new(vjob, vms, profiles));
        }
        (SimulatedCluster::new(config), specs)
    }

    /// A spec for one extra vjob of `vms_per_vjob` VMs, ids starting at
    /// `first_vm` — used by the rolling-arrival tests.
    fn arrival_spec(vjob: u32, first_vm: u32, vms_per_vjob: u32, work_secs: f64) -> VjobSpec {
        let vm_ids: Vec<VmId> = (0..vms_per_vjob).map(|k| VmId(first_vm + k)).collect();
        let vms: Vec<Vm> = vm_ids
            .iter()
            .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
            .collect();
        let profiles = vms
            .iter()
            .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
            .collect();
        VjobSpec::new(
            cwcs_model::Vjob::new(cwcs_model::VjobId(vjob), vm_ids, vjob as u64),
            vms,
            profiles,
        )
    }

    fn fast_config() -> ControlLoopConfig {
        ControlLoopConfig {
            period_secs: 30.0,
            optimizer: SolverConfig::default()
                .with_timeout(Duration::from_millis(300))
                .build_optimizer(),
            max_iterations: 200,
            ..Default::default()
        }
    }

    #[test]
    fn small_workload_runs_to_completion() {
        // 4 nodes (8 cores), 2 vjobs of 3 busy VMs: everything fits at once.
        let (cluster, specs) = scenario(4, 2, 3, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let report = control.run_until_complete().unwrap();
        assert!(control.all_terminated());
        let completion = report.completion_time_secs.expect("run completes");
        assert!(completion >= 60.0, "jobs need at least their work time");
        assert!(
            completion < 600.0,
            "but not absurdly more, got {completion}"
        );
        // The first iteration performed the runs.
        assert!(report.iterations[0].performed_switch);
        assert!(report.iterations[0].switch.plan_stats.runs > 0);
        // Eventually stop actions were issued.
        assert!(report
            .iterations
            .iter()
            .any(|it| it.switch.plan_stats.stops > 0));
    }

    #[test]
    fn overloaded_cluster_suspends_and_later_resumes() {
        // 1 node (2 cores), 2 vjobs of 2 busy VMs each: only one vjob can run
        // at a time; the second runs after the first completes.
        let (cluster, specs) = scenario(1, 2, 2, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let report = control.run_until_complete().unwrap();
        assert!(control.all_terminated());
        // The second vjob must have waited: completion takes at least two
        // job durations.
        let completion = report.completion_time_secs.unwrap();
        assert!(
            completion >= 120.0,
            "sequential execution expected, got {completion}"
        );
    }

    #[test]
    fn the_live_count_follows_the_vjobs_as_they_terminate_one_by_one() {
        // Four 1-VM vjobs of staggered lengths, one more arriving mid-run:
        // each completes on a tick of its own, and after every tick the count
        // `all_terminated` reads agrees with a walk over the vjobs.
        let (cluster, mut specs) = scenario(4, 4, 1, 60.0);
        for (k, spec) in specs.iter_mut().enumerate() {
            let work = 60.0 + 90.0 * k as f64;
            spec.profiles = vec![VmWorkProfile::new(vec![WorkPhase::compute(work)])];
        }
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let live = |control: &ControlLoop<_>| {
            let vjobs = control.vjobs().iter();
            vjobs.filter(|j| j.state != VjobState::Terminated).count()
        };
        let mut terminated_on = Vec::new();
        for tick in 0..40 {
            if tick == 3 {
                control.submit_vjob(&arrival_spec(4, 4, 1, 30.0)).unwrap();
            }
            let report = control.iterate().unwrap();
            assert_eq!(control.live, live(&control), "tick {tick}");
            assert_eq!(control.all_terminated(), live(&control) == 0, "tick {tick}");
            terminated_on.extend(report.completed_vjobs.iter().map(|_| tick));
            if control.all_terminated() {
                break;
            }
        }
        assert!(control.all_terminated());
        assert_eq!(terminated_on.len(), 5);
        let mut ticks = terminated_on.clone();
        ticks.dedup();
        assert_eq!(ticks, terminated_on, "one vjob terminates per tick");
    }

    #[test]
    fn iteration_reports_are_consistent() {
        let (cluster, specs) = scenario(2, 1, 2, 30.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let first = control.iterate().unwrap();
        assert_eq!(first.iteration, 0);
        assert!(first.performed_switch);
        assert!(first.switch.plan_cost.is_some());
        assert_eq!(first.switch.failed_actions, 0);
        // The first observation is a full one, covering every VM.
        assert!(first.observation.full);
        assert_eq!(first.observation.changed_vms, 2);
        // The decide step wraps the decision module.
        assert!(first.solve.decide_ms >= first.solve.decision_ms);
        // The switch exposes its timeline, consistent with its duration.
        let timeline = first.switch.timeline.as_ref().expect("switch performed");
        assert!(!timeline.entries.is_empty());
        assert!((timeline.duration_secs - first.switch.duration_secs).abs() < 1e-9);
        // Virtual time advanced by at least the period.
        assert!(control.cluster().clock_secs() >= 30.0 - 1e-9);
        let second = control.iterate().unwrap();
        assert_eq!(second.iteration, 1);
        assert!(second.started_at_secs >= 30.0 - 1e-9);
        // The second observation is an incremental delta, and the view
        // tracked both of them.
        assert!(!second.observation.full);
        assert_eq!(control.view().version, second.observation.version);
        assert_eq!(control.view().configuration().vm_count(), 2);
    }

    #[test]
    fn idle_iterations_do_not_switch() {
        // Long jobs: the first iteration starts the vjobs (the applications
        // are not running yet, so the observed demand is low), the second may
        // rebalance once the real demand shows up, and after that the loop
        // must reach a steady state with no further context switch until the
        // jobs complete.
        let (cluster, specs) = scenario(4, 2, 2, 500.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let first = control.iterate().unwrap();
        assert!(first.performed_switch);
        let _second = control.iterate().unwrap();
        let third = control.iterate().unwrap();
        let fourth = control.iterate().unwrap();
        assert!(
            !third.performed_switch,
            "steady state must not reshuffle VMs"
        );
        assert!(
            !fourth.performed_switch,
            "steady state must not reshuffle VMs"
        );
        assert_eq!(fourth.switch.plan_stats.total_actions(), 0);
        // Steady state means steady deltas: nothing changed, nothing carried.
        assert_eq!(fourth.observation.changed_vms, 0);
        assert_eq!(fourth.observation.changed_nodes, 0);
    }

    #[test]
    fn run_report_exposes_figure_11_points() {
        let (cluster, specs) = scenario(2, 2, 2, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let report = control.run_until_complete().unwrap();
        let points = report.switch_points();
        assert!(!points.is_empty());
        for (_cost, duration) in &points {
            assert!(*duration >= 0.0);
        }
        assert!(report.mean_switch_duration_secs() > 0.0);
    }

    #[test]
    fn submitted_vjobs_run_and_complete() {
        // Start with one vjob on a roomy cluster, submit a second mid-run:
        // the loop must pick it up, run it, and terminate both.
        let (cluster, specs) = scenario(4, 1, 2, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        control.iterate().unwrap();
        control.submit_vjob(&arrival_spec(1, 2, 2, 60.0)).unwrap();
        let report = control.run_until_complete().unwrap();
        assert!(control.all_terminated());
        assert_eq!(control.vjobs().len(), 2);
        assert!(report.completion_time_secs.is_some());
    }

    #[test]
    fn a_colliding_submission_is_refused_and_changes_nothing() {
        // An arrival reusing a running VM's id must not take that VM over.
        let (cluster, specs) = scenario(4, 1, 2, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        control.iterate().unwrap();
        let configuration = control.cluster().configuration().clone();
        let progress = control.cluster().progress_of(VmId(1));
        let vjobs = control.vjobs().to_vec();
        let err = control.submit_vjob(&arrival_spec(1, 1, 2, 60.0));
        assert_eq!(err, Err(cwcs_model::ModelError::DuplicateVm(VmId(1))));
        assert_eq!(*control.cluster().configuration(), configuration);
        assert_eq!(control.cluster().progress_of(VmId(1)), progress);
        assert_eq!(control.vjobs(), vjobs);
    }

    #[test]
    fn full_resync_mode_matches_delta_mode() {
        // The lockstep contract in miniature (the full suite lives in
        // tests/lockstep.rs): both observation modes drive the same
        // scenario to the same switches and the same completion time.
        let run = |mode: ObservationMode| {
            let (cluster, specs) = scenario(3, 3, 2, 90.0);
            let optimizer = SolverConfig::default()
                .with_timeout(Duration::from_secs(30))
                .with_node_limit(20_000)
                .with_mode(crate::optimizer::OptimizerMode::repair())
                .build_optimizer();
            let config = ControlLoopConfig {
                period_secs: 30.0,
                optimizer,
                max_iterations: 100,
                observation: ObservationConfig::default().with_mode(mode),
                ..Default::default()
            };
            let mut control = ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), config);
            let report = control.run_until_complete().unwrap();
            let trace: Vec<(bool, u64, usize)> = report
                .iterations
                .iter()
                .map(|it| {
                    (
                        it.performed_switch,
                        it.switch.plan_cost.as_ref().map(|c| c.total).unwrap_or(0),
                        it.switch.plan_stats.total_actions(),
                    )
                })
                .collect();
            (trace, report.completion_time_secs)
        };
        assert_eq!(
            run(ObservationMode::Delta),
            run(ObservationMode::FullResync)
        );
    }

    #[test]
    fn a_pool_barrier_switch_is_observed_as_a_diff() {
        // Regression: the pool-barrier executor writes through
        // `configuration_mut`, which used to turn the next observation into a
        // full one — and a full observation drops the warm state.  Six vjobs
        // of staggered lengths on 8 cores: each switch stops one vjob and
        // starts another while the others keep running.
        let (cluster, mut specs) = scenario(4, 6, 2, 60.0);
        for (k, spec) in specs.iter_mut().enumerate() {
            let work = 60.0 + 45.0 * k as f64;
            spec.profiles = vec![VmWorkProfile::new(vec![WorkPhase::compute(work)]); 2];
        }
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(300))
            .with_mode(crate::optimizer::OptimizerMode::repair())
            .with_warm_start(true)
            .build_optimizer();
        let config = ControlLoopConfig {
            optimizer,
            execution_mode: ExecutionMode::PoolBarrier,
            ..fast_config()
        };
        let mut control = ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), config);
        let vm_count = control.cluster().configuration().vm_count();
        let (mut switched, mut after_switch) = (false, 0);
        for tick in 0..12 {
            let report = control.iterate().unwrap();
            assert_eq!(report.observation.full, tick == 0, "tick {tick}");
            if switched {
                let changed = report.observation.changed_vms;
                assert!(changed < vm_count, "tick {tick}: {changed} VMs changed");
                after_switch += 1;
            }
            switched = report.switch.plan_stats.total_actions() > 0;
        }
        assert!(after_switch >= 3, "{after_switch} ticks after a switch");
    }

    #[test]
    fn a_running_vjob_registered_complete_terminates_on_tick_zero() {
        // No advance reports a vjob whose work is done before the loop
        // starts until the clock first moves: the loop must see it on tick 0
        // all the same, and terminate it exactly once.
        let mut config = Configuration::new();
        config
            .add_node(Node::new(
                NodeId(0),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        let vm = Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1));
        config.add_vm(vm.clone()).unwrap();
        config
            .set_assignment(VmId(0), cwcs_model::VmAssignment::running(NodeId(0)))
            .unwrap();
        let id = cwcs_model::VjobId(7);
        let mut vjob = cwcs_model::Vjob::new(id, vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        let spec = VjobSpec::new(vjob, vec![vm], vec![VmWorkProfile::new(Vec::new())]);
        let cluster = SimulatedCluster::new(config);
        let mut control =
            ControlLoop::new(cluster, &[spec], FcfsConsolidation::new(), fast_config());
        assert_eq!(control.iterate().unwrap().completed_vjobs, vec![id]);
        assert!(control.all_terminated());
        assert!(control.iterate().unwrap().completed_vjobs.is_empty());
    }

    #[test]
    fn a_failed_boot_leaves_the_vjob_waiting_until_a_later_tick_boots_it() {
        // The driver fails the boot of one VM of a 2-VM vjob: the switch
        // leaves that VM waiting, so the vjob is not recorded Running, and
        // the next tick boots it.  A vjob recorded Running over a waiting
        // VM would never complete.
        let (cluster, specs) = scenario(2, 1, 2, 60.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        let injector = control.executor.driver().failure_injector();
        injector.fail_next_action_on(VmId(0));
        let failed = control.iterate().unwrap();
        assert_eq!(failed.switch.failed_actions, 1);
        let state = |control: &ControlLoop<_>| control.cluster().configuration().state(VmId(0));
        assert_eq!(state(&control), Ok(VmState::Waiting));
        assert_eq!(control.vjobs()[0].state, VjobState::Waiting);
        let booted = control.iterate().unwrap();
        assert_eq!(booted.switch.failed_actions, 0);
        assert_eq!(state(&control), Ok(VmState::Running));
        assert_eq!(control.vjobs()[0].state, VjobState::Running);
        let report = control.run_until_complete().unwrap();
        assert!(report.completion_time_secs.is_some());
        assert!(control.all_terminated());
    }

    #[test]
    fn a_failed_stop_keeps_the_vjob_running_until_a_later_tick_stops_it() {
        // A 20 s vjob completes during tick 0's sleep; the driver fails the
        // stop tick 1 issues.  The vjob stays Running and pending, and is
        // stopped, and reported terminated, by tick 2.
        let (cluster, specs) = scenario(2, 1, 1, 20.0);
        let id = specs[0].vjob.id;
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        control.iterate().unwrap();
        assert!(control.pending_completed.contains(&id));
        let injector = control.executor.driver().failure_injector();
        injector.fail_next_action_on(VmId(0));
        let failed = control.iterate().unwrap();
        assert_eq!(failed.switch.failed_actions, 1);
        assert!(failed.completed_vjobs.is_empty());
        assert_eq!(control.vjobs()[0].state, VjobState::Running);
        assert!(control.pending_completed.contains(&id));
        let stopped = control.iterate().unwrap();
        assert_eq!(stopped.switch.failed_actions, 0);
        assert_eq!(stopped.completed_vjobs, vec![id]);
        assert!(control.all_terminated());
        assert!(control.pending_completed.is_empty());
        let state = control.cluster().configuration().state(VmId(0));
        assert_eq!(state, Ok(VmState::Terminated));
    }

    #[test]
    fn injected_node_failures_are_repaired() {
        // Degrade a node under a running workload: the loop must notice the
        // overload through the delta protocol and evacuate the node.
        let (cluster, specs) = scenario(4, 2, 2, 600.0);
        let mut control =
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), fast_config());
        control.iterate().unwrap();
        control.iterate().unwrap();
        // Find a node that hosts at least one VM and degrade it to a sliver.
        let victim = control
            .cluster()
            .configuration()
            .node_ids()
            .into_iter()
            .find(|&n| {
                control
                    .cluster()
                    .configuration()
                    .usage(n)
                    .map(|u| !u.used.is_zero())
                    .unwrap_or(false)
            })
            .expect("some node hosts VMs");
        control
            .cluster_mut()
            .set_node_capacity(
                victim,
                CpuCapacity::percent(10),
                MemoryMib::mib(128),
                cwcs_model::NetBandwidth::ZERO,
            )
            .unwrap();
        let repair = control.iterate().unwrap();
        assert!(repair.observation.changed_nodes >= 1);
        assert!(
            repair.performed_switch,
            "the overload must trigger a switch"
        );
        // The degraded node no longer hosts anything it cannot carry.
        let usage = control.cluster().configuration().usage(victim).unwrap();
        assert!(usage.used.fits_in(&usage.capacity));
    }
}
