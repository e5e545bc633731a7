//! The only file that calls the production crates.
//!
//! Everything the benchmark does to the program goes through here, so the
//! `use` lists and call sites below are the API surface later changes must
//! keep source-compatible (the README lists it).  Three drivers:
//!
//! * [`PlainLoop`] — the untraced path: `ControlLoop::{new, submit_vjob,
//!   cluster_mut, iterate}`, nothing else.  Every end-to-end number comes
//!   from it.
//! * [`StagedLoop`] — the traced path: the body of `ControlLoop::iterate`
//!   replayed stage by stage through public functions, each call timed from
//!   outside.  It must stay in step with `iterate`; the run fails when its
//!   deterministic outputs differ from the `PlainLoop`'s.
//! * [`run_switch`] — `Planner::plan` + `PlanExecutor::execute` on a prepared
//!   source/target pair (the `drain_switch` workload), traced or not.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use cwcs_core::{
    ControlLoop, ControlLoopConfig, DecisionModule, FcfsConsolidation, IterationReport,
    OptimizedOutcome, OptimizerMode, PlanOptimizer, SolverConfig, SolverMemory,
};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, ResourceDemand, Vjob,
    VjobId, VjobState, Vm, VmAssignment, VmId, VmState,
};
use cwcs_plan::{
    Action, ActionCostModel, PlanDependencies, PlanStats, Planner, ReconfigurationPlan,
};
use cwcs_sim::{
    ClusterEvent, ClusterView, ExecutionReport, MonitoringService, PlanExecutor, SimulatedCluster,
    SimulatedXenDriver,
};
use cwcs_workload::{VjobSpec, VmWorkProfile, WorkPhase};

use crate::trace::Tracer;
use crate::workloads::{LoopIn, NodeIn, SwitchIn, TickIn, VjobIn};

/// Solver threads of the production configuration (`nproc` of the box the
/// benchmark was sized on).
pub const SOLVER_WORKERS: usize = 2;
/// The paper's control period, seconds of virtual time.
const PERIOD_SECS: f64 = 30.0;

/// The one production configuration every loop workload runs: repair mode,
/// warm start, 2 portfolio workers, and a search-node budget instead of a
/// wall-clock one — the work per solve is then fixed and deterministic, so a
/// faster solver shows as less time at the same plan cost.
fn production_config(node_limit: u64, max_iterations: usize) -> ControlLoopConfig {
    let solver = SolverConfig::default()
        .with_mode(OptimizerMode::repair())
        .with_warm_start(true)
        .with_workers(SOLVER_WORKERS)
        .with_timeout(Duration::from_secs(3_600))
        .with_node_limit(node_limit);
    ControlLoopConfig {
        period_secs: PERIOD_SECS,
        optimizer: solver.build_optimizer(),
        max_iterations,
        ..Default::default()
    }
}

fn node_capacity(node: &NodeIn) -> (CpuCapacity, MemoryMib, NetBandwidth) {
    (
        CpuCapacity::percent(node.cpu_pct),
        MemoryMib::mib(node.mem_mib),
        NetBandwidth::mbps(node.net_mbps),
    )
}

/// Allocates VM and vjob identifiers in generation order.
#[derive(Default)]
struct SpecFactory {
    next_vm: u32,
    next_vjob: u32,
}

impl SpecFactory {
    fn spec(&mut self, input: &VjobIn) -> VjobSpec {
        let vms: Vec<Vm> = input
            .vms
            .iter()
            .map(|vm| {
                let id = VmId(self.next_vm);
                self.next_vm += 1;
                Vm::new(
                    id,
                    MemoryMib::mib(vm.mem_mib),
                    CpuCapacity::percent(vm.cpu_pct),
                )
                .with_net(NetBandwidth::mbps(vm.net_mbps))
            })
            .collect();
        let profiles = input
            .vms
            .iter()
            .map(|vm| {
                VmWorkProfile::new(
                    vm.phases
                        .iter()
                        .map(|p| WorkPhase {
                            cpu_demand: CpuCapacity::percent(p.cpu_pct),
                            net_demand: NetBandwidth::mbps(p.net_mbps),
                            duration_secs: p.secs,
                        })
                        .collect(),
                )
            })
            .collect();
        let id = self.next_vjob;
        self.next_vjob += 1;
        let mut vjob = Vjob::new(VjobId(id), vms.iter().map(|v| v.id).collect(), id as u64);
        if input.host.is_some() {
            vjob.transition_to(VjobState::Running)
                .expect("a new vjob may start running");
        }
        VjobSpec::new(vjob, vms, profiles)
    }
}

/// Build the configuration holding `nodes` and the VMs of `vjobs`, placed
/// where the generator put them.
fn build_configuration(
    nodes: &[NodeIn],
    vjobs: &[VjobIn],
    factory: &mut SpecFactory,
) -> (Configuration, Vec<VjobSpec>) {
    let mut configuration = Configuration::new();
    for (index, node) in nodes.iter().enumerate() {
        let (cpu, memory, net) = node_capacity(node);
        configuration
            .add_node(Node::new(NodeId(index as u32), cpu, memory).with_net(net))
            .expect("generated node ids are unique");
    }
    let mut specs = Vec::with_capacity(vjobs.len());
    for input in vjobs {
        let spec = factory.spec(input);
        for vm in &spec.vms {
            configuration
                .add_vm(vm.clone())
                .expect("generated vm ids are unique");
            if let Some(host) = input.host {
                configuration
                    .set_assignment(vm.id, VmAssignment::running(NodeId(host)))
                    .expect("generated placements fit their node");
            }
        }
        specs.push(spec);
    }
    (configuration, specs)
}

/// What the client does before one tick, in the program's types.
#[derive(Default)]
pub struct PreparedTick {
    arrivals: Vec<VjobSpec>,
    capacities: Vec<(NodeId, CpuCapacity, MemoryMib, NetBandwidth)>,
}

/// A generated loop turned into the program's types, ready to drive.
pub struct PreparedLoop {
    cluster: SimulatedCluster,
    initial: Vec<VjobSpec>,
    pub ticks: Vec<PreparedTick>,
    config: ControlLoopConfig,
    /// Wall time of `SimulatedCluster::new`, milliseconds.
    pub build_ms: f64,
}

pub fn prepare_loop(input: &LoopIn) -> PreparedLoop {
    let mut factory = SpecFactory::default();
    let (configuration, initial) = build_configuration(&input.nodes, &input.initial, &mut factory);
    let ticks = input
        .ticks
        .iter()
        .map(|tick: &TickIn| PreparedTick {
            arrivals: tick.arrivals.iter().map(|j| factory.spec(j)).collect(),
            capacities: tick
                .capacities
                .iter()
                .map(|(node, capacity)| {
                    let (cpu, memory, net) = node_capacity(capacity);
                    (NodeId(*node), cpu, memory, net)
                })
                .collect(),
        })
        .collect();
    let build_started = Instant::now();
    let cluster = SimulatedCluster::new(configuration);
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    PreparedLoop {
        cluster,
        initial,
        ticks,
        config: production_config(input.node_limit, input.max_iterations.max(1)),
        build_ms,
    }
}

/// The deterministic outputs of one tick plus its two latencies.
#[derive(Debug, Clone, Default)]
pub struct TickFacts {
    /// Wall of the operation (submit + perturb + iterate), milliseconds.
    pub wall_ms: f64,
    /// Decision module + placement optimization, milliseconds.
    pub decide_ms: f64,
    pub plan_cost: u64,
    pub switch_virtual_s: f64,
    pub actions: u64,
    pub search_nodes: u64,
    pub failed_actions: u64,
    /// Vjobs terminated by this tick, and the virtual seconds each spent
    /// between submission and termination, summed.
    pub terminated: u64,
    pub turnaround_s: f64,
}

/// What a finished loop looks like from outside.
pub struct EndState {
    pub vm_records: usize,
    pub viable: bool,
    pub consistent: bool,
}

/// True when no node hosts more than it can carry.  One pass over the VMs:
/// `Configuration::is_viable` rescans every VM for every node, which takes
/// seconds on the 10 000-node workload.
fn no_node_overloaded(configuration: &Configuration) -> bool {
    let mut used: BTreeMap<NodeId, ResourceDemand> = BTreeMap::new();
    for vm in configuration.vms() {
        match configuration.assignment(vm.id) {
            Ok(VmAssignment {
                state: VmState::Running,
                host: Some(host),
                ..
            }) => *used.entry(host).or_insert(ResourceDemand::ZERO) += vm.demand(),
            _ => continue,
        }
    }
    used.iter().all(|(&node, load)| {
        configuration
            .node(node)
            .is_ok_and(|n| load.fits_in(&n.capacity()))
    })
}

fn end_state(cluster: &SimulatedCluster) -> EndState {
    let configuration = cluster.configuration();
    EndState {
        vm_records: configuration.vm_count(),
        viable: no_node_overloaded(configuration),
        consistent: configuration.validate().is_ok(),
    }
}

/// What the solver reports about one traced episode that depends on thread
/// timing (unlike [`LayerCounters`], two episodes need not agree on these).
#[derive(Debug, Default)]
pub struct SolverTimings {
    pub search_ms: u64,
    pub steals: u64,
    pub portfolio_solves: u64,
    /// Σ over portfolio solves of max / mean worker nodes.
    pub worker_imbalance: f64,
}

/// What one episode records when traced: the spans, the counts taken at the
/// layer boundaries, and the optimizer time that is neither search nor
/// planning (one sample per optimized tick).
#[derive(Debug, Default)]
pub struct Trace {
    pub tracer: Tracer,
    pub counters: LayerCounters,
    pub solver: SolverTimings,
    pub optimizer_overhead_ms: Vec<f64>,
    /// Check every executed plan with `ReconfigurationPlan::validate`.  The
    /// runner asks for it on the first traced episode only: later episodes
    /// execute the same plans.
    pub validate_plans: bool,
}

/// A control loop the episode runner can drive one operation at a time.
pub trait LoopDriver {
    /// Submit the tick's arrivals, apply its capacity changes, iterate once.
    /// Only the traced driver writes to `trace`.
    fn tick(&mut self, tick: &PreparedTick, trace: &mut Trace) -> Result<TickFacts, String>;
    fn all_terminated(&self) -> bool;
    fn end_state(&self) -> EndState;
    /// Add the loop's end-of-life counts to `trace`.
    fn finish(&self, _trace: &mut Trace) {}
}

/// Virtual submission time of every vjob, by vjob id (ids are sequential).
fn turnaround(submitted_at: &[f64], terminated: &[VjobId], at_secs: f64) -> (u64, f64) {
    let sum = terminated
        .iter()
        .map(|id| at_secs - submitted_at[id.0 as usize])
        .sum();
    (terminated.len() as u64, sum)
}

/// The untraced driver: the production `ControlLoop`, used as a client
/// would.
pub struct PlainLoop {
    control: ControlLoop<FcfsConsolidation>,
    submitted_at: Vec<f64>,
}

impl PlainLoop {
    pub fn new(prepared: PreparedLoop) -> Self {
        let submitted_at = vec![0.0; prepared.initial.len()];
        PlainLoop {
            control: ControlLoop::new(
                prepared.cluster,
                &prepared.initial,
                FcfsConsolidation::new(),
                prepared.config,
            ),
            submitted_at,
        }
    }

    fn facts(&self, report: &IterationReport, wall_ms: f64) -> TickFacts {
        let (terminated, turnaround_s) = turnaround(
            &self.submitted_at,
            &report.completed_vjobs,
            report.started_at_secs + report.switch.duration_secs,
        );
        TickFacts {
            wall_ms,
            decide_ms: report.solve.decide_ms,
            plan_cost: report.switch.plan_cost.as_ref().map_or(0, |c| c.total),
            switch_virtual_s: report.switch.duration_secs,
            actions: report.switch.plan_stats.total_actions() as u64,
            search_nodes: report.solve.search_stats.nodes,
            failed_actions: report.switch.failed_actions as u64,
            terminated,
            turnaround_s,
        }
    }
}

impl LoopDriver for PlainLoop {
    fn tick(&mut self, tick: &PreparedTick, _trace: &mut Trace) -> Result<TickFacts, String> {
        let started = Instant::now();
        let now = self.control.cluster().clock_secs();
        for spec in &tick.arrivals {
            self.control
                .submit_vjob(spec)
                .map_err(|e| format!("submit_vjob: {e}"))?;
            self.submitted_at.push(now);
        }
        for &(node, cpu, memory, net) in &tick.capacities {
            self.control
                .cluster_mut()
                .set_node_capacity(node, cpu, memory, net)
                .map_err(|e| format!("set_node_capacity: {e}"))?;
        }
        let report = self.control.iterate().map_err(|e| e.to_string())?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(self.facts(&report, wall_ms))
    }

    fn all_terminated(&self) -> bool {
        self.control.all_terminated()
    }

    fn end_state(&self) -> EndState {
        end_state(self.control.cluster())
    }
}

/// Counts recorded at the layer boundaries of a traced episode.  All of
/// them are deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounters {
    pub delta_vms: u64,
    pub delta_nodes: u64,
    pub full_observations: u64,
    pub vjobs_seen: u64,
    /// Ticks that called the optimizer / whose search explored nodes.
    pub optimizations: u64,
    pub searches: u64,
    pub repair_solves: u64,
    pub movable_vms: u64,
    pub candidate_nodes: u64,
    pub widenings: u64,
    pub fell_back_to_full: u64,
    pub model_patches: u64,
    pub model_set_diff_patches: u64,
    pub model_rebuilds: u64,
    pub nodes: u64,
    pub failures: u64,
    pub solutions: u64,
    pub restarts: u64,
    pub proved_optimal: u64,
    pub incumbent_kept: u64,
    pub actions: u64,
    pub pools: u64,
    pub migrations: u64,
    pub suspends: u64,
    pub resumes: u64,
    pub edges: u64,
    pub failed_actions: u64,
    pub max_concurrency: u64,
    pub validated_plans: u64,
    pub invalid_plans: u64,
    pub replay_mismatches: u64,
    pub vm_records_end: u64,
}

impl LayerCounters {
    fn record_outcome(&mut self, outcome: &OptimizedOutcome) {
        self.optimizations += 1;
        let stats = &outcome.stats;
        if stats.nodes > 0 {
            self.searches += 1;
            self.proved_optimal += stats.completed as u64;
            self.incumbent_kept += stats.incumbent_kept as u64;
        }
        self.nodes += stats.nodes;
        self.failures += stats.failures;
        self.solutions += stats.solutions;
        self.restarts += stats.restarts;
        if let Some(repair) = &outcome.repair {
            self.repair_solves += 1;
            self.movable_vms += repair.movable_vms as u64;
            self.candidate_nodes += repair.candidate_nodes as u64;
            self.widenings += repair.widenings as u64;
            self.fell_back_to_full += repair.fell_back_to_full as u64;
        }
    }

    fn record_plan(&mut self, stats: &PlanStats, edges: usize) {
        self.actions += stats.total_actions() as u64;
        self.pools += stats.pools as u64;
        self.migrations += stats.migrations as u64;
        self.suspends += stats.suspends as u64;
        self.resumes += stats.resumes as u64;
        self.edges += edges as u64;
    }

    fn record_execution(&mut self, report: &ExecutionReport) {
        self.failed_actions += report.failed_actions.len() as u64;
        self.max_concurrency = self
            .max_concurrency
            .max(report.timeline.max_concurrency() as u64);
    }
}

impl SolverTimings {
    fn record_outcome(&mut self, outcome: &OptimizedOutcome) {
        self.search_ms += outcome.stats.elapsed_ms;
        if let Some(portfolio) = &outcome.portfolio {
            self.steals += portfolio.steals_total;
            let nodes: Vec<u64> = portfolio.workers.iter().map(|w| w.stats.nodes).collect();
            let total: u64 = nodes.iter().sum();
            if total > 0 {
                let max = nodes.iter().copied().max().unwrap_or(0);
                self.portfolio_solves += 1;
                self.worker_imbalance += max as f64 * nodes.len() as f64 / total as f64;
            }
        }
    }
}

/// The part of `source` a plan can see: the nodes its actions name and every
/// VM placed on them.  A plan is valid on `source` exactly when it is valid
/// on this footprint, and `ReconfigurationPlan::validate` — which rescans the
/// whole configuration once per node and pool — is only affordable on the
/// footprint.
fn plan_footprint(source: &Configuration, plan: &ReconfigurationPlan) -> Configuration {
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    let mut vms: BTreeSet<VmId> = BTreeSet::new();
    for action in plan.all_actions() {
        vms.insert(action.vm());
        match action {
            Action::Run { node, .. } | Action::Stop { node, .. } | Action::Suspend { node, .. } => {
                nodes.insert(node);
            }
            Action::Migrate { from, to, .. } => nodes.extend([from, to]),
            Action::Resume { image, to, .. } => nodes.extend([image, to]),
        }
    }
    let mut footprint = Configuration::new();
    for &node in &nodes {
        let node = source.node(node).expect("a plan names known nodes");
        footprint
            .add_node(node.clone())
            .expect("node ids are unique");
    }
    for vm in source.vms() {
        let assignment = source.assignment(vm.id).expect("every VM is assigned");
        let placed_here = [assignment.host, assignment.image]
            .into_iter()
            .flatten()
            .any(|node| nodes.contains(&node));
        if placed_here || vms.contains(&vm.id) {
            footprint.add_vm(vm.clone()).expect("vm ids are unique");
            footprint
                .set_assignment(vm.id, assignment)
                .expect("the footprint holds the VM's nodes");
        }
    }
    footprint
}

/// Validate `plan` against `source` with the tick clock stopped, when the
/// episode asks for it.
fn validate_plan(trace: &mut Trace, source: &Configuration, plan: &ReconfigurationPlan) {
    if !trace.validate_plans {
        return;
    }
    let (valid, _) = trace.tracer.replay("plan.validate", || {
        plan.validate(&plan_footprint(source, plan)).is_ok()
    });
    trace.counters.validated_plans += 1;
    trace.counters.invalid_plans += !valid as u64;
}

/// Replay what the tick does not time itself, with the tick clock stopped:
/// check the plan against its source, re-run the planner on the executed
/// source/target pair, and derive the dependency graph the executor will.
/// Returns the wall of the planner replay, milliseconds.
fn replay_plan(
    trace: &mut Trace,
    planner: &Planner,
    source: &Configuration,
    target: &Configuration,
    vjobs: &[Vjob],
    plan: &ReconfigurationPlan,
) -> f64 {
    validate_plan(trace, source, plan);
    let Trace {
        tracer, counters, ..
    } = trace;
    let (replanned, replan_ms) =
        tracer.replay("plan.planner.plan", || planner.plan(source, target, vjobs));
    counters.replay_mismatches += (replanned.as_ref() != Ok(plan)) as u64;
    let (dependencies, _) = tracer.replay("plan.dependencies.derive", || {
        PlanDependencies::derive(plan, source)
    });
    counters.record_plan(&plan.stats(), dependencies.edge_count());
    replan_ms
}

/// The traced driver: `ControlLoop::iterate`, stage by stage.
pub struct StagedLoop {
    cluster: SimulatedCluster,
    monitor: MonitoringService,
    view: ClusterView,
    memory: SolverMemory,
    decision: FcfsConsolidation,
    executor: PlanExecutor<SimulatedXenDriver>,
    optimizer: PlanOptimizer,
    vjobs: Vec<Vjob>,
    pending_completed: BTreeSet<VjobId>,
    submitted_at: Vec<f64>,
}

impl StagedLoop {
    pub fn new(prepared: PreparedLoop) -> Self {
        let PreparedLoop {
            mut cluster,
            initial,
            config,
            ..
        } = prepared;
        for spec in &initial {
            cluster.register_vjob(spec);
        }
        StagedLoop {
            cluster,
            monitor: MonitoringService::new(config.observation.refresh_period_secs),
            view: ClusterView::new(),
            memory: SolverMemory::new(),
            decision: FcfsConsolidation::new(),
            executor: PlanExecutor::new(SimulatedXenDriver::default())
                .with_mode(config.execution_mode),
            optimizer: config.optimizer,
            vjobs: initial.iter().map(|s| s.vjob.clone()).collect(),
            pending_completed: BTreeSet::new(),
            submitted_at: vec![0.0; initial.len()],
        }
    }
}

impl LoopDriver for StagedLoop {
    fn tick(&mut self, tick: &PreparedTick, trace: &mut Trace) -> Result<TickFacts, String> {
        trace.tracer.next_tick();
        let tick_span = trace.tracer.enter("tick");
        let mut facts = TickFacts::default();

        let span = trace.tracer.enter("sim.cluster.admit");
        let now = self.cluster.clock_secs();
        for spec in &tick.arrivals {
            self.cluster
                .admit_vjob(spec)
                .map_err(|e| format!("admit_vjob: {e}"))?;
            self.vjobs.push(spec.vjob.clone());
            self.submitted_at.push(now);
        }
        for &(node, cpu, memory, net) in &tick.capacities {
            self.cluster
                .set_node_capacity(node, cpu, memory, net)
                .map_err(|e| format!("set_node_capacity: {e}"))?;
        }
        trace.tracer.exit(span);
        let started_at = self.cluster.clock_secs();

        // 1. Observe.
        let stage = trace.tracer.enter("observe");
        let span = trace.tracer.enter("sim.monitor.observe");
        self.cluster.refresh_demands();
        let delta = self.monitor.observe(&mut self.cluster);
        trace.tracer.exit(span);
        let span = trace.tracer.enter("sim.monitor.apply");
        self.view.apply(&delta);
        trace.tracer.exit(span);
        let span = trace.tracer.enter("core.optimizer.sync");
        self.optimizer
            .sync_memory(&mut self.memory, &delta, self.cluster.configuration());
        trace.tracer.exit(span);
        trace.counters.delta_vms += delta.vms.len() as u64;
        trace.counters.delta_nodes += delta.node_capacities.len() as u64;
        trace.counters.full_observations += delta.full as u64;
        for vjob in &self.vjobs {
            if vjob.state == VjobState::Running && self.cluster.is_vjob_complete(vjob.id) {
                self.pending_completed.insert(vjob.id);
            }
        }
        trace.tracer.exit(stage);

        // 2. Decide.
        let stage = trace.tracer.enter("decide");
        let span = trace.tracer.enter("core.consolidation.decide");
        let decision = self
            .decision
            .decide(
                self.cluster.configuration(),
                &self.vjobs,
                &self.pending_completed,
            )
            .map_err(|e| format!("decision failed: {e}"))?;
        trace.tracer.exit(span);
        trace.counters.vjobs_seen += self.vjobs.len() as u64;
        let view_current = self.view.version == self.cluster.change_version();
        let viable = if view_current {
            self.view.overloaded_nodes().is_empty()
        } else {
            self.cluster.configuration().is_viable()
        };
        let needs_switch = decision.changes_anything(&self.vjobs) || !viable;

        if needs_switch {
            // 3. Plan.
            let span = trace.tracer.enter("core.optimizer.optimize");
            let outcome = if view_current {
                self.optimizer.optimize_incremental(
                    &mut self.memory,
                    &self.view,
                    self.cluster.configuration(),
                    &decision,
                    &self.vjobs,
                )
            } else {
                self.optimizer
                    .optimize(self.cluster.configuration(), &decision, &self.vjobs)
            }
            .map_err(|e| format!("optimization failed: {e}"))?;
            let optimize_ms = trace.tracer.exit(span);
            facts.decide_ms = trace.tracer.exit(stage);
            trace.counters.record_outcome(&outcome);
            trace.solver.record_outcome(&outcome);
            let replan_ms = replay_plan(
                trace,
                &self.optimizer.planner,
                self.cluster.configuration(),
                &outcome.target,
                &self.vjobs,
                &outcome.plan,
            );
            trace
                .optimizer_overhead_ms
                .push(optimize_ms - outcome.stats.elapsed_ms as f64 - replan_ms);

            // 4. Execute, then commit the vjob states the switch realized.
            let span = trace.tracer.enter("sim.executor.execute");
            let report = self.executor.execute(&mut self.cluster, &outcome.plan);
            trace.tracer.exit(span);
            let span = trace.tracer.enter("core.control_loop.commit");
            trace.counters.record_execution(&report);
            facts.plan_cost = outcome.cost.total;
            facts.switch_virtual_s = report.duration_secs;
            facts.actions = outcome.plan.stats().total_actions() as u64;
            facts.search_nodes = outcome.stats.nodes;
            facts.failed_actions = report.failed_actions.len() as u64;
            for event in &report.completed_vjobs {
                let ClusterEvent::VjobCompleted(id) = event;
                self.pending_completed.insert(*id);
            }
            let mut terminated = Vec::new();
            for vjob in &mut self.vjobs {
                if let Some(&wanted) = decision.vjob_states.get(&vjob.id) {
                    if wanted != vjob.state && vjob.state.can_transition_to(wanted) {
                        vjob.transition_to(wanted).expect("checked transition");
                        self.cluster.update_vjob(vjob);
                        if wanted == VjobState::Terminated {
                            self.pending_completed.remove(&vjob.id);
                            terminated.push(vjob.id);
                        }
                    }
                }
            }
            (facts.terminated, facts.turnaround_s) = turnaround(
                &self.submitted_at,
                &terminated,
                started_at + report.duration_secs,
            );
            trace.tracer.exit(span);
        } else {
            facts.decide_ms = trace.tracer.exit(stage);
        }

        // 5. Sleep until the next iteration.
        let span = trace.tracer.enter("sim.cluster.advance");
        let remaining = (PERIOD_SECS - facts.switch_virtual_s).max(0.0);
        let events = self.cluster.advance(remaining, &BTreeMap::new());
        trace.tracer.exit(span);
        for event in events {
            let ClusterEvent::VjobCompleted(id) = event;
            self.pending_completed.insert(id);
        }
        let span = trace.tracer.enter("sim.cluster.utilization");
        std::hint::black_box(self.cluster.utilization());
        trace.tracer.exit(span);

        facts.wall_ms = trace.tracer.exit(tick_span);
        Ok(facts)
    }

    fn all_terminated(&self) -> bool {
        self.vjobs.iter().all(|j| j.state == VjobState::Terminated)
    }

    fn end_state(&self) -> EndState {
        end_state(&self.cluster)
    }

    fn finish(&self, trace: &mut Trace) {
        let counters = &mut trace.counters;
        counters.model_patches += self.memory.model_patches;
        counters.model_set_diff_patches += self.memory.model_set_diff_patches;
        counters.model_rebuilds += self.memory.model_rebuilds;
        counters.vm_records_end += self.cluster.configuration().vm_count() as u64;
    }
}

/// A generated switch turned into the program's types.
pub struct PreparedSwitch {
    cluster: SimulatedCluster,
    target: Configuration,
    vjobs: Vec<Vjob>,
    wanted: Vec<(VmId, NodeId)>,
    /// Wall time of `SimulatedCluster::new` + `register_vjob`, milliseconds.
    pub build_ms: f64,
}

pub fn prepare_switch(input: &SwitchIn) -> PreparedSwitch {
    let mut factory = SpecFactory::default();
    let (source, specs) = build_configuration(&input.nodes, &input.vjobs, &mut factory);
    let mut target = source.clone();
    let wanted: Vec<(VmId, NodeId)> = input
        .target
        .iter()
        .map(|&(vm, node)| (VmId(vm), NodeId(node)))
        .collect();
    for &(vm, node) in &wanted {
        target
            .set_assignment(vm, VmAssignment::running(node))
            .expect("generated target placements fit their node");
    }
    let build_started = Instant::now();
    let mut cluster = SimulatedCluster::new(source);
    for spec in &specs {
        cluster.register_vjob(spec);
    }
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    PreparedSwitch {
        cluster,
        target,
        vjobs: specs.into_iter().map(|s| s.vjob).collect(),
        wanted,
        build_ms,
    }
}

/// Plan and execute one prepared switch, each call a span of one `tick`.
/// With `replay` the plan is also validated and its dependency graph derived
/// with the tick clock stopped, as in the loop workloads; without it nothing
/// but the two calls runs and only their spans are written to `trace`.  The
/// end state is only consistent when every VM also landed where the target
/// wanted it.
pub fn run_switch(
    mut prepared: PreparedSwitch,
    trace: &mut Trace,
    replay: bool,
) -> Result<(TickFacts, EndState), String> {
    let planner = Planner::new();
    let executor = PlanExecutor::new(SimulatedXenDriver::default());
    trace.tracer.next_tick();
    let tick_span = trace.tracer.enter("tick");

    let span = trace.tracer.enter("plan.planner.plan");
    let plan = planner
        .plan(
            prepared.cluster.configuration(),
            &prepared.target,
            &prepared.vjobs,
        )
        .map_err(|e| format!("planner failed: {e}"))?;
    let decide_ms = trace.tracer.exit(span);

    if replay {
        let source = prepared.cluster.configuration();
        validate_plan(trace, source, &plan);
        let (dependencies, _) = trace.tracer.replay("plan.dependencies.derive", || {
            PlanDependencies::derive(&plan, source)
        });
        trace
            .counters
            .record_plan(&plan.stats(), dependencies.edge_count());
    }

    let span = trace.tracer.enter("sim.executor.execute");
    let report = executor.execute(&mut prepared.cluster, &plan);
    trace.tracer.exit(span);
    let wall_ms = trace.tracer.exit(tick_span);
    if replay {
        trace.counters.record_execution(&report);
        trace.counters.vm_records_end += prepared.cluster.configuration().vm_count() as u64;
    }

    let mut end = end_state(&prepared.cluster);
    let configuration = prepared.cluster.configuration();
    end.consistent &= prepared
        .wanted
        .iter()
        .all(|&(vm, node)| configuration.host(vm) == Ok(Some(node)));
    let facts = TickFacts {
        wall_ms,
        decide_ms,
        plan_cost: ActionCostModel::paper().plan_cost(&plan).total,
        switch_virtual_s: report.duration_secs,
        actions: plan.stats().total_actions() as u64,
        failed_actions: report.failed_actions.len() as u64,
        ..TickFacts::default()
    };
    Ok((facts, end))
}
