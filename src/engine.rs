//! The [`Engine`]: one typed entry point for the whole pipeline.
//!
//! The workspace crates each own one stage of Figure 4 of the paper —
//! `cwcs-sim` observes, `cwcs-core` decides and optimizes, `cwcs-plan`
//! plans, `cwcs-sim` executes — and the [`ControlLoop`] in `cwcs-core`
//! already chains them.  What was missing is a single façade that builds a
//! whole experiment (cluster, vjobs, tuning) without touching five crates:
//! that is the [`EngineBuilder`] / [`Engine`] pair.
//!
//! ```
//! use cluster_context_switch::Engine;
//! use cluster_context_switch::model::{CpuCapacity, MemoryMib, Node, NodeId, Vjob, VjobId, Vm, VmId};
//! use cluster_context_switch::workload::{VjobSpec, VmWorkProfile, WorkPhase};
//!
//! let vm = Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1));
//! let spec = VjobSpec::new(
//!     Vjob::new(VjobId(0), vec![VmId(0)], 0),
//!     vec![vm],
//!     vec![VmWorkProfile::new(vec![WorkPhase::compute(60.0)])],
//! );
//! let mut engine = Engine::builder()
//!     .node(Node::new(NodeId(0), CpuCapacity::cores(2), MemoryMib::gib(4)))
//!     .vjob(spec)
//!     .build()
//!     .expect("valid scenario");
//! let report = engine.run().expect("scenario completes");
//! assert!(report.completion_time_secs.is_some());
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use cwcs_core::control_loop::LoopError;
use cwcs_core::{
    BaselineReport, ControlLoop, ControlLoopConfig, FcfsConsolidation, RunReport,
    StaticFcfsBaseline,
};
use cwcs_model::{Configuration, ModelError, Node, Vjob};
use cwcs_sim::{ExecutionMode, SimulatedCluster};
use cwcs_workload::VjobSpec;

pub use cwcs_core::{ObservationConfig, ObservationMode, SolverConfig};

/// Errors raised while assembling an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A node or VM could not be registered (duplicate id, unknown host, …).
    Model(ModelError),
    /// The scenario has no nodes: nothing can ever run.
    NoNodes,
    /// The control period is not a finite number of seconds above zero: the
    /// virtual clock would never move forward (zero, negative or NaN) or
    /// jump straight to infinity.
    InvalidPeriod(f64),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "invalid scenario: {e}"),
            EngineError::NoNodes => write!(f, "invalid scenario: no nodes declared"),
            EngineError::InvalidPeriod(secs) => write!(
                f,
                "invalid control period: {secs} s (must be finite and above zero)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

/// Builder for [`Engine`]: declare the cluster, the vjobs and the control
/// parameters, then [`build`](EngineBuilder::build).
///
/// Solver tuning comes as one grouped config: [`solver`](EngineBuilder::solver)
/// takes a [`SolverConfig`] (timeout, optimizer mode, node budget, workers).
/// The engine observes with the default [`ObservationConfig`] (delta
/// observations, 10 s monitoring refresh) and executes context switches
/// event-driven; a loop that needs other settings is built from a
/// [`ControlLoopConfig`] directly.
///
/// Two things are deliberately not settable.  What a VM weighs when it is
/// packed is a rule ([`cwcs_core::packing_demand`]) shared by the decision
/// module and the optimizer, so admission and placement cannot be configured
/// apart.  And actions take the paper's measured durations
/// ([`cwcs_sim::DurationModel::paper`]): the simulated cluster (which sizes a
/// failed action's window) and the Xen driver the control loop builds (which
/// times every successful one) each hold that model, so a calibrated one is a
/// `benchmark`-round feature that has to reach both.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    nodes: Vec<Node>,
    specs: Vec<VjobSpec>,
    period_secs: f64,
    solver: SolverConfig,
    execution_mode: ExecutionMode,
    max_iterations: usize,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            nodes: Vec::new(),
            specs: Vec::new(),
            period_secs: 30.0,
            solver: SolverConfig::default().with_timeout(Duration::from_millis(500)),
            execution_mode: ExecutionMode::default(),
            max_iterations: 2_000,
        }
    }
}

impl EngineBuilder {
    /// Add one physical node.
    pub fn node(mut self, node: Node) -> Self {
        self.nodes.push(node);
        self
    }

    /// Add several physical nodes.
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = Node>) -> Self {
        self.nodes.extend(nodes);
        self
    }

    /// Submit one vjob (its VMs are registered with the cluster).
    pub fn vjob(mut self, spec: VjobSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Submit several vjobs.
    pub fn vjobs(mut self, specs: impl IntoIterator<Item = VjobSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Period between two control-loop iterations (30 s in the paper); it
    /// must be finite and above zero ([`EngineError::InvalidPeriod`]).
    pub fn period_secs(mut self, period_secs: f64) -> Self {
        self.period_secs = period_secs;
        self
    }

    /// Configure the solver stage: optimizer timeout, mode, deterministic
    /// node budget and portfolio workers, grouped in one
    /// [`SolverConfig`].
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Select how context switches are executed: event-driven (the default)
    /// or the paper's pool barriers.
    #[cfg(test)]
    pub(crate) fn execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.execution_mode = mode;
        self
    }

    /// Safety bound on the number of iterations of [`Engine::run`].
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Assemble the initial [`Configuration`] from the declared nodes and
    /// vjobs.  Two vjobs with one id are a `DuplicateVjob` error: the
    /// cluster tracks one vjob per id, so the second would run on the
    /// first's progress records.
    fn configuration(&self) -> Result<Configuration, EngineError> {
        if self.nodes.is_empty() {
            return Err(EngineError::NoNodes);
        }
        let mut configuration = Configuration::new();
        for node in &self.nodes {
            configuration.add_node(node.clone())?;
        }
        let mut vjob_ids = BTreeSet::new();
        for spec in &self.specs {
            if !vjob_ids.insert(spec.vjob.id) {
                return Err(ModelError::DuplicateVjob(spec.vjob.id).into());
            }
            for vm in &spec.vms {
                configuration.add_vm(vm.clone())?;
            }
        }
        Ok(configuration)
    }

    /// Build an engine driven by the paper's sample FCFS dynamic-consolidation
    /// decision module.
    pub fn build(self) -> Result<Engine, EngineError> {
        if !(self.period_secs.is_finite() && self.period_secs > 0.0) {
            return Err(EngineError::InvalidPeriod(self.period_secs));
        }
        let configuration = self.configuration()?;
        let cluster = SimulatedCluster::new(configuration.clone());
        let config = ControlLoopConfig {
            period_secs: self.period_secs,
            optimizer: self.solver.build_optimizer(),
            max_iterations: self.max_iterations,
            execution_mode: self.execution_mode,
            observation: ObservationConfig::default(),
        };
        let control = ControlLoop::new(cluster, &self.specs, FcfsConsolidation::new(), config);
        Ok(Engine {
            initial_configuration: configuration,
            specs: self.specs,
            control,
        })
    }
}

/// The unified observe → decide → plan → execute pipeline.
///
/// An `Engine` owns a simulated cluster, the submitted vjobs and an
/// Entropy-style control loop over them.  [`run`](Engine::run) iterates the
/// loop until every vjob terminated;
/// [`run_static_baseline`](Engine::run_static_baseline) replays the same
/// scenario under the paper's static FCFS allocation for comparisons.
pub struct Engine {
    initial_configuration: Configuration,
    specs: Vec<VjobSpec>,
    control: ControlLoop<FcfsConsolidation>,
}

impl Engine {
    /// Start describing a scenario.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Perform one observe → decide → plan → execute iteration.
    #[cfg(test)]
    pub(crate) fn step(&mut self) -> Result<cwcs_core::IterationReport, LoopError> {
        self.control.iterate()
    }

    /// Iterate until every vjob terminated (or the iteration bound is hit)
    /// and return the full report.
    pub fn run(&mut self) -> Result<RunReport, LoopError> {
        self.control.run_until_complete()
    }

    /// Replay the same scenario under the static FCFS allocation baseline
    /// (Figure 12), starting from the initial configuration.
    pub fn run_static_baseline(&self) -> BaselineReport {
        let cluster = SimulatedCluster::new(self.initial_configuration.clone());
        StaticFcfsBaseline::default().run(cluster, &self.specs)
    }

    /// The current vjob states.
    pub fn vjobs(&self) -> &[Vjob] {
        self.control.vjobs()
    }

    /// True once every vjob is terminated.
    pub fn all_terminated(&self) -> bool {
        self.control.all_terminated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NodeId, Vjob, VjobId, Vm, VmId};
    use cwcs_workload::{VmWorkProfile, WorkPhase};

    fn spec(vjob: u32, first_vm: u32, vm_count: u32, work_secs: f64) -> VjobSpec {
        let vm_ids: Vec<VmId> = (0..vm_count).map(|i| VmId(first_vm + i)).collect();
        let vms: Vec<Vm> = vm_ids
            .iter()
            .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
            .collect();
        let profiles = vms
            .iter()
            .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
            .collect();
        VjobSpec::new(Vjob::new(VjobId(vjob), vm_ids, vjob as u64), vms, profiles)
    }

    #[test]
    fn builder_rejects_empty_clusters() {
        match Engine::builder().build() {
            Err(err) => assert_eq!(err, EngineError::NoNodes),
            Ok(_) => panic!("an engine without nodes must be rejected"),
        }
    }

    #[test]
    fn builder_rejects_duplicate_vms() {
        let result = Engine::builder()
            .node(Node::new(
                NodeId(0),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .vjob(spec(0, 0, 2, 60.0))
            .vjob(spec(1, 1, 2, 60.0)) // VmId(1) clashes
            .build();
        assert!(matches!(result, Err(EngineError::Model(_))));
    }

    #[test]
    fn builder_rejects_duplicate_vjobs() {
        // Regression: a 60 s vjob sharing id 0 with a 600 s one used to be
        // accepted, and ran on the other's records for 600 s.
        let result = Engine::builder()
            .nodes((0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))))
            .vjob(spec(0, 0, 1, 600.0))
            .vjob(spec(0, 1, 1, 60.0))
            .build();
        match result {
            Err(err) => assert_eq!(
                err,
                EngineError::Model(ModelError::DuplicateVjob(VjobId(0)))
            ),
            Ok(_) => panic!("two vjobs with one id must be rejected"),
        }
    }

    #[test]
    fn builder_rejects_a_period_that_cannot_advance_the_clock() {
        // Zero, negative and NaN periods never move the clock forward; an
        // infinite one jumps it to infinity.
        for period in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let result = Engine::builder()
                .nodes(
                    (0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))),
                )
                .vjob(spec(0, 0, 2, 60.0))
                .vjob(spec(1, 2, 2, 60.0))
                .period_secs(period)
                .build();
            match result {
                Err(EngineError::InvalidPeriod(secs)) => {
                    assert_eq!(secs.to_bits(), period.to_bits(), "period {period}")
                }
                Err(err) => panic!("period {period}: wrong error {err}"),
                Ok(_) => panic!("period {period} must be rejected"),
            }
        }
    }

    #[test]
    fn engine_runs_a_small_scenario_to_completion() {
        let mut engine = Engine::builder()
            .nodes((0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))))
            .vjob(spec(0, 0, 2, 60.0))
            .vjob(spec(1, 2, 2, 60.0))
            .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
            .build()
            .unwrap();
        let report = engine.run().expect("completes");
        assert!(engine.all_terminated());
        assert!(report.completion_time_secs.is_some());
        assert!(!report.iterations.is_empty());
    }

    #[test]
    fn step_is_one_iteration() {
        let mut engine = Engine::builder()
            .node(Node::new(
                NodeId(0),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .vjob(spec(0, 0, 1, 60.0))
            .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
            .build()
            .unwrap();
        let first = engine.step().expect("first iteration");
        assert_eq!(first.iteration, 0);
        assert!(first.performed_switch, "first iteration starts the vjob");
        let second = engine.step().expect("second iteration");
        assert_eq!(second.iteration, 1);
    }

    #[test]
    fn solver_workers_race_and_report_the_portfolio() {
        let mut engine = Engine::builder()
            .nodes((0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))))
            .vjob(spec(0, 0, 2, 60.0))
            .vjob(spec(1, 2, 2, 60.0))
            .solver(
                SolverConfig::default()
                    .with_timeout(Duration::from_millis(200))
                    .with_workers(3),
            )
            .build()
            .unwrap();
        let first = engine.step().expect("first iteration");
        assert!(first.performed_switch);
        let portfolio = first
            .solve
            .portfolio_stats
            .as_ref()
            .expect("multi-worker solves report the race");
        assert_eq!(portfolio.workers.len(), 3);
        assert!(portfolio.winner.is_some());
        let report = engine.run().expect("completes");
        assert!(report.completion_time_secs.is_some());
    }

    #[test]
    fn execution_modes_both_complete_the_same_scenario() {
        let build = |mode| {
            Engine::builder()
                .nodes(
                    (0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))),
                )
                .vjob(spec(0, 0, 2, 60.0))
                .vjob(spec(1, 2, 2, 60.0))
                .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
                .execution_mode(mode)
                .build()
                .unwrap()
        };
        let event = build(ExecutionMode::EventDriven).run().unwrap();
        let barrier = build(ExecutionMode::PoolBarrier).run().unwrap();
        let event_t = event.completion_time_secs.unwrap();
        let barrier_t = barrier.completion_time_secs.unwrap();
        // The event engine can only shorten switches; completion never
        // regresses beyond one control period of slack.
        assert!(
            event_t <= barrier_t + 30.0,
            "event {event_t} vs barrier {barrier_t}"
        );
    }

    #[test]
    fn baseline_replays_the_same_scenario() {
        let mut engine = Engine::builder()
            .nodes((0..2).map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4))))
            .vjob(spec(0, 0, 2, 60.0))
            .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
            .build()
            .unwrap();
        let baseline = engine.run_static_baseline();
        assert!(baseline.completion_time_secs.is_some());
        // Running the baseline does not consume the engine.
        let report = engine.run().expect("completes");
        assert!(report.completion_time_secs.is_some());
    }
}
