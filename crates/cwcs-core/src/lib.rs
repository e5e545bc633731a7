//! # cwcs-core — the Entropy-style control loop for cluster-wide context
//! switches
//!
//! This crate assembles the substrates of the workspace into the system the
//! paper describes (Section 3):
//!
//! * [`decision`] — the decision-module abstraction: from an observation of
//!   the cluster, compute the state every vjob should have at the next
//!   iteration;
//! * [`ffd`] — the First-Fit-Decreasing packing heuristic, written once and
//!   called by the sample decision module (to solve the Running Job
//!   Selection Problem), the baseline planner of Figure 10, the optimizer's
//!   incumbents and the static baseline;
//! * [`consolidation`] — the sample FCFS dynamic-consolidation decision
//!   module of Section 3.2;
//! * [`optimizer`] — the constraint-programming optimization of Section 4.3:
//!   among all the viable configurations with the requested vjob states, find
//!   one whose reconfiguration plan from the current configuration is as
//!   cheap as possible, within a time budget;
//! * [`control_loop`] — the observe / decide / plan / execute loop, running
//!   incrementally against the simulated cluster of `cwcs-sim`: each
//!   observation is a configuration snapshot diffed against the previous
//!   one, the [`ClusterView`](cwcs_sim::monitor::ClusterView) is the last
//!   snapshot, and the optimizer's
//!   [`SolverMemory`] carries the repair split from solve to solve;
//! * [`baseline`] — the static-allocation FCFS baseline of Section 5.2
//!   (Figure 12), used for the completion-time comparison of Figure 13.

pub mod baseline;
pub mod consolidation;
pub mod control_loop;
pub mod decision;
pub mod ffd;
pub mod optimizer;

pub use baseline::{BaselineReport, StaticFcfsBaseline, VjobSchedule};
pub use consolidation::FcfsConsolidation;
pub use control_loop::{
    ControlLoop, ControlLoopConfig, IterationReport, ObservationConfig, ObservationMode,
    ObservationReport, RunReport, SolveReport, SolverConfig, SwitchReport,
};
pub use decision::{Decision, DecisionError, DecisionModule, Transition};
pub use ffd::{packing_demand, FirstFitDecreasing, FreeCapacityIndex};
pub use optimizer::{
    OptimizedOutcome, OptimizerError, OptimizerMode, PlanOptimizer, RepairConfig, RepairStats,
    SolverMemory,
};
