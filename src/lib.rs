//! # cluster-context-switch — facade crate
//!
//! Re-exports the crates of the workspace under one roof so that examples,
//! integration tests and downstream users can depend on a single crate.
//!
//! * [`model`] — nodes, VMs, vjobs, configurations, viability.
//! * [`solver`] — the finite-domain constraint-programming solver.
//! * [`plan`] — reconfiguration graphs, plans, pools and the cost model.
//! * [`sim`] — the discrete-event cluster simulator and its drivers.
//! * [`workload`] — NAS-Grid-like workloads and batch-scheduler baselines.
//! * [`core`] — the Entropy-style control loop, decision modules and the
//!   constraint-programming plan optimizer.
//!
//! The [`Engine`] ties them together: declare a cluster and a set of vjobs
//! with [`Engine::builder`], then [`Engine::run`] drives the full
//! observe → decide → plan → execute loop and returns a
//! [`RunReport`](cwcs_core::RunReport).
//!
//! See `examples/quickstart.rs` for a guided tour.

pub mod engine;

pub use cwcs_core as core;
pub use cwcs_model as model;
pub use cwcs_plan as plan;
pub use cwcs_sim as sim;
pub use cwcs_solver as solver;
pub use cwcs_workload as workload;

pub use cwcs_core::{
    ObservationConfig, ObservationMode, OptimizerMode, RepairConfig, RepairStats, SolverConfig,
};
pub use engine::{Engine, EngineBuilder, EngineError};
