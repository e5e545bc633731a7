//! # cwcs-plan — reconfiguration graphs, plans and the cost model
//!
//! A cluster-wide context switch is the transition from the *current*
//! configuration to a *target* configuration computed by the decision module.
//! This crate implements Section 4 of the paper:
//!
//! * [`action`] — the per-VM actions (run, stop, migrate, suspend, resume)
//!   with the resources they release and require;
//! * [`graph`] — the **reconfiguration graph**, the multigraph of actions
//!   between nodes, and per-action feasibility against a working
//!   configuration;
//! * [`planner`] — construction of the **reconfiguration plan**: iterative
//!   selection of feasible actions into *pools* executed sequentially,
//!   detection of inter-dependent (cyclic) migrations and their resolution
//!   with a **bypass migration** through a pivot node, and the vjob
//!   consistency pass that groups and pipelines the suspends and resumes of a
//!   same vjob;
//! * [`plan`] — the plan itself (pools of actions with pipeline offsets),
//!   step-by-step validation, and summary statistics;
//! * [`dependencies`] — per-action precedence edges recovered from a pooled
//!   plan (same-VM ordering plus the releases each action's destination node
//!   needs), the input of the event-driven executor in `cwcs-sim`;
//! * [`cost`] — the cost model of Table 1 and the plan cost used by the
//!   optimizer of `cwcs-core`.

pub mod action;
pub mod cost;
pub mod dependencies;
pub mod graph;
pub mod plan;
pub mod planner;

pub use action::Action;
pub use cost::{ActionCostModel, PlanCost};
pub use dependencies::{DependencyNode, PlanDependencies};
pub use graph::{ActionFeasibility, ReconfigurationGraph};
pub use plan::{PlanError, PlanStats, PlannedAction, Pool, ReconfigurationPlan};
pub use planner::{Planner, PlannerError};
