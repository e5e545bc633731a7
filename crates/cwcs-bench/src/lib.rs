//! # cwcs-bench — experiment harness
//!
//! Shared scenario builders and reporting helpers used by the experiment
//! binaries (`src/bin/*.rs`: one per table or figure of the paper, except
//! `headline_completion_time`, which draws the §5.2 completion times and
//! Figures 11–13 from one Entropy run and one FCFS run), and the solver
//! kernel's instances ([`kernel`]), which the dependency-free
//! `solver_kernel` bench (driven by [`harness::BenchGroup`]) times and a
//! test pins.
//!
//! The two main scenarios are:
//!
//! * [`scenarios::cluster_experiment`] — the Section 5.2 setup: 11 working
//!   nodes (2 processing units, 3.5 GiB usable each) running 8 vjobs of 9
//!   NAS-Grid-like VMs with 512 MiB to 2 GiB of memory, submitted at the same
//!   time in a fixed order, which only `headline_completion_time` runs;
//! * [`scenarios::figure_10_point_with`] — one point of the Figure 10 sweep:
//!   a generated 200-node configuration with a target VM count, on which the
//!   FFD baseline and the CP optimizer both compute a reconfiguration plan.

pub mod harness;
pub mod kernel;
pub mod report;
pub mod scenarios;

pub use harness::BenchGroup;
pub use report::{
    deterministic_mode, env_usize, mean, percent_reduction, solve_budget, write_artifact,
    JsonObject,
};
pub use scenarios::{
    cluster_experiment, cluster_experiment_sized, entropy_run_with, figure_10_point_with,
    large_scale_netbound, large_scale_switch, large_scale_switch_surge, static_fcfs_run,
    streaming_scenario, ClusterScenario, Figure10Sample, LargeScaleScenario, StreamingScenario,
};
