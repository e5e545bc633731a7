//! The network-bound control loop at 500-node scale: memory and CPU are
//! plentiful, the per-node NIC is the scarce dimension.
//!
//! The scenario ([`cwcs_bench::large_scale_netbound`]) runs a 4-VM service
//! vjob on every node (600 Mbps of each 1 Gbps NIC taken) and submits 66
//! waiting transfer vjobs — 660 VMs that each push 200 Mbps, so only two fit
//! into a node's remaining bandwidth while CPU and memory would admit
//! dozens.  The boot is therefore a pure **network packing** problem: the
//! generalized resource stack (per-dimension capacities, reserved-demand
//! packing for boots, NIC-aware halo ranking) is what places it viably.
//!
//! The binary first prices the boot decision both ways — the First-Fit
//! baseline repacks the whole cluster from scratch (the "first completed
//! viable configuration" of the paper) while the Entropy-style repair
//! optimizer pins the healthy service VMs and boots the transfer VMs into
//! the NIC headroom — and asserts the repair plan is strictly cheaper.  It
//! then runs the complete observe → decide → solve → plan → execute loop to
//! completion and writes `BENCH_netbound.json`.  With `CWCS_DETERMINISTIC=1`
//! the solver runs under a fixed node budget and wall-clock fields are left
//! out, so two runs produce byte-identical artifacts.

use std::collections::BTreeSet;
use std::time::Instant;

use cwcs_bench::{
    deterministic_mode, env_usize, large_scale_netbound, solve_budget, write_artifact, JsonObject,
};
use cwcs_core::decision::DecisionModule;
use cwcs_core::{ControlLoop, ControlLoopConfig, FcfsConsolidation, OptimizerMode};

fn main() {
    let nodes = env_usize("CWCS_NB_NODES", 500) as u32;
    let transfer_vjobs = env_usize("CWCS_NB_TRANSFER", 66) as u32;
    let timeout_ms = env_usize("CWCS_SOLVER_TIMEOUT_MS", 5_000) as u64;
    let workers = env_usize("CWCS_SOLVER_WORKERS", 4).max(1);
    let deterministic = deterministic_mode();

    let scenario = large_scale_netbound(nodes, transfer_vjobs);

    let optimizer = solve_budget(timeout_ms, 5_000)
        .with_mode(OptimizerMode::repair())
        .with_workers(workers)
        .build_optimizer();

    // --- Price the boot both ways: FFD baseline vs Entropy repair ---------
    let mut boot_cluster = scenario.cluster();
    for spec in &scenario.specs {
        boot_cluster.register_vjob(spec);
    }
    boot_cluster.refresh_demands();
    let boot_config = boot_cluster.configuration().clone();
    let vjobs: Vec<cwcs_model::Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
    let decision = FcfsConsolidation::new()
        .decide(&boot_config, &vjobs, &BTreeSet::new())
        .expect("the boot decision succeeds");
    let ffd = optimizer
        .ffd_outcome(&boot_config, &decision, &vjobs)
        .expect("the FFD baseline packs the net-bound cluster");
    let entropy = optimizer
        .optimize(&boot_config, &decision, &vjobs)
        .expect("the repair optimizer packs the net-bound cluster");
    let boot_repair = entropy.repair.clone().expect("repair stats");
    let reduction = if ffd.cost.total == 0 {
        0.0
    } else {
        100.0 * (ffd.cost.total.saturating_sub(entropy.cost.total)) as f64 / ffd.cost.total as f64
    };
    assert!(
        entropy.cost.total < ffd.cost.total,
        "the repair pipeline must beat FFD on the network-scarce boot: \
         entropy {} vs ffd {}",
        entropy.cost.total,
        ffd.cost.total
    );
    assert!(!boot_repair.fell_back_to_full, "repair must not fall back");
    assert!(entropy.target.is_viable());

    // --- Run the full loop to completion ----------------------------------
    let config = ControlLoopConfig {
        period_secs: 30.0,
        optimizer,
        max_iterations: 1_000,
        ..Default::default()
    };
    let mut control = ControlLoop::new(
        scenario.cluster(),
        &scenario.specs,
        FcfsConsolidation::new(),
        config,
    );
    let wall = Instant::now();
    let report = control
        .run_until_complete()
        .expect("the network-bound loop completes");
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let completion = report
        .completion_time_secs
        .expect("every vjob terminates within the iteration bound");
    let switches: Vec<_> = report
        .iterations
        .iter()
        .filter(|it| it.performed_switch)
        .collect();
    let max_solve_ms = report
        .iterations
        .iter()
        .map(|it| it.solve.search_stats.elapsed_ms)
        .max()
        .unwrap_or(0);
    let total_actions: usize = report
        .iterations
        .iter()
        .map(|it| it.switch.plan_stats.total_actions())
        .sum();
    let peak_net_percent = report
        .utilization
        .iter()
        .map(|u| u.net_percent)
        .fold(0.0f64, f64::max);

    if !deterministic {
        assert!(
            max_solve_ms <= timeout_ms + 500,
            "a solve ran past the {timeout_ms} ms budget: {max_solve_ms} ms"
        );
    }

    let json = JsonObject::new()
        .string("benchmark", "large_scale_netbound")
        .string("optimizer_mode", "repair")
        .integer("nodes", scenario.configuration.node_count() as u64)
        .integer("vms", scenario.configuration.vm_count() as u64)
        .integer("vjobs", scenario.specs.len() as u64)
        .integer("transfer_vjobs", transfer_vjobs as u64)
        .integer("nic_mbps_per_node", 1000)
        .integer("solver_timeout_ms", timeout_ms)
        .integer("solver_workers", workers as u64)
        .integer("iterations", report.iterations.len() as u64)
        .integer("context_switches", switches.len() as u64)
        .integer("plan_actions_total", total_actions as u64)
        .number("completion_time_secs", completion)
        .integer("boot_subproblem_vms", boot_repair.movable_vms as u64)
        .integer("boot_pinned_vms", boot_repair.pinned_vms as u64)
        .integer("boot_candidate_nodes", boot_repair.candidate_nodes as u64)
        .boolean("boot_solve_proven", entropy.stats.completed)
        .integer(
            "boot_plan_actions",
            entropy.plan.stats().total_actions() as u64,
        )
        .integer("ffd_boot_cost", ffd.cost.total)
        .integer("entropy_boot_cost", entropy.cost.total)
        .number("net_cost_reduction_percent", reduction)
        .number("peak_net_percent", peak_net_percent)
        .number_unless("max_solve_ms", max_solve_ms as f64, deterministic)
        .number_unless("loop_wall_ms", wall_ms, deterministic);
    write_artifact("CWCS_NB_ARTIFACT", "BENCH_netbound.json", &json.render());
}
