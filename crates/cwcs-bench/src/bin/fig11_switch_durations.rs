//! Figure 11 — cost and duration of the cluster-wide context switches
//! performed while running the Section 5.2 experiment with the dynamic
//! consolidation decision module.
//!
//! One line per non-empty context switch: its plan cost (Table 1 model), its
//! duration, and the actions it performed.  The expected shape: switches that
//! only run/stop/migrate VMs are short (seconds); switches that suspend and
//! resume VMs cost more and take minutes.
//!
//! The switch points are written to `BENCH_fig11.json` (override with
//! `CWCS_FIG11_ARTIFACT`) and gated by `bench_check`.  With
//! `CWCS_DETERMINISTIC=1` the optimizer runs under a fixed search-node
//! budget (`CWCS_SOLVER_WORKERS` portfolio workers race in the
//! deterministic reduction mode) and the artifact is byte-identical across
//! runs: every recorded quantity is virtual-time simulation output.

use cwcs_bench::{
    cluster_experiment, deterministic_mode, entropy_run_with, env_usize, solve_budget,
    write_artifact, JsonObject,
};

fn main() {
    let timeout_ms = env_usize("CWCS_OPT_TIMEOUT_MS", 500) as u64;
    let workers = env_usize("CWCS_SOLVER_WORKERS", 1);
    let deterministic = deterministic_mode();
    let scenario = cluster_experiment(7);
    println!(
        "Figure 11: context switches of the cluster experiment (11 nodes, {} vjobs, {} VMs){}",
        scenario.specs.len(),
        scenario.configuration.vm_count(),
        if deterministic {
            " (deterministic)"
        } else {
            ""
        }
    );
    let solver = solve_budget(timeout_ms, 20_000).with_workers(workers);
    let report = entropy_run_with(&scenario, solver.build_optimizer());

    println!(
        "{:>6} {:>12} {:>12} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "switch", "cost", "duration(s)", "runs", "stops", "migrates", "suspends", "resumes"
    );
    let mut json = JsonObject::new()
        .string("benchmark", "fig11_switch_durations")
        .integer("nodes", scenario.configuration.node_count() as u64)
        .integer("vjobs", scenario.specs.len() as u64)
        .integer("vms", scenario.configuration.vm_count() as u64)
        .integer("optimizer_timeout_ms", timeout_ms)
        .integer("solver_workers", workers as u64);
    let mut index: u64 = 0;
    for iteration in &report.iterations {
        if !iteration.performed_switch || iteration.switch.plan_stats.total_actions() == 0 {
            continue;
        }
        index += 1;
        let cost = iteration
            .switch
            .plan_cost
            .as_ref()
            .map(|c| c.total)
            .unwrap_or(0);
        println!(
            "{:>6} {:>12} {:>12.0} {:>6} {:>6} {:>9} {:>9} {:>9}",
            index,
            cost,
            iteration.switch.duration_secs,
            iteration.switch.plan_stats.runs,
            iteration.switch.plan_stats.stops,
            iteration.switch.plan_stats.migrations,
            iteration.switch.plan_stats.suspends,
            iteration.switch.plan_stats.resumes
        );
        json = json.integer(&format!("switch{index}_cost"), cost).number(
            &format!("switch{index}_duration_secs"),
            iteration.switch.duration_secs,
        );
    }

    println!();
    println!(
        "{} context switches, mean duration {:.0} s (the paper reports 19 switches, ~70 s mean)",
        index,
        report.mean_switch_duration_secs()
    );
    let local: usize = report
        .iterations
        .iter()
        .map(|i| i.switch.plan_stats.local_resumes)
        .sum();
    let total: usize = report
        .iterations
        .iter()
        .map(|i| i.switch.plan_stats.resumes)
        .sum();
    if total > 0 {
        println!(
            "{}/{} resumes were local (the paper reports 21/28), thanks to the cost model",
            local, total
        );
    }
    if let Some(t) = report.completion_time_secs {
        println!("global completion time: {:.0} s ({:.0} min)", t, t / 60.0);
    }

    let json = json
        .integer("context_switches", index)
        .number(
            "mean_switch_duration_secs",
            report.mean_switch_duration_secs(),
        )
        .integer("local_resumes", local as u64)
        .integer("total_resumes", total as u64)
        .number(
            "completion_time_secs",
            report.completion_time_secs.unwrap_or(f64::NAN),
        )
        .render();
    write_artifact("CWCS_FIG11_ARTIFACT", "BENCH_fig11.json", &json);
}
