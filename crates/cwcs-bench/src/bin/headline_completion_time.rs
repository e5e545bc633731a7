//! Headline result (§1 and §5.2): the overall completion time of the
//! virtualized jobs with a static FCFS allocation vs Entropy's dynamic
//! consolidation with cluster-wide context switches, plus the mean duration
//! of the switches.
//!
//! The paper reports 250 minutes (FCFS) vs 150 minutes (Entropy), a ~40%
//! reduction, with an average context-switch duration around 70 seconds.
//! Absolute numbers depend on the workload classes; the shape to verify is
//! that Entropy finishes the same work substantially sooner while every
//! context switch stays far below the job durations.

use cwcs_bench::{
    cluster_experiment, entropy_run_with, env_usize, percent_reduction, solve_budget,
    static_fcfs_run, write_artifact, JsonObject,
};

fn main() {
    let timeout_ms = env_usize("CWCS_OPT_TIMEOUT_MS", 500) as u64;
    let scenario = cluster_experiment(7);
    println!(
        "Headline experiment: {} vjobs ({} VMs) on {} nodes",
        scenario.specs.len(),
        scenario.configuration.vm_count(),
        scenario.configuration.node_count()
    );

    let fcfs = static_fcfs_run(&scenario);
    let optimizer = solve_budget(timeout_ms, 50_000).build_optimizer();
    let entropy = entropy_run_with(&scenario, optimizer);

    let fcfs_minutes = fcfs.completion_time_secs.expect("FCFS completes") / 60.0;
    let entropy_minutes = entropy.completion_time_secs.expect("Entropy completes") / 60.0;

    println!();
    println!("{:<38} {:>10}", "metric", "value");
    println!(
        "{:<38} {:>10.1}",
        "FCFS completion time (min)", fcfs_minutes
    );
    println!(
        "{:<38} {:>10.1}",
        "Entropy completion time (min)", entropy_minutes
    );
    println!(
        "{:<38} {:>9.1}%",
        "completion-time reduction",
        percent_reduction(fcfs_minutes, entropy_minutes)
    );
    println!(
        "{:<38} {:>10}",
        "context switches performed",
        entropy.switch_points().len()
    );
    println!(
        "{:<38} {:>10.1}",
        "mean switch duration (s)",
        entropy.mean_switch_duration_secs()
    );
    let local: usize = entropy
        .iterations
        .iter()
        .map(|i| i.switch.plan_stats.local_resumes)
        .sum();
    let resumes: usize = entropy
        .iterations
        .iter()
        .map(|i| i.switch.plan_stats.resumes)
        .sum();
    println!(
        "{:<38} {:>7}/{}",
        "local resumes / total resumes", local, resumes
    );

    println!();
    println!(
        "paper reference: 250 min (FCFS) vs 150 min (Entropy), ~40% reduction, ~70 s mean switch."
    );

    // Emit the machine-readable artifact so the perf trajectory of the repo
    // is recorded run over run.  Path overridable for CI artifact layouts.
    let json = JsonObject::new()
        .string("benchmark", "headline_completion_time")
        .integer("nodes", scenario.configuration.node_count() as u64)
        .integer("vjobs", scenario.specs.len() as u64)
        .integer("vms", scenario.configuration.vm_count() as u64)
        .integer("optimizer_timeout_ms", timeout_ms)
        .number("fcfs_completion_min", fcfs_minutes)
        .number("entropy_completion_min", entropy_minutes)
        .number(
            "completion_reduction_percent",
            percent_reduction(fcfs_minutes, entropy_minutes),
        )
        .integer("context_switches", entropy.switch_points().len() as u64)
        .number(
            "mean_switch_duration_secs",
            entropy.mean_switch_duration_secs(),
        )
        .integer("local_resumes", local as u64)
        .integer("total_resumes", resumes as u64)
        .render();
    write_artifact("CWCS_BENCH_ARTIFACT", "BENCH_headline.json", &json);
}
