//! The Section 5.2 experiment (§1's headline, Figures 11, 12 and 13): 8
//! vjobs of 9 NAS-Grid-like VMs on 11 nodes, run once under the static FCFS
//! allocation and once under Entropy's dynamic consolidation with
//! cluster-wide context switches.  Every number below comes from those two
//! runs.
//!
//! * **Completion times** — the artifact's first twelve keys.  The paper
//!   reports 250 minutes (FCFS) vs 150 minutes (Entropy), a ~40% reduction;
//!   absolute numbers depend on the workload classes, the shape is that
//!   Entropy finishes the same work substantially sooner (asserted here).
//! * **Figure 11** — cost and duration of each non-empty context switch,
//!   the artifact's `switch{i}_cost` / `switch{i}_duration_secs` pairs
//!   (numbered from 1), with their count and mean and the local share of the
//!   resumes.  The paper reports 19 switches of ~70 s on average and 21 of
//!   28 resumes local; switches that only run, stop or migrate VMs take
//!   seconds, those that suspend and resume VMs cost more and take minutes.
//! * **Figure 12** — the FCFS allocation diagram on stdout: one row per
//!   vjob with its start and end, in minutes.  Each vjob holds a static
//!   reservation (one processing unit and its full memory per VM) for its
//!   whole lifetime; vjobs start in submission order, never preempted.
//! * **Figure 13** — memory (GiB, 13a) and CPU demand of the running VMs
//!   relative to the cluster capacity (%, 13b — above 100 when the cluster
//!   is overloaded), one sample per minute, Entropy | FCFS, on stdout.
//!   Entropy keeps utilization higher early on and finishes sooner.
//!
//! The artifact is `BENCH_headline.json` (path overridable with
//! `CWCS_BENCH_ARTIFACT`).  `CWCS_OPT_TIMEOUT_MS` sets the optimizer's
//! wall-clock budget (default 500 ms); with `CWCS_DETERMINISTIC=1` a
//! 50 000-node budget replaces it and the artifact is byte-identical across
//! runs and machines.

use cwcs_bench::{
    cluster_experiment, entropy_run_with, env_usize, percent_reduction, solve_budget,
    static_fcfs_run, write_artifact, JsonObject,
};
use cwcs_sim::UtilizationSample;

/// Memory (GiB) and CPU (%) held by `samples` at `t`: the last sample at or
/// before it, nothing once the run has completed at `end`.
fn held_at(samples: &[UtilizationSample], end: f64, t: f64) -> (f64, f64) {
    if t > end {
        return (0.0, 0.0);
    }
    samples
        .iter()
        .rev()
        .find(|s| s.time_secs <= t)
        .or(samples.first())
        .map_or((0.0, 0.0), |s| (s.memory_gib, s.cpu_percent))
}

fn main() {
    let timeout_ms = env_usize("CWCS_OPT_TIMEOUT_MS", 500) as u64;
    let scenario = cluster_experiment(7);
    let fcfs = static_fcfs_run(&scenario);
    let optimizer = solve_budget(timeout_ms, 50_000).build_optimizer();
    let entropy = entropy_run_with(&scenario, optimizer);

    let fcfs_end = fcfs.completion_time_secs.expect("FCFS completes");
    let entropy_end = entropy.completion_time_secs.expect("Entropy completes");
    assert!(
        entropy_end < fcfs_end,
        "Entropy must complete before FCFS: {entropy_end} s vs {fcfs_end} s"
    );

    println!("Figure 12: FCFS allocation");
    println!("{:<8} {:>10} {:>10}", "vjob", "start(min)", "end(min)");
    for schedule in &fcfs.schedules {
        println!(
            "{:<8} {:>10.1} {:>10.1}",
            format!("vjob-{}", schedule.vjob.0),
            schedule.start_secs / 60.0,
            schedule.end_secs.unwrap_or(fcfs_end) / 60.0
        );
    }

    println!();
    println!("Figure 13: utilization (memory GiB, CPU % of capacity)");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12}",
        "min", "GiB Entropy", "GiB FCFS", "CPU% Entropy", "CPU% FCFS"
    );
    let horizon_min = (entropy_end.max(fcfs_end) / 60.0).floor() as u32;
    for minute in 0..=horizon_min {
        let t = f64::from(minute) * 60.0;
        let (entropy_mem, entropy_cpu) = held_at(&entropy.utilization, entropy_end, t);
        let (fcfs_mem, fcfs_cpu) = held_at(&fcfs.utilization, fcfs_end, t);
        println!(
            "{minute:>4} {entropy_mem:>12.1} {fcfs_mem:>12.1} {entropy_cpu:>12.1} {fcfs_cpu:>12.1}"
        );
    }
    println!();

    let (fcfs_minutes, entropy_minutes) = (fcfs_end / 60.0, entropy_end / 60.0);
    let switches = entropy.switch_points();
    let (local, resumes) = entropy
        .iterations
        .iter()
        .map(|i| &i.switch.plan_stats)
        .fold((0, 0), |(l, r), s| (l + s.local_resumes, r + s.resumes));
    let mut json = JsonObject::new()
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
        .integer("context_switches", switches.len() as u64)
        .number(
            "mean_switch_duration_secs",
            entropy.mean_switch_duration_secs(),
        )
        .integer("local_resumes", local as u64)
        .integer("total_resumes", resumes as u64);
    for (i, (cost, duration)) in switches.iter().enumerate() {
        json = json
            .integer(&format!("switch{}_cost", i + 1), *cost)
            .number(&format!("switch{}_duration_secs", i + 1), *duration);
    }
    write_artifact("CWCS_BENCH_ARTIFACT", "BENCH_headline.json", &json.render());
}
