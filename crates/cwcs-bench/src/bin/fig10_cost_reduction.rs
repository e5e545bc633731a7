//! Figure 10 — reconfiguration cost for generated 200-node configurations:
//! First-Fit Decreasing vs Entropy (CP optimization).
//!
//! The paper sweeps the number of VMs from 54 to 486 on 200 nodes, draws 30
//! samples per point, gives the optimizer 40 seconds and reports an average
//! cost reduction of ~95%.  The full sweep takes a long time; by default this
//! binary runs a reduced sweep (fewer samples, shorter timeout) that shows
//! the same shape.  Environment variables scale it up or down:
//!
//! * `CWCS_FIG10_SAMPLES` — samples per VM count (default 3, paper 30)
//! * `CWCS_FIG10_TIMEOUT_MS` — optimizer budget in ms (default 2000, paper 40000)
//! * `CWCS_FIG10_NODES` — node count (default 200, like the paper)
//! * `CWCS_FIG10_MAX_VMS` — sweep upper bound (default 486, like the paper)
//! * `CWCS_SOLVER_WORKERS` — portfolio workers per solve (default 1)
//!
//! The sweep (one mean FFD cost, Entropy cost and reduction per VM count
//! with at least one sample) is written to `BENCH_fig10.json` (override with
//! `CWCS_FIG10_ARTIFACT`).  With `CWCS_DETERMINISTIC=1` the optimizer runs
//! under a fixed search-node budget instead of the wall-clock timeout, so
//! the artifact is byte-identical across runs and machines and the
//! `determinism` test holds it to its committed baseline.

use cwcs_bench::{
    env_usize, figure_10_point_with, mean, percent_reduction, solve_budget, write_artifact,
    JsonObject,
};

fn main() {
    let samples = env_usize("CWCS_FIG10_SAMPLES", 3);
    let timeout_ms = env_usize("CWCS_FIG10_TIMEOUT_MS", 2_000);
    let nodes = env_usize("CWCS_FIG10_NODES", 200) as u32;
    let max_vms = env_usize("CWCS_FIG10_MAX_VMS", 486);
    let workers = env_usize("CWCS_SOLVER_WORKERS", 1).max(1);

    // Deterministic: the sweep's costs become a pure function of the seeds.
    let solver = solve_budget(timeout_ms as u64, 2_000).with_workers(workers);
    let optimizer = solver.build_optimizer();

    let mut json = JsonObject::new()
        .string("benchmark", "fig10_cost_reduction")
        .integer("nodes", nodes as u64)
        .integer("samples", samples as u64)
        .integer("optimizer_timeout_ms", timeout_ms as u64)
        .integer("solver_workers", workers as u64);
    let mut reductions = Vec::new();
    for vm_target in (54..=max_vms).step_by(54) {
        let mut ffd_costs = Vec::new();
        let mut entropy_costs = Vec::new();
        for sample in 0..samples as u64 {
            if let Some(point) = figure_10_point_with(vm_target, sample, optimizer.clone(), nodes) {
                ffd_costs.push(point.ffd_cost as f64);
                entropy_costs.push(point.entropy_cost as f64);
            }
        }
        if ffd_costs.is_empty() {
            continue;
        }
        let ffd = mean(&ffd_costs);
        let entropy = mean(&entropy_costs);
        let reduction = percent_reduction(ffd, entropy);
        reductions.push(reduction);
        json = json
            .number(&format!("vms_{vm_target}_ffd_cost"), ffd)
            .number(&format!("vms_{vm_target}_entropy_cost"), entropy)
            .number(&format!("vms_{vm_target}_reduction_percent"), reduction);
    }

    let json = json
        .integer("sweep_points", reductions.len() as u64)
        .number("avg_reduction_percent", mean(&reductions))
        .render();
    write_artifact("CWCS_FIG10_ARTIFACT", "BENCH_fig10.json", &json);
}
