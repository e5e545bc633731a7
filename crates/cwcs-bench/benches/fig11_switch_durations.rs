//! Bench for Figure 11: one full cluster-wide context switch (decision +
//! optimization + planning + execution) on a down-scaled version of the
//! Section 5.2 scenario, plus a printout of the (cost, duration) points of a
//! complete run.

use std::time::Duration;

use cwcs_bench::{cluster_experiment_sized, entropy_run, BenchGroup};
use cwcs_core::decision::DecisionModule;
use cwcs_core::{FcfsConsolidation, SolverConfig};
use cwcs_sim::{PlanExecutor, SimulatedXenDriver};

fn main() {
    let mut group = BenchGroup::new("fig11_context_switch");
    group.sample_size(10);

    // A 6-node, 4-vjob scenario: one full decide/optimize/plan/execute cycle.
    let scenario = cluster_experiment_sized(11, 6, 4);
    group.bench("decide_optimize_execute", || {
        let mut cluster = scenario.cluster();
        for spec in &scenario.specs {
            cluster.register_vjob(spec);
        }
        let vjobs: Vec<_> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
        let decision = FcfsConsolidation::new()
            .decide(cluster.configuration(), &vjobs, &Default::default())
            .expect("decision succeeds");
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(100))
            .build_optimizer();
        let outcome = optimizer
            .optimize(cluster.configuration(), &decision, &vjobs)
            .expect("optimization succeeds");
        PlanExecutor::new(SimulatedXenDriver::default()).execute(&mut cluster, &outcome.plan)
    });

    // Print the Figure 11 points from a short full run.
    let scenario = cluster_experiment_sized(11, 6, 4);
    let report = entropy_run(&scenario, Duration::from_millis(200));
    for (i, (cost, duration)) in report.switch_points().iter().enumerate() {
        println!(
            "fig11 switch {}: cost {}, duration {:.0} s",
            i + 1,
            cost,
            duration
        );
    }
    println!(
        "fig11 mean switch duration: {:.0} s over {} switches",
        report.mean_switch_duration_secs(),
        report.switch_points().len()
    );
}
