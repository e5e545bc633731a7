//! Large-scale context switch: the event-driven engine at the
//! thousand-action regime the ROADMAP targets.
//!
//! Builds a generated 500-node / ~4 500-VM cluster in which 100 fully packed
//! nodes are drained onto the rest of the cluster and the small-memory ones
//! are backfilled in place, plans the switch, and executes the same plan
//! with both engines:
//!
//! * the **pool-barrier** executor (the paper's sequential pools);
//! * the **event-driven** executor (per-action precedence, interval
//!   interference).
//!
//! The run asserts the event-driven invariants — switch duration ≤ barrier
//! duration, identical final configuration — and writes both makespans to
//! `BENCH_large_scale_switch.json` with the execute layer's work counters,
//! exact on any machine: the VM touches of each engine's cluster
//! (`SimulatedCluster::vm_touches`) and the events the event engine
//! processed (`ExecutionReport::events`).  A timed run adds the planner's
//! and each engine's wall time; `CWCS_DETERMINISTIC=1` leaves them out, and
//! that artifact is held byte for byte to its committed baseline by the
//! tier-1 `determinism` test.

use std::time::Instant;

use cwcs_bench::{deterministic_mode, env_usize, large_scale_switch, write_artifact, JsonObject};
use cwcs_model::Vjob;
use cwcs_plan::Planner;
use cwcs_sim::{ExecutionMode, PlanExecutor, SimulatedXenDriver};

fn main() {
    let nodes = env_usize("CWCS_LS_NODES", 500) as u32;
    let drained = env_usize("CWCS_LS_DRAINED", 100) as u32;

    let scenario = large_scale_switch(nodes, drained);

    let vjobs: Vec<Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
    let planning = Instant::now();
    let plan = Planner::new()
        .plan(&scenario.source, &scenario.target, &vjobs)
        .expect("the large-scale switch is plannable");
    let planning_ms = planning.elapsed().as_secs_f64() * 1e3;
    let stats = plan.stats();

    let mut results = Vec::new();
    for mode in [ExecutionMode::PoolBarrier, ExecutionMode::EventDriven] {
        let mut cluster = scenario.cluster();
        let executor = PlanExecutor::new(SimulatedXenDriver::default()).with_mode(mode);
        let wall = Instant::now();
        let report = executor.execute(&mut cluster, &plan);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(report.failed_actions.is_empty());
        results.push((report, cluster, wall_ms));
    }

    let (barrier_report, barrier_cluster, barrier_ms) = &results[0];
    let (event_report, event_cluster, event_ms) = &results[1];

    // The event-driven invariants at scale.
    assert!(
        event_report.duration_secs <= barrier_report.duration_secs + 1e-6,
        "event-driven ({:.1} s) must never exceed the barrier ({:.1} s)",
        event_report.duration_secs,
        barrier_report.duration_secs
    );
    assert_eq!(
        event_cluster.configuration(),
        barrier_cluster.configuration(),
        "both engines must reach the identical final configuration"
    );

    let deterministic = deterministic_mode();
    let json = JsonObject::new()
        .string("benchmark", "large_scale_switch")
        .integer("nodes", scenario.source.node_count() as u64)
        .integer("vms", scenario.source.vm_count() as u64)
        .integer("plan_actions", stats.total_actions() as u64)
        .number_unless("planning_ms", planning_ms, deterministic)
        .number("barrier_switch_secs", barrier_report.duration_secs)
        .number("event_switch_secs", event_report.duration_secs)
        .number_unless("barrier_wall_ms", *barrier_ms, deterministic)
        .number_unless("event_wall_ms", *event_ms, deterministic)
        .integer(
            "event_max_concurrency",
            event_report.timeline.max_concurrency() as u64,
        )
        .integer("event_vm_touches", event_cluster.vm_touches())
        .integer("barrier_vm_touches", barrier_cluster.vm_touches())
        .integer("event_events", event_report.events)
        .render();
    write_artifact("CWCS_LS_ARTIFACT", "BENCH_large_scale_switch.json", &json);
}
