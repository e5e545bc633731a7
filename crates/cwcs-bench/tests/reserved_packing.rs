//! Regression test of reserved-demand packing on the 500-node boot
//! sub-problem: the decision module used to pack waiting VMs by their
//! *observed* (zero) demand, so the 660-VM backfill boot crammed VMs onto
//! nodes with no processing units left and overloaded them for one control
//! iteration, until the demand showed up and a repair rebalance fixed it.
//! A boot is now budgeted by its creation-time reservation
//! (`cwcs_core::packing_demand`), so the optimized target must hold the
//! demand the VMs are about to develop — no transient overload, no rebalance.

use std::collections::BTreeSet;
use std::time::Duration;

use cwcs_bench::large_scale_switch;
use cwcs_core::decision::DecisionModule;
use cwcs_core::{FcfsConsolidation, OptimizerMode, SolverConfig};
use cwcs_model::{Configuration, NodeId, ResourceDemand, Vjob};

/// Per-node total of `reserved_demand` over the VMs running in `target` —
/// the demand the nodes will actually see once every booted application
/// starts.  Returns the overloaded nodes.
fn reserved_overloads(target: &Configuration) -> Vec<NodeId> {
    target
        .node_ids()
        .into_iter()
        .filter(|&node| {
            let capacity = target.node(node).unwrap().capacity();
            let developed: ResourceDemand = target
                .vms_on(node)
                .into_iter()
                .map(|vm| target.vm(vm).unwrap().reserved_demand())
                .sum();
            !developed.fits_in(&capacity)
        })
        .collect()
}

/// The 660-VM boot decision of the 500-node scenario, with the waiting VMs'
/// observed demands zeroed the way the monitoring service reports them.
fn boot_problem() -> (Configuration, Vec<Vjob>) {
    let scenario = large_scale_switch(500, 100);
    let mut cluster = scenario.cluster();
    // The monitor observes: running VMs compute (a full unit), waiting VMs
    // report nothing.  This is what zeroes the backfill VMs' demands.
    cluster.refresh_demands();
    let config = cluster.configuration().clone();
    let vjobs: Vec<Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
    (config, vjobs)
}

fn optimize() -> Configuration {
    let (config, vjobs) = boot_problem();
    let decision = FcfsConsolidation::new()
        .decide(&config, &vjobs, &BTreeSet::new())
        .expect("the boot decision succeeds");
    let optimizer = SolverConfig::default()
        .with_timeout(Duration::from_secs(30))
        .with_mode(OptimizerMode::repair())
        .with_node_limit(5_000)
        .build_optimizer();
    let outcome = optimizer
        .optimize(&config, &decision, &vjobs)
        .expect("the boot placement solves");
    let repair = outcome.repair.expect("repair stats");
    assert_eq!(repair.movable_vms, 660, "the 660 backfill VMs are movable");
    assert!(!repair.fell_back_to_full);
    assert!(outcome.target.is_viable(), "viable on observed demands");
    outcome.target
}

#[test]
fn reserved_packing_boots_without_transient_overload() {
    let target = optimize();
    let overloaded = reserved_overloads(&target);
    assert!(
        overloaded.is_empty(),
        "reserved packing must leave room for the demand the boots develop; \
         overloaded nodes: {overloaded:?}"
    );
}
