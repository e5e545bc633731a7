//! Integration tests spanning every crate of the workspace: model →
//! workload → decision → optimization → planning → simulated execution.

use std::collections::BTreeSet;
use std::time::Duration;

use cluster_context_switch::core::decision::DecisionModule;
use cluster_context_switch::core::FcfsConsolidation;
use cluster_context_switch::model::{
    Configuration, CpuCapacity, MemoryMib, Node, NodeId, Vjob, VjobId, VjobState, Vm, VmId, VmState,
};
use cluster_context_switch::plan::{ActionCostModel, Planner, ReconfigurationPlan};
use cluster_context_switch::sim::{
    ExecutionMode, PlanExecutor, SimulatedCluster, SimulatedXenDriver,
};
use cluster_context_switch::workload::{
    GeneratorParams, NasGridClass, NasGridKind, NasGridTemplate, TraceGenerator, VjobSpec,
    VjobTemplate, VmWorkProfile, WorkPhase,
};
use cluster_context_switch::{Engine, SolverConfig};

/// Build a cluster of `nodes` paper nodes and `vjobs` vjobs of `vms` busy VMs
/// computing for `work_secs`.
fn scenario(nodes: u32, vjobs: u32, vms: u32, work_secs: f64) -> (Vec<Node>, Vec<VjobSpec>) {
    let nodes: Vec<Node> = (0..nodes)
        .map(|i| Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4)))
        .collect();
    let mut specs = Vec::new();
    let mut next = 0u32;
    for j in 0..vjobs {
        let vm_ids: Vec<VmId> = (0..vms)
            .map(|_| {
                let id = VmId(next);
                next += 1;
                id
            })
            .collect();
        let vm_objects: Vec<Vm> = vm_ids
            .iter()
            .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
            .collect();
        let vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
        let profiles = vm_objects
            .iter()
            .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
            .collect();
        specs.push(VjobSpec::new(vjob, vm_objects, profiles));
    }
    (nodes, specs)
}

/// Materialize the initial configuration of a `scenario`.
fn configuration_of(nodes: &[Node], specs: &[VjobSpec]) -> Configuration {
    let mut configuration = Configuration::new();
    for node in nodes {
        configuration.add_node(node.clone()).unwrap();
    }
    for spec in specs {
        for vm in &spec.vms {
            configuration.add_vm(vm.clone()).unwrap();
        }
    }
    configuration
}

#[test]
fn full_pipeline_decide_optimize_plan_execute() {
    let (nodes, specs) = scenario(3, 2, 3, 120.0);
    let configuration = configuration_of(&nodes, &specs);
    let vjobs: Vec<Vjob> = specs.iter().map(|s| s.vjob.clone()).collect();
    let mut cluster = SimulatedCluster::new(configuration);
    for spec in &specs {
        cluster.register_vjob(spec);
    }

    // Decide.
    let decision = FcfsConsolidation::new()
        .decide(cluster.configuration(), &vjobs, &BTreeSet::new())
        .unwrap();
    let running = decision.vjob_states.values();
    let running = running.filter(|&&state| state == VjobState::Running);
    assert_eq!(running.count(), 2, "everything fits");

    // Optimize + plan.
    let optimizer = SolverConfig::default()
        .with_timeout(Duration::from_millis(500))
        .build_optimizer();
    let outcome = optimizer
        .optimize(cluster.configuration(), &decision, &vjobs)
        .unwrap();
    assert!(outcome.target.is_viable());
    assert_eq!(outcome.plan.stats().runs, 6);

    // Execute on the simulator.
    let report =
        PlanExecutor::new(SimulatedXenDriver::default()).execute(&mut cluster, &outcome.plan);
    assert!(report.failed_actions.is_empty());
    assert_eq!(
        cluster.configuration().vms_in_state(VmState::Running).len(),
        6
    );
    // Booting 6 VMs in parallel takes one boot duration.
    assert!((report.duration_secs - 6.0).abs() < 1e-6);
}

#[test]
fn control_loop_matches_baseline_semantics() {
    // On an uncontended cluster, Entropy and static FCFS complete the same
    // work; Entropy must never be slower by more than the context-switch
    // overhead.
    let (nodes, specs) = scenario(4, 2, 3, 90.0);
    let mut engine = Engine::builder()
        .nodes(nodes)
        .vjobs(specs)
        .period_secs(30.0)
        .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
        .max_iterations(100)
        .build()
        .unwrap();
    let fcfs = engine.run_static_baseline();
    let entropy = engine.run().unwrap();

    let entropy_t = entropy.completion_time_secs.unwrap();
    let fcfs_t = fcfs.completion_time_secs.unwrap();
    assert!(
        entropy_t <= fcfs_t + 90.0,
        "entropy {entropy_t} vs fcfs {fcfs_t}"
    );
}

#[test]
fn repair_mode_completes_a_contended_scenario_like_full_mode() {
    // 2 nodes / 3 vjobs of 2 busy VMs: overloaded, so the loop suspends and
    // later resumes vjobs.  Repair mode must finish the same work as the
    // full re-solve, through the public Engine facade.
    let run = |mode: cluster_context_switch::OptimizerMode| {
        let (nodes, specs) = scenario(2, 3, 2, 60.0);
        let mut engine = Engine::builder()
            .nodes(nodes)
            .vjobs(specs)
            .period_secs(30.0)
            .solver(
                SolverConfig::default()
                    .with_timeout(Duration::from_secs(60))
                    .with_node_limit(20_000)
                    .with_mode(mode),
            )
            .max_iterations(100)
            .build()
            .unwrap();
        let report = engine.run().unwrap();
        assert!(engine.all_terminated());
        report.completion_time_secs.unwrap()
    };
    let full = run(cluster_context_switch::OptimizerMode::Full);
    let repair = run(cluster_context_switch::OptimizerMode::repair());
    assert!(
        (full - repair).abs() < 1e-6,
        "full {full} vs repair {repair}: same decisions, same completion"
    );
}

#[test]
fn contended_cluster_entropy_beats_static_fcfs() {
    // 1 node (2 units), 3 vjobs of 2 VMs each whose compute phases alternate
    // with idle phases: the static allocation serializes the vjobs while the
    // consolidation interleaves them.
    let mut specs = Vec::new();
    let mut next = 0u32;
    for j in 0..3u32 {
        let vm_ids: Vec<VmId> = (0..2)
            .map(|_| {
                let id = VmId(next);
                next += 1;
                id
            })
            .collect();
        let vms: Vec<Vm> = vm_ids
            .iter()
            .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::percent(10)))
            .collect();
        let vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
        // A compute burst followed by a long idle tail: under a static
        // allocation each vjob holds both processing units for its whole
        // lifetime, while consolidation overlaps the idle tails.  The phases
        // are long enough for the context-switch costs to amortize.
        let profiles = vms
            .iter()
            .map(|_| {
                VmWorkProfile::new(vec![
                    WorkPhase::compute(300.0),
                    // Fully idle tail (zero demand) so another vjob can share
                    // the processing units, like the gray-free VMs of Fig. 6.
                    WorkPhase {
                        cpu_demand: CpuCapacity::ZERO,
                        net_demand: cluster_context_switch::model::NetBandwidth::ZERO,
                        duration_secs: 600.0,
                    },
                ])
            })
            .collect();
        specs.push(VjobSpec::new(vjob, vms, profiles));
    }

    let mut engine = Engine::builder()
        .node(Node::new(
            NodeId(0),
            CpuCapacity::cores(2),
            MemoryMib::gib(8),
        ))
        .vjobs(specs)
        .period_secs(30.0)
        .solver(SolverConfig::default().with_timeout(Duration::from_millis(200)))
        .max_iterations(200)
        .build()
        .unwrap();
    let fcfs = engine.run_static_baseline();
    let entropy = engine.run().unwrap();

    let fcfs_t = fcfs.completion_time_secs.unwrap();
    let entropy_t = entropy.completion_time_secs.unwrap();
    assert!(
        entropy_t < fcfs_t,
        "dynamic consolidation ({entropy_t} s) must beat static allocation ({fcfs_t} s)"
    );
}

#[test]
fn generated_configurations_can_be_optimized_end_to_end() {
    // A Figure 10 style instance, downsized: generate, decide, optimize, and
    // check the Entropy plan is at most as expensive as the FFD plan.
    let params = GeneratorParams {
        node_count: 30,
        ..GeneratorParams::figure_10(54, 5)
    };
    let generated = TraceGenerator::new(params).generate();
    let decision = FcfsConsolidation::new()
        .decide(&generated.configuration, &generated.vjobs, &BTreeSet::new())
        .unwrap();
    let optimizer = SolverConfig::default()
        .with_timeout(Duration::from_millis(500))
        .build_optimizer();
    let ffd = optimizer
        .ffd_outcome(&generated.configuration, &decision, &generated.vjobs)
        .unwrap();
    let entropy = optimizer
        .optimize(&generated.configuration, &decision, &generated.vjobs)
        .unwrap();
    assert!(entropy.cost.total <= ffd.cost.total);
    // Both plans are executable from the generated configuration.
    ffd.plan.validate(&generated.configuration).unwrap();
    entropy.plan.validate(&generated.configuration).unwrap();
}

#[test]
fn nasgrid_vjobs_run_to_completion_under_the_control_loop() {
    // 6 dual-core nodes: enough processing units for a 9-VM ED vjob to run
    // entirely (a vjob whose instantaneous demand exceeds the whole cluster
    // could never be placed viably, by the paper's own definition).
    let mut factory = VjobTemplate::new(3);
    let templates = [
        NasGridTemplate {
            kind: NasGridKind::Ed,
            class: NasGridClass::W,
            vm_count: 9,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: cluster_context_switch::model::NetBandwidth::ZERO,
        },
        NasGridTemplate {
            kind: NasGridKind::Hc,
            class: NasGridClass::W,
            vm_count: 9,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: cluster_context_switch::model::NetBandwidth::ZERO,
        },
    ];
    let specs: Vec<VjobSpec> = templates.iter().map(|t| factory.instantiate(t)).collect();
    let mut engine = Engine::builder()
        .nodes((0..6).map(|i| Node::paper_cluster_node(NodeId(i))))
        .vjobs(specs)
        .period_secs(30.0)
        .solver(SolverConfig::default().with_timeout(Duration::from_millis(300)))
        .max_iterations(500)
        .build()
        .unwrap();
    let report = engine.run().unwrap();
    assert!(report.completion_time_secs.is_some());
    assert!(engine
        .vjobs()
        .iter()
        .all(|j| j.state == VjobState::Terminated));
}

#[test]
fn planner_and_executor_agree_on_final_configuration() {
    // Whatever plan the planner builds, executing it on the simulator leads
    // to exactly the configuration the plan validation predicts.
    let (nodes, specs) = scenario(3, 2, 2, 60.0);
    let configuration = configuration_of(&nodes, &specs);
    let vjobs: Vec<Vjob> = specs.iter().map(|s| s.vjob.clone()).collect();
    let decision = FcfsConsolidation::new()
        .decide(&configuration, &vjobs, &BTreeSet::new())
        .unwrap();
    let optimizer = SolverConfig::default()
        .with_timeout(Duration::from_millis(300))
        .build_optimizer();
    let outcome = optimizer
        .optimize(&configuration, &decision, &vjobs)
        .unwrap();

    let predicted = outcome.plan.validate(&configuration).unwrap();

    let mut cluster = SimulatedCluster::new(configuration);
    for spec in &specs {
        cluster.register_vjob(spec);
    }
    PlanExecutor::new(SimulatedXenDriver::default()).execute(&mut cluster, &outcome.plan);
    for vm in predicted.vm_ids() {
        assert_eq!(
            predicted.assignment(vm).unwrap(),
            cluster.configuration().assignment(vm).unwrap(),
            "{vm} differs between prediction and execution"
        );
    }
}

#[test]
fn cost_model_prefers_plans_with_fewer_movements() {
    // Moving one VM must always cost less than moving two comparable VMs.
    let mut configuration = Configuration::new();
    for i in 0..4 {
        configuration
            .add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
    }
    for i in 0..2 {
        configuration
            .add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        configuration
            .set_assignment(
                VmId(i),
                cluster_context_switch::model::VmAssignment::running(NodeId(i)),
            )
            .unwrap();
    }
    let planner = Planner::new();
    let cost_model = ActionCostModel::paper();

    let mut move_one = configuration.clone();
    move_one
        .set_assignment(
            VmId(0),
            cluster_context_switch::model::VmAssignment::running(NodeId(2)),
        )
        .unwrap();
    let mut move_two = move_one.clone();
    move_two
        .set_assignment(
            VmId(1),
            cluster_context_switch::model::VmAssignment::running(NodeId(3)),
        )
        .unwrap();

    let plan_one = planner.plan(&configuration, &move_one, &[]).unwrap();
    let plan_two = planner.plan(&configuration, &move_two, &[]).unwrap();
    assert!(cost_model.plan_cost(&plan_one).total < cost_model.plan_cost(&plan_two).total);
}

/// Execute `plan` from `source` with both engines and assert the event-driven
/// invariants: switch duration ≤ barrier duration, identical final
/// configuration.  Returns the two durations.
fn assert_event_never_slower(
    label: &str,
    source: &Configuration,
    plan: &ReconfigurationPlan,
) -> (f64, f64) {
    let mut barrier_cluster = SimulatedCluster::new(source.clone());
    let barrier = PlanExecutor::new(SimulatedXenDriver::default())
        .with_mode(ExecutionMode::PoolBarrier)
        .execute(&mut barrier_cluster, plan);
    let mut event_cluster = SimulatedCluster::new(source.clone());
    let event = PlanExecutor::new(SimulatedXenDriver::default())
        .with_mode(ExecutionMode::EventDriven)
        .execute(&mut event_cluster, plan);
    assert!(
        event.duration_secs <= barrier.duration_secs + 1e-6,
        "{label}: event-driven switch ({} s) exceeds the pool barrier ({} s)",
        event.duration_secs,
        barrier.duration_secs
    );
    assert_eq!(
        event_cluster.configuration(),
        barrier_cluster.configuration(),
        "{label}: the engines reach different final configurations"
    );
    (event.duration_secs, barrier.duration_secs)
}

#[test]
fn event_driven_switches_never_exceed_the_barrier_on_bench_scenarios() {
    // Sweep every bench scenario family: for each context switch the control
    // loop would perform, the event-driven engine must be at least as fast as
    // the pool barrier and end in the identical configuration.

    // 1. Cluster-experiment (§5.2) switches, several seeds and sizes.
    for (seed, nodes, vjobs) in [(3u64, 6u32, 2usize), (7, 11, 4), (11, 8, 3)] {
        let scenario = cwcs_bench::cluster_experiment_sized(seed, nodes, vjobs);
        let vjobs_list: Vec<Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
        let decision = FcfsConsolidation::new()
            .decide(&scenario.configuration, &vjobs_list, &BTreeSet::new())
            .unwrap();
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(300))
            .build_optimizer();
        let outcome = optimizer
            .optimize(&scenario.configuration, &decision, &vjobs_list)
            .unwrap();
        assert_event_never_slower(
            &format!("cluster_experiment seed {seed}"),
            &scenario.configuration,
            &outcome.plan,
        );
    }

    // 2. Figure 10 style generated instances.
    for seed in [2u64, 7, 19] {
        let params = GeneratorParams {
            node_count: 25,
            ..GeneratorParams::figure_10(45, seed)
        };
        let generated = TraceGenerator::new(params).generate();
        let decision = FcfsConsolidation::new()
            .decide(&generated.configuration, &generated.vjobs, &BTreeSet::new())
            .unwrap();
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(300))
            .build_optimizer();
        let outcome = optimizer
            .optimize(&generated.configuration, &decision, &generated.vjobs)
            .unwrap();
        assert_event_never_slower(
            &format!("figure_10 seed {seed}"),
            &generated.configuration,
            &outcome.plan,
        );
    }

    // 3. A downsized large-scale drain-and-backfill switch, where the event
    // engine must be strictly faster: each backfill run waits only for the
    // migrations draining its own node, not for the globally slowest one.
    let scenario = cwcs_bench::large_scale_switch(40, 8);
    let vjobs_list: Vec<Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
    let plan = Planner::new()
        .plan(&scenario.source, &scenario.target, &vjobs_list)
        .unwrap();
    let (event_secs, barrier_secs) =
        assert_event_never_slower("large_scale", &scenario.source, &plan);
    assert!(
        event_secs < barrier_secs - 1e-6,
        "large-scale: expected a strict win, got event {event_secs} vs barrier {barrier_secs}"
    );
}

#[test]
fn entropy_plan_never_costs_more_than_the_ffd_baseline() {
    // Plan-cost monotonicity: on any scenario, the CP optimizer starts from
    // the FFD packing as its incumbent, so the Entropy plan can only be
    // cheaper than or equal to the FCFS/FFD baseline plan — never more
    // expensive.  Checked across several generated instances.
    for seed in [2u64, 7, 19] {
        let params = GeneratorParams {
            node_count: 25,
            ..GeneratorParams::figure_10(45, seed)
        };
        let generated = TraceGenerator::new(params).generate();
        let decision = FcfsConsolidation::new()
            .decide(&generated.configuration, &generated.vjobs, &BTreeSet::new())
            .unwrap();
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(300))
            .build_optimizer();
        let ffd = optimizer
            .ffd_outcome(&generated.configuration, &decision, &generated.vjobs)
            .unwrap();
        let entropy = optimizer
            .optimize(&generated.configuration, &decision, &generated.vjobs)
            .unwrap();
        assert!(
            entropy.cost.total <= ffd.cost.total,
            "seed {seed}: entropy plan costs {} but the FFD baseline costs {}",
            entropy.cost.total,
            ffd.cost.total
        );
    }
}
