//! Scenario builders shared by the experiment binaries and the benches.

use cwcs_core::baseline::BaselineReport;
use cwcs_core::decision::DecisionModule;
use cwcs_core::{
    ControlLoop, ControlLoopConfig, FcfsConsolidation, PlanOptimizer, RunReport, StaticFcfsBaseline,
};
use cwcs_model::{Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId};
use cwcs_sim::SimulatedCluster;
use cwcs_workload::{
    GeneratorParams, NasGridClass, NasGridKind, NasGridTemplate, TraceGenerator, VjobSpec,
    VjobTemplate,
};

/// The Section 5.2 cluster scenario: configuration + vjob specs.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// The cluster with every VM registered in the Waiting state.
    pub configuration: Configuration,
    /// The 8 vjobs of 9 VMs each.
    pub specs: Vec<VjobSpec>,
}

impl ClusterScenario {
    /// Build a fresh simulated cluster from this scenario.
    pub fn cluster(&self) -> SimulatedCluster {
        SimulatedCluster::new(self.configuration.clone())
    }
}

/// Build the Section 5.2 scenario: 11 working nodes (2 processing units and
/// 3.5 GiB of usable memory after the Domain-0 reservation) and 8 vjobs of 9
/// NAS-Grid-like VMs, submitted at the same moment in a fixed order, with
/// per-VM memory between 512 MiB and 2 GiB.
pub fn cluster_experiment(seed: u64) -> ClusterScenario {
    cluster_experiment_sized(seed, 11, 8)
}

/// Same as [`cluster_experiment`] but with explicit node and vjob counts
/// (used by the benches to keep their runtime small).
pub fn cluster_experiment_sized(seed: u64, nodes: u32, vjob_count: usize) -> ClusterScenario {
    let mut configuration = Configuration::new();
    for i in 0..nodes {
        configuration
            .add_node(Node::paper_cluster_node(NodeId(i)))
            .expect("unique node ids");
    }

    // Templates cycling over the NAS-Grid kinds/classes and the memory sizes
    // of the paper (512 MiB to 2 GiB for the cluster experiment).  The mix is
    // memory-light enough that the cluster admits more vjobs than it has
    // processing units for once their compute phases start — the overload
    // situation of §5.2 ("the running vjobs demand 29 processing units while
    // only 22 are available") that forces suspends and later resumes.
    let kinds = [
        NasGridKind::Ed,
        NasGridKind::Hc,
        NasGridKind::Mb,
        NasGridKind::Vp,
    ];
    let classes = [
        NasGridClass::A,
        NasGridClass::W,
        NasGridClass::A,
        NasGridClass::W,
    ];
    let memories = [
        MemoryMib::mib(512),
        MemoryMib::mib(1024),
        MemoryMib::mib(512),
        MemoryMib::mib(2048),
    ];
    let mut factory = VjobTemplate::new(seed);
    let mut specs = Vec::new();
    for j in 0..vjob_count {
        let template = NasGridTemplate {
            kind: kinds[j % kinds.len()],
            class: classes[j % classes.len()],
            vm_count: 9,
            memory_per_vm: memories[j % memories.len()],
            net_per_vm: NetBandwidth::ZERO,
        };
        let spec = factory.instantiate(&template);
        for vm in &spec.vms {
            configuration.add_vm(vm.clone()).expect("unique vm ids");
        }
        specs.push(spec);
    }
    ClusterScenario {
        configuration,
        specs,
    }
}

/// Run the Entropy control loop (FCFS dynamic consolidation + cluster-wide
/// context switches) on a scenario with `optimizer` and return the full
/// report.
pub fn entropy_run_with(scenario: &ClusterScenario, optimizer: PlanOptimizer) -> RunReport {
    let config = ControlLoopConfig {
        period_secs: 30.0,
        optimizer,
        max_iterations: 5_000,
        ..Default::default()
    };
    let mut control = ControlLoop::new(
        scenario.cluster(),
        &scenario.specs,
        FcfsConsolidation::new(),
        config,
    );
    control
        .run_until_complete()
        .expect("the control loop completes on the cluster scenario")
}

/// Run the static FCFS baseline on the same scenario.
pub fn static_fcfs_run(scenario: &ClusterScenario) -> BaselineReport {
    StaticFcfsBaseline::default().run(scenario.cluster(), &scenario.specs)
}

/// One sample of the Figure 10 sweep: the plan cost obtained by the FFD
/// baseline and by the CP optimizer on the same generated configuration.
#[derive(Debug, Clone)]
pub struct Figure10Sample {
    /// Plan cost of the First-Fit-Decreasing baseline.
    pub ffd_cost: u64,
    /// Plan cost after constraint-programming optimization.
    pub entropy_cost: u64,
}

/// Evaluate one Figure 10 sample: generate a configuration with `vm_target`
/// VMs (seeded by `sample`) on `node_count` nodes, let the decision module
/// pick the vjob states, and compare the plan computed from the first FFD
/// configuration with the plan computed by `optimizer` (portfolio workers,
/// deterministic node budget, …).
///
/// Returns `None` when the generated instance is degenerate (the planner
/// cannot sequence the FFD target because the cluster region is saturated) —
/// such samples are skipped, as the paper averages over solvable instances.
pub fn figure_10_point_with(
    vm_target: usize,
    sample: u64,
    optimizer: PlanOptimizer,
    node_count: u32,
) -> Option<Figure10Sample> {
    let params = GeneratorParams {
        node_count,
        ..GeneratorParams::figure_10(vm_target, sample)
    };
    let generated = TraceGenerator::new(params).generate();
    let mut decision_module = FcfsConsolidation::new();
    let decision = decision_module
        .decide(
            &generated.configuration,
            &generated.vjobs,
            &Default::default(),
        )
        .ok()?;
    let ffd = optimizer
        .ffd_outcome(&generated.configuration, &decision, &generated.vjobs)
        .ok()?;
    let entropy = optimizer
        .optimize(&generated.configuration, &decision, &generated.vjobs)
        .ok()?;
    Some(Figure10Sample {
        ffd_cost: ffd.cost.total,
        entropy_cost: entropy.cost.total,
    })
}

/// A generated large-scale context switch: a source configuration with
/// hundreds of nodes and thousands of VMs, and a target configuration that
/// drains part of the cluster and backfills it — the thousand-action regime
/// the event-driven engine is built for.
#[derive(Debug, Clone)]
pub struct LargeScaleScenario {
    /// The initial configuration (running + waiting VMs).
    pub source: Configuration,
    /// The target configuration (drained nodes evacuated and backfilled).
    pub target: Configuration,
    /// Every vjob with its VMs and work profiles.
    pub specs: Vec<VjobSpec>,
}

impl LargeScaleScenario {
    /// A fresh simulated cluster over the source configuration, with every
    /// vjob registered.
    pub fn cluster(&self) -> SimulatedCluster {
        let mut cluster = SimulatedCluster::new(self.source.clone());
        for spec in &self.specs {
            cluster.register_vjob(spec);
        }
        cluster
    }
}

/// Build a large-scale drain-and-backfill switch over `node_count` nodes of
/// 10 processing units / 24 GiB each:
///
/// * the first `drained_nodes` nodes are fully packed (one 10-VM vjob each,
///   per-node memory class cycling 2 GiB → 512 MiB → 1 GiB) and must be
///   evacuated: their VMs migrate to the remaining *receiver* nodes, which
///   run a 7-VM vjob each and keep 3 units spare;
/// * the drained nodes whose VMs are small (every class except 2 GiB) are
///   immediately backfilled with a waiting 10-VM vjob booting in place; the
///   2-GiB nodes stay empty, as if drained for maintenance.
///
/// The resulting plan pairs every backfill `run` with the specific
/// migrations that free its node.  A pool barrier makes all the runs wait
/// for the globally slowest migration (the 2-GiB evacuations, ~26 s); the
/// event-driven engine starts each run as soon as its own node is free,
/// which is what produces a strictly shorter switch.
///
/// With the defaults of the `large_scale_switch` binary (500 nodes, 100
/// drained) this is a 4 460-VM cluster and a ~1 660-action plan.
pub fn large_scale_switch(node_count: u32, drained_nodes: u32) -> LargeScaleScenario {
    build_large_scale_switch(node_count, drained_nodes, false)
}

/// The [`large_scale_switch`] cluster with a mid-run **CPU surge**: every
/// sixth receiver vjob ramps its VMs past one processing unit for ten
/// virtual minutes (progress 60 s → 660 s), overloading its node even
/// before any backfill VM lands there.
///
/// The surge is shaped so that the cheapest eviction is a genuine search
/// decision rather than a greedy pick.  Each surge vjob has one **hot** VM
/// (3 processing units, 2 GiB) and six **warm** VMs (1.5 units, 1.5 GiB
/// each); the node overload is such that evicting the hot VM alone (2 GiB
/// of migrated memory) resolves it, while any warm-only eviction needs two
/// VMs (3 GiB).  A migration-averse heuristic that keeps the biggest VMs in
/// place — the repair optimizer's greedy incumbent, and equally the
/// preferred-value descent of every search worker — anchors the hot VM
/// first and pays the expensive warm evictions; finding the cheap plan
/// requires branching the hot VM *away* from its host at the top of the
/// tree, which is exactly the root decision the partitioned portfolio deals
/// across its workers (see `cwcs_solver::portfolio`).
///
/// This is the scenario behind the `large_scale_loop` benchmark's
/// **rebalance switch**: the control loop boots the backfill vjobs at
/// iteration 0, observes the surge a couple of periods later, and must
/// re-place running VMs off ~⌈receivers/6⌉ overloaded nodes inside the
/// anytime budget — the 500-node rebalance of the portfolio headline.
pub fn large_scale_switch_surge(node_count: u32, drained_nodes: u32) -> LargeScaleScenario {
    build_large_scale_switch(node_count, drained_nodes, true)
}

fn build_large_scale_switch(
    node_count: u32,
    drained_nodes: u32,
    surge: bool,
) -> LargeScaleScenario {
    const UNITS_PER_NODE: u32 = 10;
    const RECEIVER_LOAD: u32 = 7;
    const RECEIVER_FREE: u32 = UNITS_PER_NODE - RECEIVER_LOAD;
    /// Every vjob performs one hour of full-speed work.
    const WORK_SECS: f64 = 3600.0;
    /// Every sixth receiver vjob surges.
    const SURGE_EVERY: u32 = 6;
    /// The surge window in progress seconds: starts after two control-loop
    /// periods, lasts ten minutes.
    const SURGE_START_SECS: f64 = 60.0;
    const SURGE_SECS: f64 = 600.0;
    /// Per-VM surge CPU (percent of a processing unit) and memory class:
    /// one hot VM (3 units, 2 GiB) and six warm VMs (1.5 units, 1.5 GiB).
    /// The node then demands 12 units of 10; evicting the hot VM alone
    /// (2 GiB migrated) resolves the overload, while keeping it anchored
    /// forces two warm evictions (3 GiB) — the greedy-vs-search gap the
    /// rebalance benchmark measures.
    const SURGE_CPU_PERCENT: [u32; 7] = [300, 150, 150, 150, 150, 150, 150];
    const SURGE_MEMORY_MIB: [u64; 7] = [2048, 1536, 1536, 1536, 1536, 1536, 1536];
    let receivers = node_count
        .checked_sub(drained_nodes)
        .expect("drained_nodes <= node_count");
    assert!(
        UNITS_PER_NODE * drained_nodes <= RECEIVER_FREE * receivers,
        "receivers cannot absorb the drained VMs"
    );
    let drained_memory = [
        MemoryMib::mib(2048),
        MemoryMib::mib(512),
        MemoryMib::mib(1024),
    ];

    let mut source = Configuration::new();
    for i in 0..node_count {
        source
            .add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(UNITS_PER_NODE),
                MemoryMib::gib(24),
            ))
            .expect("unique node ids");
    }

    // A vjob is built from one (memory, work profile) pair per VM.
    let uniform_vjob = |vm_count: u32, memory: MemoryMib| {
        (0..vm_count)
            .map(|_| {
                (
                    memory,
                    cwcs_workload::VmWorkProfile::new(vec![cwcs_workload::WorkPhase::compute(
                        WORK_SECS,
                    )]),
                )
            })
            .collect::<Vec<_>>()
    };
    let surge_vjob = || {
        (0..RECEIVER_LOAD as usize)
            .map(|p| {
                let percent = SURGE_CPU_PERCENT[p];
                let profile = cwcs_workload::VmWorkProfile::new(vec![
                    cwcs_workload::WorkPhase::compute(SURGE_START_SECS),
                    cwcs_workload::WorkPhase {
                        cpu_demand: CpuCapacity::percent(percent),
                        net_demand: NetBandwidth::ZERO,
                        duration_secs: SURGE_SECS,
                    },
                    cwcs_workload::WorkPhase::compute(WORK_SECS - SURGE_START_SECS - SURGE_SECS),
                ]);
                (MemoryMib::mib(SURGE_MEMORY_MIB[p]), profile)
            })
            .collect::<Vec<_>>()
    };

    let mut specs: Vec<VjobSpec> = Vec::new();
    let mut next_vm = 0u32;
    let mut add_vjob = |source: &mut Configuration,
                        specs: &mut Vec<VjobSpec>,
                        vm_specs: Vec<(MemoryMib, cwcs_workload::VmWorkProfile)>,
                        host: Option<NodeId>| {
        let vjob_id = specs.len() as u32;
        let vm_ids: Vec<cwcs_model::VmId> = (0..vm_specs.len())
            .map(|_| {
                let id = cwcs_model::VmId(next_vm);
                next_vm += 1;
                id
            })
            .collect();
        let vms: Vec<cwcs_model::Vm> = vm_ids
            .iter()
            .zip(&vm_specs)
            .map(|(&id, (memory, _))| cwcs_model::Vm::new(id, *memory, CpuCapacity::cores(1)))
            .collect();
        for vm in &vms {
            source.add_vm(vm.clone()).expect("unique vm ids");
            if let Some(node) = host {
                source
                    .set_assignment(vm.id, cwcs_model::VmAssignment::running(node))
                    .expect("placement stays within capacity");
            }
        }
        let mut vjob = cwcs_model::Vjob::new(cwcs_model::VjobId(vjob_id), vm_ids, vjob_id as u64);
        if host.is_some() {
            vjob.transition_to(cwcs_model::VjobState::Running)
                .expect("waiting -> running");
        }
        let profiles = vm_specs.into_iter().map(|(_, profile)| profile).collect();
        specs.push(VjobSpec::new(vjob, vms, profiles));
    };

    // Drained nodes: one full vjob each, memory class cycling per node.
    for i in 0..drained_nodes {
        let memory = drained_memory[(i % 3) as usize];
        add_vjob(
            &mut source,
            &mut specs,
            uniform_vjob(UNITS_PER_NODE, memory),
            Some(NodeId(i)),
        );
    }
    // Receiver nodes: a 7-VM vjob each, 3 units spare.  In the surge
    // variant every sixth receiver vjob carries the hot-plus-warm surge
    // profile.
    for i in drained_nodes..node_count {
        let vm_specs = if surge && (i - drained_nodes) % SURGE_EVERY == 0 {
            surge_vjob()
        } else {
            uniform_vjob(RECEIVER_LOAD, MemoryMib::gib(1))
        };
        add_vjob(&mut source, &mut specs, vm_specs, Some(NodeId(i)));
    }
    // One waiting backfill vjob per small-memory drained node.
    let backfilled: Vec<NodeId> = (0..drained_nodes)
        .filter(|i| i % 3 != 0)
        .map(NodeId)
        .collect();
    let first_backfill_vjob = specs.len();
    for _ in &backfilled {
        add_vjob(
            &mut source,
            &mut specs,
            uniform_vjob(UNITS_PER_NODE, MemoryMib::gib(1)),
            None,
        );
    }

    // Target: evacuate the drained nodes onto the receivers (3 per
    // receiver), then boot each backfill vjob on its drained node.
    let mut target = source.clone();
    let mut migrated = 0u32;
    for spec in specs.iter().take(drained_nodes as usize) {
        for &vm in &spec.vjob.vms {
            let receiver = NodeId(drained_nodes + migrated / RECEIVER_FREE);
            target
                .set_assignment(vm, cwcs_model::VmAssignment::running(receiver))
                .expect("receiver has room");
            migrated += 1;
        }
    }
    for (offset, &node) in backfilled.iter().enumerate() {
        for &vm in &specs[first_backfill_vjob + offset].vjob.vms {
            target
                .set_assignment(vm, cwcs_model::VmAssignment::running(node))
                .expect("drained node has room");
        }
    }

    LargeScaleScenario {
        source,
        target,
        specs,
    }
}

/// Build the network-bound 500-node scenario: memory and CPU are plentiful
/// everywhere, the per-node NIC is the scarce dimension.
///
/// * Every node has 10 processing units, 64 GiB of memory and a 1 Gbps NIC.
/// * Every node runs a 4-VM **service** vjob (1 unit, 2 GiB, 150 Mbps per
///   VM): 600 Mbps of the NIC is taken, 6 units and 56 GiB stay free.
/// * `transfer_vjobs` **transfer** vjobs of 10 VMs each wait in the queue.
///   A transfer VM is tiny on CPU and memory (a tenth of a unit, 1 GiB) but
///   pushes 200 Mbps for its whole life: only **two** fit into a node's
///   remaining 400 Mbps, while CPU and memory would admit dozens.  Packing
///   by the network dimension is the only way to boot them viably.
///
/// With the defaults of the `large_scale_netbound` binary (500 nodes, 66
/// transfer vjobs) the boot sub-problem re-places 660 VMs over the NIC
/// headroom of the whole cluster — the network mirror of the
/// `large_scale_loop` boot.
pub fn large_scale_netbound(node_count: u32, transfer_vjobs: u32) -> ClusterScenario {
    const SERVICE_VMS: u32 = 4;
    const TRANSFER_VMS: u32 = 10;
    let service_net = NetBandwidth::mbps(150);
    let transfer_net = NetBandwidth::mbps(200);
    // Two transfer VMs per node: 600 + 2×200 = 1000 Mbps exactly.
    assert!(
        TRANSFER_VMS * transfer_vjobs <= 2 * node_count,
        "the cluster NIC headroom cannot absorb the transfer vjobs"
    );

    let mut configuration = Configuration::new();
    for i in 0..node_count {
        configuration
            .add_node(
                Node::new(NodeId(i), CpuCapacity::cores(10), MemoryMib::gib(64))
                    .with_net(NetBandwidth::gbps(1)),
            )
            .expect("unique node ids");
    }

    let mut specs: Vec<VjobSpec> = Vec::new();
    let mut next_vm = 0u32;

    // One running service vjob per node.
    for i in 0..node_count {
        let vjob_id = specs.len() as u32;
        let vm_ids: Vec<cwcs_model::VmId> = (0..SERVICE_VMS)
            .map(|_| {
                let id = cwcs_model::VmId(next_vm);
                next_vm += 1;
                id
            })
            .collect();
        let vms: Vec<cwcs_model::Vm> = vm_ids
            .iter()
            .map(|&id| {
                cwcs_model::Vm::new(id, MemoryMib::gib(2), CpuCapacity::cores(1))
                    .with_net(service_net)
            })
            .collect();
        for vm in &vms {
            configuration.add_vm(vm.clone()).expect("unique vm ids");
            configuration
                .set_assignment(vm.id, cwcs_model::VmAssignment::running(NodeId(i)))
                .expect("service placement is viable");
        }
        let mut vjob = cwcs_model::Vjob::new(cwcs_model::VjobId(vjob_id), vm_ids, vjob_id as u64);
        vjob.transition_to(cwcs_model::VjobState::Running)
            .expect("waiting -> running");
        let profiles = vms
            .iter()
            .map(|_| {
                cwcs_workload::VmWorkProfile::new(vec![
                    cwcs_workload::WorkPhase::compute(1800.0).with_net(service_net)
                ])
            })
            .collect();
        specs.push(VjobSpec::new(vjob, vms, profiles));
    }

    // Waiting transfer vjobs: the 660-VM network-bound boot sub-problem.
    for _ in 0..transfer_vjobs {
        let vjob_id = specs.len() as u32;
        let vm_ids: Vec<cwcs_model::VmId> = (0..TRANSFER_VMS)
            .map(|_| {
                let id = cwcs_model::VmId(next_vm);
                next_vm += 1;
                id
            })
            .collect();
        let vms: Vec<cwcs_model::Vm> = vm_ids
            .iter()
            .map(|&id| {
                cwcs_model::Vm::new(id, MemoryMib::gib(1), CpuCapacity::percent(10))
                    .with_net(transfer_net)
            })
            .collect();
        for vm in &vms {
            configuration.add_vm(vm.clone()).expect("unique vm ids");
        }
        let vjob = cwcs_model::Vjob::new(cwcs_model::VjobId(vjob_id), vm_ids, vjob_id as u64);
        let profiles = vms
            .iter()
            .map(|_| {
                cwcs_workload::VmWorkProfile::new(vec![cwcs_workload::WorkPhase::transfer(
                    1800.0,
                    transfer_net,
                )])
            })
            .collect();
        specs.push(VjobSpec::new(vjob, vms, profiles));
    }

    ClusterScenario {
        configuration,
        specs,
    }
}

/// A rolling-arrival streaming scenario: a large cluster running a steady
/// base load, plus batches of vjobs arriving at every control period — the
/// regime the incremental observe→solve pipeline is built for.
#[derive(Debug, Clone)]
pub struct StreamingScenario {
    /// The cluster with the base-load VMs registered and running.
    pub configuration: Configuration,
    /// The base-load vjobs (one per node, already running).
    pub initial_specs: Vec<VjobSpec>,
    /// One batch of waiting vjobs per arrival tick, submitted through
    /// [`cwcs_core::ControlLoop::submit_vjob`] while the loop runs.
    pub arrivals: Vec<Vec<VjobSpec>>,
}

impl StreamingScenario {
    /// A fresh simulated cluster over the base load, with every initial
    /// vjob registered.  Arrival batches are *not* registered: the driver
    /// submits them tick by tick.
    pub fn cluster(&self) -> SimulatedCluster {
        let mut cluster = SimulatedCluster::new(self.configuration.clone());
        for spec in &self.initial_specs {
            cluster.register_vjob(spec);
        }
        cluster
    }

    /// Total number of VMs across the base load and every arrival batch.
    pub fn total_vms(&self) -> usize {
        self.configuration.vm_count()
            + self
                .arrivals
                .iter()
                .flatten()
                .map(|spec| spec.vms.len())
                .sum::<usize>()
    }
}

/// Build the streaming scenario over `node_count` nodes of 10 processing
/// units / 24 GiB / 10 Gbps each:
///
/// * every node runs a **base** vjob of 6 one-unit VMs (memory cycling
///   1 → 2 → 4 GiB, 200 Mbps each): 60 % of the cluster's processing units
///   and ~58 % of its memory are taken from the start;
/// * `ticks` batches of `vjobs_per_tick` **arrival** vjobs wait in the
///   stream.  An arrival vjob has 2 half-unit VMs (512 MiB – 1 GiB,
///   100 Mbps); every eighth vjob is a *short* job (75 s of work) so
///   completions stream back while the rest keep running.
///
/// With the defaults of the `large_scale_streaming` binary (10 000 nodes,
/// 20 ticks of 1 000 vjobs) this is a 100 000-VM run ending near 80 % CPU
/// utilization.  Memory sizes and the short-job positions are drawn from a
/// seeded xorshift generator, so the same seed always builds the same
/// stream.
pub fn streaming_scenario(
    node_count: u32,
    ticks: usize,
    vjobs_per_tick: usize,
    seed: u64,
) -> StreamingScenario {
    const BASE_VMS: u32 = 6;
    const ARRIVAL_VMS: u32 = 2;
    const BASE_WORK_SECS: f64 = 172_800.0;
    const LONG_WORK_SECS: f64 = 7_200.0;
    const SHORT_WORK_SECS: f64 = 75.0;
    let base_memory = [MemoryMib::gib(1), MemoryMib::gib(2), MemoryMib::gib(4)];
    let arrival_memory = [MemoryMib::mib(512), MemoryMib::mib(768), MemoryMib::gib(1)];
    let base_net = NetBandwidth::mbps(200);
    let arrival_net = NetBandwidth::mbps(100);
    let arrival_cpu = CpuCapacity::percent(50);

    // A tiny xorshift64 keeps the stream seeded without an RNG dependency.
    let mut rng_state = seed | 1;
    let mut rng = move |bound: u64| {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state % bound
    };

    let mut configuration = Configuration::new();
    for i in 0..node_count {
        configuration
            .add_node(
                Node::new(NodeId(i), CpuCapacity::cores(10), MemoryMib::gib(24))
                    .with_net(NetBandwidth::gbps(10)),
            )
            .expect("unique node ids");
    }

    let mut next_vm = 0u32;
    let mut next_vjob = 0u32;

    // Base load: one running 6-VM vjob per node.
    let mut initial_specs = Vec::with_capacity(node_count as usize);
    for i in 0..node_count {
        let vm_ids: Vec<cwcs_model::VmId> = (0..BASE_VMS)
            .map(|_| {
                let id = cwcs_model::VmId(next_vm);
                next_vm += 1;
                id
            })
            .collect();
        let vms: Vec<cwcs_model::Vm> = vm_ids
            .iter()
            .enumerate()
            .map(|(p, &id)| {
                cwcs_model::Vm::new(id, base_memory[p % 3], CpuCapacity::cores(1))
                    .with_net(base_net)
            })
            .collect();
        for vm in &vms {
            configuration.add_vm(vm.clone()).expect("unique vm ids");
            configuration
                .set_assignment(vm.id, cwcs_model::VmAssignment::running(NodeId(i)))
                .expect("base placement is viable");
        }
        let mut vjob =
            cwcs_model::Vjob::new(cwcs_model::VjobId(next_vjob), vm_ids, next_vjob as u64);
        vjob.transition_to(cwcs_model::VjobState::Running)
            .expect("waiting -> running");
        let profiles = vms
            .iter()
            .map(|_| {
                cwcs_workload::VmWorkProfile::new(vec![cwcs_workload::WorkPhase::compute(
                    BASE_WORK_SECS,
                )
                .with_net(base_net)])
            })
            .collect();
        initial_specs.push(VjobSpec::new(vjob, vms, profiles));
        next_vjob += 1;
    }

    // The arrival stream: `ticks` batches of waiting 2-VM vjobs.
    let mut arrivals = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        let mut batch = Vec::with_capacity(vjobs_per_tick);
        for _ in 0..vjobs_per_tick {
            let vm_ids: Vec<cwcs_model::VmId> = (0..ARRIVAL_VMS)
                .map(|_| {
                    let id = cwcs_model::VmId(next_vm);
                    next_vm += 1;
                    id
                })
                .collect();
            let memory = arrival_memory[rng(3) as usize];
            let vms: Vec<cwcs_model::Vm> = vm_ids
                .iter()
                .map(|&id| cwcs_model::Vm::new(id, memory, arrival_cpu).with_net(arrival_net))
                .collect();
            let work_secs = if rng(8) == 0 {
                SHORT_WORK_SECS
            } else {
                LONG_WORK_SECS
            };
            let vjob =
                cwcs_model::Vjob::new(cwcs_model::VjobId(next_vjob), vm_ids, next_vjob as u64);
            let profiles = vms
                .iter()
                .map(|_| {
                    cwcs_workload::VmWorkProfile::new(vec![cwcs_workload::WorkPhase {
                        cpu_demand: arrival_cpu,
                        net_demand: arrival_net,
                        duration_secs: work_secs,
                    }])
                })
                .collect();
            batch.push(VjobSpec::new(vjob, vms, profiles));
            next_vjob += 1;
        }
        arrivals.push(batch);
    }

    StreamingScenario {
        configuration,
        initial_specs,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_budget;
    use cwcs_core::SolverConfig;
    use std::time::Duration;

    /// `figure_10_point_with` with a default optimizer under `timeout`.
    fn figure_10_point(
        vm_target: usize,
        sample: u64,
        timeout: Duration,
        node_count: u32,
    ) -> Option<Figure10Sample> {
        figure_10_point_with(
            vm_target,
            sample,
            SolverConfig::default()
                .with_timeout(timeout)
                .build_optimizer(),
            node_count,
        )
    }

    #[test]
    fn cluster_experiment_matches_the_paper_setup() {
        let scenario = cluster_experiment(0);
        assert_eq!(scenario.configuration.node_count(), 11);
        assert_eq!(scenario.specs.len(), 8);
        assert_eq!(scenario.configuration.vm_count(), 72);
        for spec in &scenario.specs {
            assert_eq!(spec.vms.len(), 9);
            for vm in &spec.vms {
                assert!(vm.memory >= MemoryMib::mib(512));
                assert!(vm.memory <= MemoryMib::mib(2048));
            }
        }
    }

    #[test]
    fn figure_10_point_produces_comparable_costs() {
        // A small instance so the test stays fast.
        let sample = figure_10_point(18, 1, Duration::from_millis(300), 20)
            .expect("small instances are solvable");
        assert!(sample.entropy_cost <= sample.ffd_cost);
    }

    #[test]
    fn large_scale_switch_downsized_is_strictly_faster_event_driven() {
        use cwcs_sim::{ExecutionMode, PlanExecutor, SimulatedXenDriver};

        // A 40-node instance of the 500-node drain scenario: same shape,
        // test-sized (8 drained nodes, 5 of them backfilled).
        let scenario = large_scale_switch(40, 8);
        assert_eq!(scenario.source.node_count(), 40);
        // 8×10 drained + 32×7 receivers + 5×10 backfill.
        assert_eq!(scenario.source.vm_count(), 354);
        let vjobs: Vec<cwcs_model::Vjob> = scenario.specs.iter().map(|s| s.vjob.clone()).collect();
        let plan = cwcs_plan::Planner::new()
            .plan(&scenario.source, &scenario.target, &vjobs)
            .unwrap();
        assert_eq!(plan.stats().migrations, 80, "8 drained nodes of 10 VMs");
        assert_eq!(plan.stats().runs, 50, "5 backfill vjobs of 10 VMs");

        let mut barrier_cluster = scenario.cluster();
        let barrier = PlanExecutor::new(SimulatedXenDriver::default())
            .with_mode(ExecutionMode::PoolBarrier)
            .execute(&mut barrier_cluster, &plan);
        let mut event_cluster = scenario.cluster();
        let event =
            PlanExecutor::new(SimulatedXenDriver::default()).execute(&mut event_cluster, &plan);
        // The backfill runs only wait for their own node's migrations, none
        // of which are the slowest: the event engine wins strictly.
        assert!(
            event.duration_secs < barrier.duration_secs - 1e-6,
            "event {} vs barrier {}",
            event.duration_secs,
            barrier.duration_secs
        );
        assert_eq!(
            event_cluster.configuration(),
            barrier_cluster.configuration()
        );
    }

    #[test]
    fn surge_variant_only_changes_receiver_profiles() {
        let plain = large_scale_switch(40, 8);
        let surge = large_scale_switch_surge(40, 8);
        // Same shape: the surge only swaps profiles and memory classes.
        assert_eq!(surge.source.node_count(), plain.source.node_count());
        assert_eq!(surge.source.vm_count(), plain.source.vm_count());
        assert_eq!(surge.specs.len(), plain.specs.len());
        // Receiver vjobs start at spec index 8 (after the drained vjobs);
        // every sixth surges.  Its node demand at progress 300 s exceeds
        // the 10-unit capacity: 3.0 + 6×1.5 = 12 units.
        let surging = &surge.specs[8];
        let total: u32 = surging
            .profiles
            .iter()
            .map(|p| p.demand_at(300.0).raw())
            .sum();
        assert!(
            total > CpuCapacity::cores(10).raw(),
            "a surge vjob alone overloads its node: {total}"
        );
        // The hot VM (position 0) carries 3 units and 2 GiB; the warm VMs
        // carry 1.5 units and 1.5 GiB — the shape that makes the cheapest
        // eviction (the hot VM alone) the one a migration-averse greedy
        // refuses to consider.
        assert_eq!(surging.profiles[0].demand_at(300.0), CpuCapacity::cores(3));
        assert_eq!(surging.vms[0].memory, MemoryMib::mib(2048));
        for p in 1..7 {
            assert_eq!(
                surging.profiles[p].demand_at(300.0),
                CpuCapacity::percent(150)
            );
            assert_eq!(surging.vms[p].memory, MemoryMib::mib(1536));
        }
        // Before and after the surge window the vjob is back to one unit
        // per VM, and the total work is unchanged (one hour per VM).
        for profile in &surging.profiles {
            assert_eq!(profile.demand_at(30.0), CpuCapacity::cores(1));
            assert_eq!(profile.demand_at(1000.0), CpuCapacity::cores(1));
            assert!((profile.total_work_secs() - 3600.0).abs() < 1e-9);
        }
        // A non-surge receiver vjob is untouched.
        let calm = &surge.specs[9];
        assert_eq!(calm.profiles[0].demand_at(300.0), CpuCapacity::cores(1));
        assert_eq!(calm.vms[0].memory, MemoryMib::gib(1));
    }

    #[test]
    fn netbound_scenario_is_nic_constrained() {
        let scenario = large_scale_netbound(20, 4);
        assert_eq!(scenario.configuration.node_count(), 20);
        // 20 service vjobs of 4 VMs + 4 waiting transfer vjobs of 10 VMs.
        assert_eq!(scenario.configuration.vm_count(), 120);
        assert_eq!(scenario.specs.len(), 24);
        assert!(scenario.configuration.is_viable());
        // The NIC is the scarce dimension: 400 Mbps free per node (two
        // transfer VMs), while CPU and memory stay wide open.
        let free = scenario.configuration.free(NodeId(0)).unwrap();
        assert_eq!(free.net, NetBandwidth::mbps(400));
        assert!(free.cpu >= CpuCapacity::cores(6));
        assert!(free.memory >= MemoryMib::gib(56));
        // Transfer VMs reserve their bandwidth, so a boot is only admitted
        // where the NIC can hold it.
        let transfer_vm = &scenario.specs[20].vms[0];
        assert_eq!(transfer_vm.reserved_demand().net, NetBandwidth::mbps(200));
    }

    #[test]
    fn streaming_scenario_has_the_advertised_shape() {
        let scenario = streaming_scenario(50, 4, 10, 7);
        assert_eq!(scenario.configuration.node_count(), 50);
        // 50 base vjobs of 6 VMs, all running and viable.
        assert_eq!(scenario.configuration.vm_count(), 300);
        assert_eq!(scenario.initial_specs.len(), 50);
        assert!(scenario.configuration.is_viable());
        // 4 batches of 10 two-VM vjobs wait in the stream.
        assert_eq!(scenario.arrivals.len(), 4);
        assert!(scenario.arrivals.iter().all(|batch| batch.len() == 10));
        assert_eq!(scenario.total_vms(), 300 + 4 * 10 * 2);
        // The same seed rebuilds the identical stream; a different seed
        // draws different memory sizes or short-job positions.
        let again = streaming_scenario(50, 4, 10, 7);
        for (a, b) in scenario
            .arrivals
            .iter()
            .flatten()
            .zip(again.arrivals.iter().flatten())
        {
            assert_eq!(a.vms, b.vms);
            assert_eq!(a.profiles, b.profiles);
        }
    }

    #[test]
    fn entropy_and_fcfs_complete_a_small_scenario() {
        let scenario = cluster_experiment_sized(3, 6, 2);
        let optimizer = solve_budget(200, 2_000).build_optimizer();
        let entropy = entropy_run_with(&scenario, optimizer);
        assert!(entropy.completion_time_secs.is_some());
        let fcfs = static_fcfs_run(&scenario);
        assert!(fcfs.completion_time_secs.is_some());
    }
}
