//! Delta-correctness lockstep suite: iterations driven by **observation
//! deltas** must be bit-identical to iterations driven by **full
//! re-observation**.
//!
//! The incremental pipeline ([`ObservationMode::Delta`]) diffs each
//! configuration snapshot against the previous one and keeps the solver's
//! repair split and the decision module's packing across ticks; the oracle
//! ([`ObservationMode::FullResync`]) resyncs the monitor every tick, so
//! every observation diffs against the empty configuration and starts both
//! from nothing.  If the incremental path
//! drifts from its from-scratch equivalent — a snapshot that is not the
//! cluster's, an overload set that drifted from the ledger — the two runs
//! diverge and these tests fail on the exact iteration where it happened.
//!
//! The scenarios are seeded, exercise all three resource dimensions
//! (CPU, memory, network), and include the two event classes the delta
//! protocol must carry beyond plain demand drift: **rolling arrivals**
//! (vjobs submitted mid-run through `submit_vjob`) and **node failures**
//! (capacities degraded mid-run through `set_node_capacity`, forcing a
//! repair).  The solver runs under a fixed search-node budget so both
//! runs explore machine-independent trees.
//!
//! No search state is carried from one solve to the next: what the loop
//! keeps only saves work, so the bit-identity claim is about the
//! *observation* seam and the kept states, which these runs isolate.
//!
//! The last test pins the single solve path: a loop period shorter than the
//! monitoring refresh period leaves the view stale on some ticks, which
//! solve through the same `PlanOptimizer::optimize_incremental` as a
//! current tick (overload set read from the configuration, never from the
//! view) — and must march in lockstep with a loop whose view is always
//! current.  Completions reach both loops at once, as the events of their
//! own advances: none waits for a monitoring refresh.

use std::time::Duration;

use cwcs_core::{
    ControlLoop, ControlLoopConfig, FcfsConsolidation, IterationReport, ObservationConfig,
    ObservationMode, OptimizerMode, SolverConfig,
};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, Vjob, VjobId, VjobState, Vm,
    VmId,
};
use cwcs_sim::SimulatedCluster;
use cwcs_workload::{VjobSpec, VmWorkProfile, WorkPhase};

/// A seeded 3-dimensional streaming scenario: base vjobs running on
/// CPU/memory/network-constrained nodes, arrival batches, and a mid-run
/// node failure.
struct Scenario {
    cluster: SimulatedCluster,
    initial: Vec<VjobSpec>,
    /// `(tick, vjob spec)` — submitted just before that iteration.
    arrivals: Vec<(usize, VjobSpec)>,
    /// `(tick, node)` — degraded just before that iteration.
    failures: Vec<(usize, NodeId)>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn vjob_spec(vjob: u32, first_vm: u32, vm_count: u32, seed: &mut u64) -> VjobSpec {
    let memories = [MemoryMib::mib(512), MemoryMib::gib(1), MemoryMib::gib(2)];
    let nets = [
        NetBandwidth::mbps(50),
        NetBandwidth::mbps(100),
        NetBandwidth::mbps(200),
    ];
    let vm_ids: Vec<VmId> = (0..vm_count).map(|k| VmId(first_vm + k)).collect();
    let mut vms = Vec::new();
    let mut profiles = Vec::new();
    for &id in &vm_ids {
        let memory = memories[(xorshift(seed) % 3) as usize];
        let net = nets[(xorshift(seed) % 3) as usize];
        let work_secs = 120.0 + (xorshift(seed) % 5) as f64 * 90.0;
        vms.push(Vm::new(id, memory, CpuCapacity::cores(1)).with_net(net));
        profiles.push(VmWorkProfile::new(vec![
            WorkPhase::compute(work_secs).with_net(net)
        ]));
    }
    VjobSpec::new(Vjob::new(VjobId(vjob), vm_ids, vjob as u64), vms, profiles)
}

fn build_scenario(seed: u64) -> Scenario {
    build_scenario_with_arrivals(seed, &[1, 3, 5])
}

fn build_scenario_with_arrivals(seed: u64, arrival_ticks: &[usize]) -> Scenario {
    let mut state = seed | 1;
    let node_count = 6 + (xorshift(&mut state) % 3) as u32; // 6..=8
    let mut config = Configuration::new();
    for i in 0..node_count {
        config
            .add_node(
                Node::new(NodeId(i), CpuCapacity::cores(4), MemoryMib::gib(8))
                    .with_net(NetBandwidth::gbps(1)),
            )
            .unwrap();
    }

    let mut next_vm = 0u32;
    let mut next_vjob = 0u32;
    let mut initial = Vec::new();
    for _ in 0..3 {
        let vm_count = 2 + (xorshift(&mut state) % 2) as u32;
        let spec = vjob_spec(next_vjob, next_vm, vm_count, &mut state);
        next_vm += vm_count;
        next_vjob += 1;
        for vm in &spec.vms {
            config.add_vm(vm.clone()).unwrap();
        }
        initial.push(spec);
    }

    // Arrivals at the requested ticks; a failure at tick 4 hits a node that
    // is guaranteed to host VMs by then (the decision module fills low ids
    // first).
    let mut arrivals = Vec::new();
    for &tick in arrival_ticks {
        let vm_count = 2 + (xorshift(&mut state) % 2) as u32;
        let spec = vjob_spec(next_vjob, next_vm, vm_count, &mut state);
        next_vm += vm_count;
        next_vjob += 1;
        arrivals.push((tick, spec));
    }
    let failures = vec![(4usize, NodeId((xorshift(&mut state) % 2) as u32))];

    Scenario {
        cluster: SimulatedCluster::new(config),
        initial,
        arrivals,
        failures,
    }
}

fn loop_config(mode: ObservationMode, workers: usize) -> ControlLoopConfig {
    ControlLoopConfig {
        period_secs: 30.0,
        optimizer: SolverConfig::default()
            .with_timeout(Duration::from_secs(600))
            .with_mode(OptimizerMode::repair())
            .with_node_limit(20_000)
            .with_workers(workers)
            .build_optimizer(),
        max_iterations: 100,
        observation: ObservationConfig::default().with_mode(mode),
        ..Default::default()
    }
}

/// Drive one control loop for `ticks` iterations, injecting the scenario's
/// arrivals and failures, and collect the per-iteration reports.  The
/// scenario is taken by value: `build_scenario` is seeded, so two calls
/// with the same seed produce identical clusters for the two runs.
fn drive(
    scenario: Scenario,
    mode: ObservationMode,
    workers: usize,
    ticks: usize,
) -> (Vec<IterationReport>, ControlLoop<FcfsConsolidation>) {
    let run = drive_config(scenario, loop_config(mode, workers), ticks);
    (run.reports, run.control)
}

/// One driven loop, with what the stale-view test needs on top of the
/// reports.
struct Run {
    reports: Vec<IterationReport>,
    /// The vjob states after each tick.
    vjob_states: Vec<Vec<VjobState>>,
    /// Ticks that switched while the view lagged the cluster.
    stale_switches: Vec<usize>,
    control: ControlLoop<FcfsConsolidation>,
}

fn drive_config(scenario: Scenario, config: ControlLoopConfig, ticks: usize) -> Run {
    let mut control = ControlLoop::new(
        scenario.cluster,
        &scenario.initial,
        FcfsConsolidation::new(),
        config,
    );
    let mut reports = Vec::with_capacity(ticks);
    let mut vjob_states = Vec::with_capacity(ticks);
    let mut stale_switches = Vec::new();
    for tick in 0..ticks {
        for (at, spec) in &scenario.arrivals {
            if *at == tick {
                control.submit_vjob(spec).expect("unique stream ids");
            }
        }
        for (at, node) in &scenario.failures {
            if *at == tick {
                control
                    .cluster_mut()
                    .set_node_capacity(
                        *node,
                        CpuCapacity::cores(1),
                        MemoryMib::gib(2),
                        NetBandwidth::mbps(250),
                    )
                    .expect("failed node exists");
            }
        }
        // The change version only grows: changes pending now and an
        // observation that did not move the view's version (an empty,
        // non-full delta — a cached observation) mean the view was stale
        // when the tick decided.
        let view_version = control.view().version;
        let pending = control.cluster().change_version() != view_version;
        let report = control.iterate().expect("iteration succeeds");
        let undrained = report.observation.version == view_version
            && !report.observation.full
            && report.observation.changed_vms + report.observation.changed_nodes == 0;
        if pending && undrained && report.performed_switch {
            stale_switches.push(tick);
        }
        vjob_states.push(control.vjobs().iter().map(|j| j.state).collect());
        reports.push(report);
    }
    Run {
        reports,
        vjob_states,
        stale_switches,
        control,
    }
}

/// Assert that two runs decided, solved, planned and executed the same tick.
fn assert_same_tick(a: &IterationReport, b: &IterationReport, at: &str) {
    assert_eq!(
        a.performed_switch, b.performed_switch,
        "switch decision diverged at {at}"
    );
    // `elapsed_ms` is wall-clock — the one SearchStats field that may
    // legitimately differ between two identical searches.  Zero it on
    // both sides so the comparison stays about the trace, not timing.
    let mut a_stats = a.solve.search_stats.clone();
    let mut b_stats = b.solve.search_stats.clone();
    a_stats.elapsed_ms = 0;
    b_stats.elapsed_ms = 0;
    assert_eq!(a_stats, b_stats, "search trace diverged at {at}");
    assert_eq!(
        a.switch.plan_stats, b.switch.plan_stats,
        "plan shape diverged at {at}"
    );
    assert_eq!(
        a.switch.plan_cost, b.switch.plan_cost,
        "plan cost diverged at {at}"
    );
    assert_eq!(
        a.completed_vjobs, b.completed_vjobs,
        "completions diverged at {at}"
    );
    assert_eq!(a.utilization, b.utilization, "utilization diverged at {at}");
}

/// Assert that a delta-driven run and a full-resync run produced
/// bit-identical decisions, solver outcomes, plans and cluster states.
fn assert_lockstep(seed: u64, workers: usize, ticks: usize) {
    assert_lockstep_with_arrivals(seed, workers, ticks, &[1, 3, 5]);
}

fn assert_lockstep_with_arrivals(seed: u64, workers: usize, ticks: usize, arrival_ticks: &[usize]) {
    let (delta, delta_loop) = drive(
        build_scenario_with_arrivals(seed, arrival_ticks),
        ObservationMode::Delta,
        workers,
        ticks,
    );
    let (full, full_loop) = drive(
        build_scenario_with_arrivals(seed, arrival_ticks),
        ObservationMode::FullResync,
        workers,
        ticks,
    );

    assert_eq!(delta.len(), full.len());
    for (tick, (d, f)) in delta.iter().zip(&full).enumerate() {
        let at = format!("seed {seed}, workers {workers}, tick {tick}");
        assert_same_tick(d, f, &at);
        // The delta run never re-observes in full after bootstrap; the
        // oracle always does.  (This is what makes the comparison a proof
        // and not a tautology.)
        assert_eq!(d.observation.full, tick == 0, "delta mode resynced at {at}");
        assert!(f.observation.full, "oracle must resync at {at}");
    }

    // The clusters marched in lockstep: identical final configurations...
    assert_eq!(
        delta_loop.cluster().configuration(),
        full_loop.cluster().configuration(),
        "final configurations diverged (seed {seed})"
    );
    // ...and the diffed view equals the view observed from scratch.
    assert_eq!(
        delta_loop.view().configuration(),
        full_loop.view().configuration(),
        "the diffed view drifted from the resynced view (seed {seed})"
    );
    // The view's overload set agrees with the ground truth.
    let overloaded: Vec<NodeId> = delta_loop
        .view()
        .overloaded_nodes()
        .into_iter()
        .map(|(node, _)| node)
        .collect();
    let ground_truth: Vec<NodeId> = delta_loop
        .cluster()
        .configuration()
        .viability_violations()
        .into_iter()
        .map(|(node, _)| node)
        .collect();
    assert_eq!(
        overloaded, ground_truth,
        "overload set drifted (seed {seed})"
    );
}

#[test]
fn lockstep_seed_1_single_worker() {
    assert_lockstep(1, 1, 10);
}

#[test]
fn lockstep_seed_2_single_worker() {
    assert_lockstep(2, 1, 10);
}

#[test]
fn lockstep_seed_3_portfolio() {
    assert_lockstep(3, 2, 10);
}

#[test]
fn lockstep_seed_4_portfolio() {
    assert_lockstep(4, 2, 8);
}

#[test]
fn lockstep_an_arrival_every_tick() {
    // A new vjob every tick from 1 to 6: every delta carries new VMs and
    // the movable set changes on every solve — and the delta run must still
    // march in lockstep with the full-resync oracle.
    assert_lockstep_with_arrivals(7, 1, 10, &[1, 2, 3, 4, 5, 6]);
}

#[test]
fn lockstep_long_run_with_full_drain() {
    // Long enough that every vjob completes: the loops also agree on the
    // completions and the final idle state.
    let (delta, delta_loop) = drive(build_scenario(9), ObservationMode::Delta, 1, 40);
    let (full, full_loop) = drive(build_scenario(9), ObservationMode::FullResync, 1, 40);
    let delta_completed: Vec<VjobId> = delta
        .iter()
        .flat_map(|it| it.completed_vjobs.iter().copied())
        .collect();
    let full_completed: Vec<VjobId> = full
        .iter()
        .flat_map(|it| it.completed_vjobs.iter().copied())
        .collect();
    assert_eq!(delta_completed, full_completed);
    assert_eq!(delta_completed.len(), 6, "all six vjobs complete");
    assert!(delta_loop.all_terminated());
    assert!(full_loop.all_terminated());
    assert_eq!(
        delta_loop.cluster().configuration(),
        full_loop.cluster().configuration()
    );
}

#[test]
fn stale_view_ticks_march_in_lockstep_with_a_current_view() {
    // A 10 s loop period under a 25 s monitoring refresh: most ticks run on
    // a view that lags the journal.  The reference drains the journal every
    // tick.  Same seeded scenario, same budgets.
    let ticks = 36;
    let config = |refresh_period_secs: f64| ControlLoopConfig {
        period_secs: 10.0,
        observation: ObservationConfig::default().with_refresh_period_secs(refresh_period_secs),
        ..loop_config(ObservationMode::Delta, 1)
    };
    for seed in [1u64, 5] {
        let stale = drive_config(build_scenario(seed), config(25.0), ticks);
        let current = drive_config(build_scenario(seed), config(0.0), ticks);
        assert!(
            !stale.stale_switches.is_empty(),
            "no switching tick ran on a stale view (seed {seed})"
        );
        assert!(
            current.stale_switches.is_empty(),
            "the reference view went stale at ticks {:?} (seed {seed})",
            current.stale_switches
        );
        for (tick, (s, c)) in stale.reports.iter().zip(&current.reports).enumerate() {
            let at = format!("seed {seed}, tick {tick}");
            assert_same_tick(s, c, &at);
            assert_eq!(
                stale.vjob_states[tick], current.vjob_states[tick],
                "vjob states diverged at {at}"
            );
        }
        assert_eq!(
            stale.control.cluster().configuration(),
            current.control.cluster().configuration(),
            "final configurations diverged (seed {seed})"
        );
    }
}
