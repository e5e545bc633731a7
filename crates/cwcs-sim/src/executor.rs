//! Execution of a reconfiguration plan on the simulated cluster.
//!
//! Two execution engines are available:
//!
//! * **event-driven** (the default) — the plan's pools are lowered to a
//!   per-action dependency graph ([`cwcs_plan::PlanDependencies`]) and run on
//!   a time-ordered event queue: each action starts as soon as the releases
//!   it depends on have occurred (plus its pipeline offset), interference is
//!   charged per overlapping time interval per node, and vjob completions
//!   carry the exact virtual times the cluster recorded for them (see
//!   [`SimulatedCluster::completed_at`]).  Because the dependency edges are a
//!   subset of the pool barrier's implicit edges, the event-driven switch
//!   never lasts longer than the barrier execution of the same plan and both
//!   reach the identical final configuration;
//! * **pool-barrier** (compatibility mode) — the paper's literal reading:
//!   pools run one after the other, every action of pool N+1 waits for the
//!   slowest action of pool N, and the busy VMs hosted on the nodes touched
//!   by a pool are decelerated for the whole pool window according to the
//!   [`InterferenceModel`](crate::durations::InterferenceModel) — the
//!   paper's measured 1.3–1.5× slow-down.
//!
//! In both modes a failed action still occupies its predicted time window on
//! its nodes, so co-hosted VMs are decelerated during failed operations too.

use std::collections::BTreeMap;

use cwcs_model::{IdHashMap, NodeId};
use cwcs_plan::{Action, PlanDependencies, ReconfigurationPlan};

use crate::cluster::{ClusterEvent, SimulatedCluster};
use crate::driver::{DriverError, HypervisorDriver};
use crate::events::{
    Event, EventKind, EventQueue, ExecutionTimeline, TimelineEntry, VjobCompletion,
};

/// How the executor schedules the actions of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Event-queue execution with per-action precedence (the default).
    #[default]
    EventDriven,
    /// Sequential pools with a barrier between them (the paper's Section 4.1
    /// semantics, kept for comparisons and regression baselines).
    PoolBarrier,
}

/// Outcome of a cluster-wide context switch.  The [`ExecutionTimeline`] is
/// the one record of what ran when; each entry names the pool of the plan
/// it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Total duration of the switch, in seconds (the Y axis of Figure 11).
    pub duration_secs: f64,
    /// Actions that failed (with failure injection) and were skipped.
    pub failed_actions: Vec<Action>,
    /// Vjobs that completed while the switch was running.
    pub completed_vjobs: Vec<ClusterEvent>,
    /// The full timeline: per-action start/end times (failed actions
    /// included, flagged) and exact vjob completion times.
    pub timeline: ExecutionTimeline,
    /// Events the event-driven engine processed: a start and an end per
    /// action (0 under the pool barrier).  A work counter: the same plan on
    /// the same cluster reproduces it exactly on any machine.
    pub events: u64,
}

impl ExecutionReport {
    /// Number of successfully executed actions.
    pub fn executed_actions(&self) -> usize {
        self.timeline.entries.iter().filter(|e| !e.failed).count()
    }
}

/// Executes plans against a [`SimulatedCluster`] through a driver.
pub struct PlanExecutor<D: HypervisorDriver> {
    driver: D,
    mode: ExecutionMode,
}

impl<D: HypervisorDriver> PlanExecutor<D> {
    /// Build an executor around a driver, using the event-driven engine.
    pub fn new(driver: D) -> Self {
        PlanExecutor {
            driver,
            mode: ExecutionMode::EventDriven,
        }
    }

    /// Select the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The execution mode of this executor.
    #[cfg(test)]
    pub(crate) fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Access the driver (e.g. to reach its failure injector).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Execute `plan` on `cluster`: apply every action through the driver,
    /// advance the virtual clock, and decelerate the applications co-hosted
    /// with the operations.
    pub fn execute(
        &self,
        cluster: &mut SimulatedCluster,
        plan: &ReconfigurationPlan,
    ) -> ExecutionReport {
        match self.mode {
            ExecutionMode::EventDriven => self.execute_event_driven(cluster, plan),
            ExecutionMode::PoolBarrier => self.execute_pool_barrier(cluster, plan),
        }
    }

    /// Event-driven execution: lower the plan to a dependency graph and run
    /// it on a time-ordered event queue.  The bookkeeping is dense and
    /// allocation-free per event: per-action state is indexed by the
    /// action's position in plan order, an action's dependents are a slice
    /// of one flat list, and the per-node deceleration is an
    /// [`InterferenceLedger`].
    fn execute_event_driven(
        &self,
        cluster: &mut SimulatedCluster,
        plan: &ReconfigurationPlan,
    ) -> ExecutionReport {
        let dependencies = PlanDependencies::derive(plan, cluster.configuration());
        let interference = *cluster.interference();
        let durations = *cluster.durations();
        let nodes = dependencies.nodes();
        let count = nodes.len();

        // Per action: how many dependencies are still running, and whether
        // it occupies its time window (refused actions do not).
        let mut pending: Vec<usize> = nodes.iter().map(|node| node.deps.len()).collect();
        let mut in_flight = vec![false; count];
        // The dependents of action `i`, in plan order, are
        // `dependents[starts[i]..starts[i + 1]]`.
        let mut starts = vec![0usize; count + 1];
        for node in nodes {
            for &dep in &node.deps {
                starts[dep + 1] += 1;
            }
        }
        for index in 0..count {
            starts[index + 1] += starts[index];
        }
        let mut dependents = vec![0usize; starts[count]];
        let mut fill = starts.clone();
        for (index, node) in nodes.iter().enumerate() {
            for &dep in &node.deps {
                dependents[fill[dep]] = index;
                fill[dep] += 1;
            }
        }

        let mut queue = EventQueue::new();
        for (index, node) in nodes.iter().enumerate() {
            if node.deps.is_empty() {
                queue.push(Event {
                    time_secs: node.offset_secs as f64,
                    kind: EventKind::ActionStart,
                    index,
                });
            }
        }

        let mut timeline = ExecutionTimeline::default();
        timeline.entries.reserve(count);
        let mut failed_actions = Vec::new();
        let mut ledger = InterferenceLedger::default();
        let mut events = 0;
        let mut now = 0.0;
        let started_at = cluster.clock_secs();

        while let Some(event) = queue.pop() {
            events += 1;
            // The in-flight set is constant over [now, event.time): advance
            // the applications under the current per-node decelerations
            // (events sharing a time share one interval).  The cluster
            // stamps each completion with its exact time.
            if event.time_secs > now {
                let completed = cluster.advance(event.time_secs - now, ledger.decelerations());
                now = event.time_secs;
                for ClusterEvent::VjobCompleted(vjob) in completed {
                    let at = cluster
                        .completed_at(vjob)
                        .expect("reported vjobs are stamped");
                    timeline.completions.push(VjobCompletion {
                        vjob,
                        time_secs: at - started_at,
                    });
                }
            }

            let node = &nodes[event.index];
            match event.kind {
                EventKind::ActionEnd => {
                    if in_flight[event.index] {
                        let factor = interference.factor_for(&node.action);
                        ledger.end(touched_nodes(&node.action), factor);
                    }
                    for &dependent in &dependents[starts[event.index]..starts[event.index + 1]] {
                        pending[dependent] -= 1;
                        if pending[dependent] == 0 {
                            let offset = nodes[dependent].offset_secs as f64;
                            queue.push(Event {
                                time_secs: now + offset,
                                kind: EventKind::ActionStart,
                                index: dependent,
                            });
                        }
                    }
                }
                EventKind::ActionStart => {
                    let action = node.action;
                    let predicted = durations.action_duration(&action);
                    let config = cluster.configuration_mut_for_vm(action.vm());
                    let outcome = self.driver.execute(&action, config);
                    let failed = outcome.is_err();
                    // The action as the driver reports it, and the window it
                    // occupies.
                    let (reported, window) = match outcome {
                        Ok(duration) => (action, Some(duration)),
                        // The failed operation still wasted its predicted
                        // window on its nodes: co-hosted VMs slow down and
                        // dependents wait for the window to clear.
                        Err(DriverError::OperationFailed { action, .. }) => {
                            (action, Some(predicted))
                        }
                        // The driver refused the action outright: no time is
                        // charged and dependents are released at once.
                        Err(DriverError::Model(_)) => (action, None),
                    };
                    if failed {
                        failed_actions.push(reported);
                    }
                    let end_secs = match window {
                        Some(window) => {
                            ledger.start(touched_nodes(&action), interference.factor_for(&action));
                            in_flight[event.index] = true;
                            now + window
                        }
                        None => now,
                    };
                    queue.push(Event {
                        time_secs: end_secs,
                        kind: EventKind::ActionEnd,
                        index: event.index,
                    });
                    timeline.entries.push(TimelineEntry {
                        action: reported,
                        pool_index: node.pool_index,
                        start_secs: now,
                        end_secs,
                        failed,
                    });
                }
            }
        }

        timeline.duration_secs = now;
        let completed_vjobs = timeline
            .completions
            .iter()
            .map(|c| ClusterEvent::VjobCompleted(c.vjob))
            .collect();
        ExecutionReport {
            duration_secs: now,
            failed_actions,
            completed_vjobs,
            timeline,
            events,
        }
    }

    /// Pool-barrier execution: the compatibility mode matching the paper's
    /// sequential-pool semantics.
    fn execute_pool_barrier(
        &self,
        cluster: &mut SimulatedCluster,
        plan: &ReconfigurationPlan,
    ) -> ExecutionReport {
        let mut report = ExecutionReport {
            duration_secs: 0.0,
            failed_actions: Vec::new(),
            completed_vjobs: Vec::new(),
            timeline: ExecutionTimeline::default(),
            events: 0,
        };
        let interference = *cluster.interference();
        let durations = *cluster.durations();
        let mut elapsed = 0.0;

        for (pool_index, pool) in plan.pools().iter().enumerate() {
            let pool_start = elapsed;
            let mut pool_end = pool_start;
            // Deceleration applied to every node touched by the pool.
            let mut decelerations: BTreeMap<NodeId, f64> = BTreeMap::new();

            for planned in &pool.actions {
                let action = planned.action;
                let predicted = durations.action_duration(&action);
                let start = pool_start + planned.offset_secs as f64;
                match self.driver.execute(&action, cluster.configuration_mut()) {
                    Ok(duration) => {
                        pool_end = pool_end.max(start + duration);
                        let factor = interference.factor_for(&action);
                        for node in touched_nodes(&action) {
                            let entry = decelerations.entry(node).or_insert(1.0);
                            *entry = entry.max(factor);
                        }
                        report.timeline.entries.push(TimelineEntry {
                            action,
                            pool_index,
                            start_secs: start,
                            end_secs: start + duration,
                            failed: false,
                        });
                    }
                    Err(DriverError::OperationFailed { action, .. }) => {
                        report.failed_actions.push(action);
                        // The failed operation still wasted its predicted time
                        // window on the cluster: the pool stretches and the
                        // touched nodes suffer the interference all the same.
                        pool_end = pool_end.max(start + predicted);
                        let factor = interference.factor_for(&action);
                        for node in touched_nodes(&action) {
                            let entry = decelerations.entry(node).or_insert(1.0);
                            *entry = entry.max(factor);
                        }
                        report.timeline.entries.push(TimelineEntry {
                            action,
                            pool_index,
                            start_secs: start,
                            end_secs: start + predicted,
                            failed: true,
                        });
                    }
                    Err(DriverError::Model(_)) => {
                        report.failed_actions.push(action);
                        report.timeline.entries.push(TimelineEntry {
                            action,
                            pool_index,
                            start_secs: start,
                            end_secs: start,
                            failed: true,
                        });
                    }
                }
            }

            let pool_duration = (pool_end - pool_start).max(0.0);
            let events = cluster.advance(pool_duration, &decelerations);
            for event in &events {
                let ClusterEvent::VjobCompleted(id) = event;
                report.timeline.completions.push(VjobCompletion {
                    vjob: *id,
                    time_secs: pool_end,
                });
            }
            report.completed_vjobs.extend(events);
            elapsed = pool_end;
        }

        report.duration_secs = elapsed;
        report.timeline.duration_secs = elapsed;
        report
    }
}

/// The distinct nodes an action occupies while it runs, without
/// allocating: the node it releases, the node it requires and a resumed
/// image's node, in that order.
fn touched_nodes(action: &Action) -> impl Iterator<Item = NodeId> {
    let released = action.releases().map(|(node, _)| node);
    let required = action
        .requires()
        .map(|(node, _)| node)
        .filter(|&node| Some(node) != released);
    let image = match *action {
        Action::Resume { image, .. } => Some(image),
        _ => None,
    }
    .filter(|&node| Some(node) != released && Some(node) != required);
    released.into_iter().chain(required).chain(image)
}

/// The per-node deceleration implied by the actions in flight, kept
/// incrementally.  Per node it counts the in-flight actions imposing each
/// distinct factor, and it publishes the map [`SimulatedCluster::advance`]
/// takes: the per-node maximum over in-flight factors.  Factors ≤ 1.0
/// (runs, stops) decelerate nothing and are not published — a no-op entry
/// would still fail the map comparison that lets the cluster's `sync_rates`
/// skip an unchanged regime.
///
/// Starting or ending an action only marks its nodes; the published map is
/// brought up to date when it is read, once per node however many actions
/// moved there since.  Nothing here allocates per event: a node's count
/// list grows once to the number of distinct factors it sees.
#[derive(Debug, Default)]
struct InterferenceLedger {
    /// Slot of each node in `nodes`, assigned on first use.
    slots: IdHashMap<NodeId, usize>,
    nodes: Vec<NodeLoad>,
    /// Slots of the nodes whose published entry may be out of date.
    marked: Vec<usize>,
    decelerations: BTreeMap<NodeId, f64>,
}

/// The in-flight factors imposed on one node.
#[derive(Debug)]
struct NodeLoad {
    id: NodeId,
    /// `(factor, in-flight actions imposing it)`, every count positive.
    counts: Vec<(f64, usize)>,
    marked: bool,
}

impl InterferenceLedger {
    /// An action imposing `factor` started on `nodes`.
    fn start(&mut self, nodes: impl Iterator<Item = NodeId>, factor: f64) {
        if factor <= 1.0 {
            return;
        }
        for node in nodes {
            let next = self.nodes.len();
            let slot = *self.slots.entry(node).or_insert(next);
            if slot == next {
                self.nodes.push(NodeLoad {
                    id: node,
                    counts: Vec::new(),
                    marked: false,
                });
            }
            let load = &mut self.nodes[slot];
            match load.counts.iter_mut().find(|(f, _)| *f == factor) {
                Some((_, count)) => *count += 1,
                None => load.counts.push((factor, 1)),
            }
            Self::mark(&mut self.marked, load, slot);
        }
    }

    /// An action imposing `factor` on `nodes` ended.
    fn end(&mut self, nodes: impl Iterator<Item = NodeId>, factor: f64) {
        if factor <= 1.0 {
            return;
        }
        for node in nodes {
            let Some(&slot) = self.slots.get(&node) else {
                continue;
            };
            let load = &mut self.nodes[slot];
            if let Some(position) = load.counts.iter().position(|(f, _)| *f == factor) {
                load.counts[position].1 -= 1;
                if load.counts[position].1 == 0 {
                    load.counts.swap_remove(position);
                }
            }
            Self::mark(&mut self.marked, load, slot);
        }
    }

    fn mark(marked: &mut Vec<usize>, load: &mut NodeLoad, slot: usize) {
        if !load.marked {
            load.marked = true;
            marked.push(slot);
        }
    }

    /// The per-node maximum over in-flight factors > 1.0, with no entry for
    /// a node no such action occupies.
    fn decelerations(&mut self) -> &BTreeMap<NodeId, f64> {
        for slot in self.marked.drain(..) {
            let load = &mut self.nodes[slot];
            load.marked = false;
            if load.counts.is_empty() {
                self.decelerations.remove(&load.id);
            } else {
                let max = load.counts.iter().map(|&(f, _)| f).fold(1.0f64, f64::max);
                self.decelerations.insert(load.id, max);
            }
        }
        &self.decelerations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimulatedXenDriver;
    use cwcs_model::{
        Configuration, CpuCapacity, MemoryMib, Node, ResourceDemand, Vjob, VjobId, Vm,
        VmAssignment, VmId,
    };
    use cwcs_plan::{Planner, Pool};
    use cwcs_workload::{VjobSpec, VmWorkProfile};

    fn demand(mem: u64) -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(mem))
    }

    fn cluster() -> SimulatedCluster {
        let mut config = Configuration::new();
        for i in 0..3 {
            config
                .add_node(Node::new(
                    NodeId(i),
                    CpuCapacity::cores(2),
                    MemoryMib::gib(4),
                ))
                .unwrap();
        }
        for i in 0..3 {
            config
                .add_vm(Vm::new(
                    VmId(i),
                    MemoryMib::mib(1024),
                    CpuCapacity::cores(1),
                ))
                .unwrap();
        }
        let mut cluster = SimulatedCluster::new(config);
        let vms: Vec<Vm> = (0..3)
            .map(|i| Vm::new(VmId(i), MemoryMib::mib(1024), CpuCapacity::cores(1)))
            .collect();
        let vjob = Vjob::new(VjobId(0), vms.iter().map(|v| v.id).collect(), 0);
        let profiles = vms
            .iter()
            .map(|_| VmWorkProfile::single_compute(500.0))
            .collect();
        cluster.register_vjob(&VjobSpec::new(vjob, vms, profiles));
        cluster
    }

    #[test]
    fn executes_a_run_plan_and_charges_time() {
        let mut cluster = cluster();
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(1024),
            },
            Action::Run {
                vm: VmId(1),
                node: NodeId(1),
                demand: demand(1024),
            },
        ])]);
        let executor = PlanExecutor::new(SimulatedXenDriver::default());
        assert_eq!(executor.mode(), ExecutionMode::EventDriven);
        let report = executor.execute(&mut cluster, &plan);
        // Two boots in parallel: the switch lasts one boot (6 s).
        assert!((report.duration_secs - 6.0).abs() < 1e-9);
        assert_eq!(report.executed_actions(), 2);
        assert_eq!(report.timeline.max_concurrency(), 2);
        assert_eq!(
            cluster.configuration().host(VmId(0)).unwrap(),
            Some(NodeId(0))
        );
        assert!((cluster.clock_secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn pools_are_sequential_and_offsets_respected_under_the_barrier() {
        let mut cluster = cluster();
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut pool1 = Pool::from_actions(vec![Action::Suspend {
            vm: VmId(0),
            node: NodeId(0),
            demand: demand(1024),
        }]);
        pool1.actions[0].offset_secs = 2;
        let pool2 = Pool::from_actions(vec![Action::Run {
            vm: VmId(1),
            node: NodeId(0),
            demand: demand(1024),
        }]);
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![pool1, pool2]);
        let executor =
            PlanExecutor::new(SimulatedXenDriver::default()).with_mode(ExecutionMode::PoolBarrier);
        let report = executor.execute(&mut cluster, &plan);
        // Pool 1: starts at 0, suspend starts at 2 and lasts ~50 s -> ~52 s.
        // Pool 2: starts after pool 1 and lasts 6 s.
        let suspend_duration = cluster.durations().suspend_duration(
            MemoryMib::mib(1024),
            crate::durations::TransferMethod::Local,
        );
        let expected = 2.0 + suspend_duration + 6.0;
        assert!((report.duration_secs - expected).abs() < 1e-6);
        let pool2 = report.timeline.pool_entries(1).map(|e| e.start_secs);
        let pool2_start = pool2.fold(f64::INFINITY, f64::min);
        assert!(pool2_start > 2.0 + suspend_duration - 1e-9);
    }

    #[test]
    fn event_engine_overlaps_independent_pools() {
        // Same plan as the barrier test above: the run does not need the
        // suspend's release (node 0 has room for both VMs), so the event
        // engine starts it at t=0 and the switch lasts only the suspend.
        let mut cluster = cluster();
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut pool1 = Pool::from_actions(vec![Action::Suspend {
            vm: VmId(0),
            node: NodeId(0),
            demand: demand(1024),
        }]);
        pool1.actions[0].offset_secs = 2;
        let pool2 = Pool::from_actions(vec![Action::Run {
            vm: VmId(1),
            node: NodeId(0),
            demand: demand(1024),
        }]);
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![pool1, pool2]);
        let executor = PlanExecutor::new(SimulatedXenDriver::default());
        let report = executor.execute(&mut cluster, &plan);
        let suspend_duration = cluster.durations().suspend_duration(
            MemoryMib::mib(1024),
            crate::durations::TransferMethod::Local,
        );
        assert!((report.duration_secs - (2.0 + suspend_duration)).abs() < 1e-6);
        // The run started immediately, before the suspend completed.
        let run_entry = report
            .timeline
            .entries
            .iter()
            .find(|e| e.action.kind() == "run")
            .unwrap();
        assert!(run_entry.start_secs.abs() < 1e-9);
    }

    #[test]
    fn event_engine_respects_release_dependencies() {
        // VM0 fills node 0; VM1 can only run there once the suspend released
        // it.  The event engine must serialize exactly those two actions.
        let mut config = Configuration::new();
        config
            .add_node(Node::new(
                NodeId(0),
                CpuCapacity::cores(1),
                MemoryMib::gib(1),
            ))
            .unwrap();
        for i in 0..2 {
            config
                .add_vm(Vm::new(
                    VmId(i),
                    MemoryMib::mib(1024),
                    CpuCapacity::cores(1),
                ))
                .unwrap();
        }
        config
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut cluster = SimulatedCluster::new(config);
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(1024),
            }]),
            Pool::from_actions(vec![Action::Run {
                vm: VmId(1),
                node: NodeId(0),
                demand: demand(1024),
            }]),
        ]);
        let executor = PlanExecutor::new(SimulatedXenDriver::default());
        let report = executor.execute(&mut cluster, &plan);
        let suspend_duration = cluster.durations().suspend_duration(
            MemoryMib::mib(1024),
            crate::durations::TransferMethod::Local,
        );
        let run_entry = report
            .timeline
            .entries
            .iter()
            .find(|e| e.action.kind() == "run")
            .unwrap();
        assert!((run_entry.start_secs - suspend_duration).abs() < 1e-6);
        assert!((report.duration_secs - (suspend_duration + 6.0)).abs() < 1e-6);
    }

    #[test]
    fn failed_actions_are_reported_and_skipped() {
        let mut cluster = cluster();
        let driver = SimulatedXenDriver::default();
        driver.failure_injector().fail_next_action_on(VmId(0));
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(1024),
            },
            Action::Run {
                vm: VmId(1),
                node: NodeId(1),
                demand: demand(1024),
            },
        ])]);
        let executor = PlanExecutor::new(driver);
        let report = executor.execute(&mut cluster, &plan);
        assert_eq!(report.failed_actions.len(), 1);
        assert_eq!(report.executed_actions(), 1);
        // The failed VM is still waiting; the other one runs.
        assert_eq!(
            cluster.configuration().state(VmId(0)).unwrap(),
            cwcs_model::VmState::Waiting
        );
        assert_eq!(
            cluster.configuration().host(VmId(1)).unwrap(),
            Some(NodeId(1))
        );
    }

    #[test]
    fn co_hosted_vms_are_decelerated_during_operations() {
        // VM0 runs on node 0 and computes; VM1 migrates away from node 0.
        // During the migration VM0 progresses slower than wall-clock time.
        let mut cluster = cluster();
        cluster
            .configuration_mut()
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        cluster
            .configuration_mut()
            .set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Migrate {
                vm: VmId(1),
                from: NodeId(0),
                to: NodeId(1),
                demand: demand(1024),
            },
        ])]);
        let executor = PlanExecutor::new(SimulatedXenDriver::default());
        let report = executor.execute(&mut cluster, &plan);
        let progress = cluster.progress_of(VmId(0)).unwrap();
        assert!(
            progress < report.duration_secs - 1e-9,
            "progress {progress} must lag behind wall-clock {}",
            report.duration_secs
        );
        assert!((progress - report.duration_secs / 1.5).abs() < 1e-6);
    }

    #[test]
    fn failed_operations_still_decelerate_co_hosted_vms() {
        // Regression: a failed migration occupies its predicted window, so
        // the VM co-hosted on the source node must slow down exactly as it
        // would during a successful migration — in both execution modes.
        for mode in [ExecutionMode::EventDriven, ExecutionMode::PoolBarrier] {
            let mut cluster = cluster();
            cluster
                .configuration_mut()
                .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
                .unwrap();
            cluster
                .configuration_mut()
                .set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
                .unwrap();
            let driver = SimulatedXenDriver::default();
            driver.failure_injector().fail_next_action_on(VmId(1));
            let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
                Action::Migrate {
                    vm: VmId(1),
                    from: NodeId(0),
                    to: NodeId(1),
                    demand: demand(1024),
                },
            ])]);
            let executor = PlanExecutor::new(driver).with_mode(mode);
            let report = executor.execute(&mut cluster, &plan);
            assert_eq!(report.failed_actions.len(), 1);
            assert!(report.duration_secs > 0.0, "the window is still charged");
            let progress = cluster.progress_of(VmId(0)).unwrap();
            assert!(
                (progress - report.duration_secs / 1.5).abs() < 1e-6,
                "{mode:?}: co-hosted VM must run at 1/1.5 speed during the \
                 failed migration, progressed {progress} over {}",
                report.duration_secs
            );
        }
    }

    #[test]
    fn event_engine_fires_completions_at_exact_times() {
        // VM0 computes 30 s of work on node 1 while a long suspend of VM1
        // runs on node 0: the vjob completion must be stamped at t=30
        // exactly, in the middle of the switch.
        let mut config = Configuration::new();
        for i in 0..2 {
            config
                .add_node(Node::new(
                    NodeId(i),
                    CpuCapacity::cores(2),
                    MemoryMib::gib(4),
                ))
                .unwrap();
        }
        for i in 0..2 {
            config
                .add_vm(Vm::new(
                    VmId(i),
                    MemoryMib::mib(1024),
                    CpuCapacity::cores(1),
                ))
                .unwrap();
        }
        config
            .set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        config
            .set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut cluster = SimulatedCluster::new(config);
        let vm0 = Vm::new(VmId(0), MemoryMib::mib(1024), CpuCapacity::cores(1));
        cluster.register_vjob(&VjobSpec::new(
            Vjob::new(VjobId(0), vec![VmId(0)], 0),
            vec![vm0],
            vec![VmWorkProfile::single_compute(30.0)],
        ));
        let plan = cwcs_plan::ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Suspend {
                vm: VmId(1),
                node: NodeId(0),
                demand: demand(1024),
            },
        ])]);
        let executor = PlanExecutor::new(SimulatedXenDriver::default());
        let report = executor.execute(&mut cluster, &plan);
        assert!(report.duration_secs > 30.0, "the suspend takes ~50 s");
        assert_eq!(report.timeline.completions.len(), 1);
        let completion = &report.timeline.completions[0];
        assert_eq!(completion.vjob, VjobId(0));
        assert!(
            (completion.time_secs - 30.0).abs() < 1e-6,
            "completion at exact event time, got {}",
            completion.time_secs
        );
    }

    #[test]
    fn end_to_end_with_planner() {
        // Plan a real transition with the planner and execute it with both
        // engines: identical final configuration, event never slower.
        for mode in [ExecutionMode::EventDriven, ExecutionMode::PoolBarrier] {
            let mut cluster = cluster();
            cluster
                .configuration_mut()
                .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
                .unwrap();
            let source = cluster.configuration().clone();
            let mut target = source.clone();
            target
                .set_assignment(VmId(0), VmAssignment::running(NodeId(2)))
                .unwrap();
            target
                .set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
                .unwrap();
            let plan = Planner::new().plan(&source, &target, &[]).unwrap();
            let executor = PlanExecutor::new(SimulatedXenDriver::default()).with_mode(mode);
            let report = executor.execute(&mut cluster, &plan);
            assert!(report.failed_actions.is_empty());
            assert_eq!(
                cluster.configuration().host(VmId(0)).unwrap(),
                Some(NodeId(2))
            );
            assert_eq!(
                cluster.configuration().host(VmId(1)).unwrap(),
                Some(NodeId(1))
            );
            assert!(report.duration_secs > 0.0);
        }
    }

    /// The per-node maximum over in-flight factors > 1.0, from scratch.
    fn max_factors(in_flight: &[(Vec<NodeId>, f64)]) -> BTreeMap<NodeId, f64> {
        let mut expected = BTreeMap::new();
        for (nodes, factor) in in_flight.iter().filter(|(_, f)| *f > 1.0) {
            for &node in nodes {
                let entry = expected.entry(node).or_insert(*factor);
                *entry = entry.max(*factor);
            }
        }
        expected
    }

    #[test]
    fn the_interference_ledger_matches_a_from_scratch_maximum() {
        // Seeded starts and ends over 8 nodes, with every factor class (1.0
        // decelerates nothing).  After every step the published map must
        // equal the per-node maximum over in-flight factors > 1.0 recomputed
        // from scratch, with no entry for a node no such action occupies —
        // `sync_rates` skips an unchanged regime on map equality.  A second
        // ledger, read only every seventh step, must agree whenever read.
        use cwcs_model::SmallRng;
        let mut ledger = InterferenceLedger::default();
        let mut lazy = InterferenceLedger::default();
        let mut in_flight: Vec<(Vec<NodeId>, f64)> = Vec::new();
        // Two actions with equal factors on one node: ending one keeps the
        // node decelerated, ending both clears it.
        let shared = vec![NodeId(0), NodeId(1)];
        let mut script: Vec<Option<(Vec<NodeId>, f64)>> = vec![
            Some((shared.clone(), 1.5)),
            Some((vec![NodeId(0)], 1.5)),
            None,
            None,
        ];
        script.reverse();
        let mut rng = SmallRng::seed_from_u64(0x1ed6_e400);
        for step in 0..4_000 {
            let start = match script.pop() {
                Some(scripted) => scripted,
                None if in_flight.is_empty() || rng.bool_with(0.55) => {
                    let mut nodes: Vec<NodeId> = Vec::new();
                    for _ in 0..rng.u32_in_inclusive(1, 3) {
                        let node = NodeId(rng.index(8) as u32);
                        if !nodes.contains(&node) {
                            nodes.push(node);
                        }
                    }
                    Some((nodes, [1.0, 1.3, 1.5, 2.0][rng.index(4)]))
                }
                None => None,
            };
            match start {
                Some((nodes, factor)) => {
                    ledger.start(nodes.iter().copied(), factor);
                    lazy.start(nodes.iter().copied(), factor);
                    in_flight.push((nodes, factor));
                }
                None => {
                    // The scripted ends take the oldest action first.
                    let at = if step < 4 {
                        0
                    } else {
                        rng.index(in_flight.len())
                    };
                    let (nodes, factor) = in_flight.remove(at);
                    ledger.end(nodes.iter().copied(), factor);
                    lazy.end(nodes.iter().copied(), factor);
                }
            }
            let expected = max_factors(&in_flight);
            assert_eq!(*ledger.decelerations(), expected, "step {step}");
            if step % 7 == 0 {
                assert_eq!(*lazy.decelerations(), expected, "lazy, step {step}");
            }
            match step {
                1 => assert_eq!(expected[&NodeId(0)], 1.5),
                2 => assert_eq!(*ledger.decelerations(), BTreeMap::from([(NodeId(0), 1.5)])),
                3 => assert!(expected.is_empty()),
                _ => {}
            }
        }
    }

    #[test]
    fn touched_nodes_are_distinct_and_ordered() {
        let d = demand(1024);
        let resume = |image: u32, to: u32| Action::Resume {
            vm: VmId(0),
            image: NodeId(image),
            to: NodeId(to),
            demand: d,
        };
        let nodes = |action: Action| touched_nodes(&action).collect::<Vec<_>>();
        let migrate = Action::Migrate {
            vm: VmId(0),
            from: NodeId(1),
            to: NodeId(2),
            demand: d,
        };
        assert_eq!(nodes(migrate), vec![NodeId(1), NodeId(2)]);
        assert_eq!(nodes(resume(3, 4)), vec![NodeId(4), NodeId(3)]);
        assert_eq!(nodes(resume(4, 4)), vec![NodeId(4)]);
    }
}
