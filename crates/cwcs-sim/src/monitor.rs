//! The monitoring service: the observation side of the incremental control
//! loop.
//!
//! Entropy "observes the CPU and memory consumptions of the running VMs by
//! requesting an existent monitoring service" (Ganglia in the prototype) and
//! "accumulates new informations about resource usage, which takes about 10
//! seconds" before iterating again.  Re-reading every VM at each observation
//! is O(cluster) work per tick, which a 10 000-node control plane cannot
//! afford when only a handful of VMs changed since the last tick.
//!
//! # The delta protocol
//!
//! The service is therefore built around **deltas**.  The simulated cluster
//! journals every observable change (a VM's demand, state or placement, a
//! node's capacity, a vjob completion — see
//! [`SimulatedCluster::drain_changes`]), and
//! [`MonitoringService::observe`] drains that journal into an
//! [`ObservationDelta`]: the new observations of exactly the VMs and nodes
//! that changed, stamped with a monotone version.  The control loop applies
//! each delta to a persistent [`ClusterView`] — its versioned model of the
//! cluster — which maintains a per-node load index and the set of
//! overloaded nodes incrementally: a delta re-checks only the nodes whose
//! capacity it carries or whose load it moves, so overload detection
//! ([`ClusterView::overloaded_nodes`]) costs O(changes), not O(nodes).  The
//! index is not a copy of the configuration's own load ledger
//! (`Configuration::viability_violations` scans every node): it is the load
//! the loop has *observed*, which lags the cluster by up to a refresh
//! period, and decisions must be taken on that belief.
//!
//! The first observation of a cluster is always *full* (`delta.full`), as is
//! any observation after an arbitrary configuration mutation the journal
//! could not attribute to a specific VM.  Applying a full delta resets the
//! view; applying an incremental one patches it.  The two maintenance modes
//! are bit-identical by construction, and the lockstep suite in `cwcs-core`
//! asserts it end to end.
//!
//! # Refresh period and staleness
//!
//! The service refreshes at most every `refresh_period_secs` of virtual time
//! (10 s in the paper): within the period [`MonitoringService::observe`]
//! returns an **empty** delta without draining the journal — the pending
//! changes are simply reported by the next real observation, so nothing is
//! lost, and the decision module works on slightly stale data exactly like
//! the real system.

use std::collections::{BTreeMap, BTreeSet};

use cwcs_model::{
    CpuCapacity, MemoryMib, NetBandwidth, NodeId, ResourceDemand, ResourceUsage, VjobId, VmId,
    VmState,
};

use crate::cluster::SimulatedCluster;

/// Everything the monitoring service observes about one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmObservation {
    /// Observed CPU demand.
    pub cpu: CpuCapacity,
    /// Allocated memory.
    pub memory: MemoryMib,
    /// Observed network demand.
    pub net: NetBandwidth,
    /// Life-cycle state.
    pub state: VmState,
    /// Hosting node when running.
    pub host: Option<NodeId>,
    /// Node holding the suspended memory image when sleeping.
    pub image: Option<NodeId>,
}

impl VmObservation {
    /// The VM's observed demand vector.
    pub fn demand(&self) -> ResourceDemand {
        ResourceDemand::new(self.cpu, self.memory).with_net(self.net)
    }
}

/// What changed since the previous observation: the unit the incremental
/// control loop consumes.
///
/// An incremental delta (`full == false`) carries the new observations of
/// exactly the VMs and nodes the cluster journaled; a full delta carries
/// every VM and node and resets the receiving [`ClusterView`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationDelta {
    /// The journal version the receiving view must be at (its current
    /// [`ClusterView::version`]) for this delta to apply incrementally.
    pub from_version: u64,
    /// The journal version after this delta.
    pub version: u64,
    /// Virtual time of the observation.
    pub time_secs: f64,
    /// True when this is a full observation (first tick, forced resync, or
    /// an arbitrary configuration mutation happened).
    pub full: bool,
    /// New observations of the changed VMs (every VM when `full`).
    pub vms: BTreeMap<VmId, VmObservation>,
    /// New capacities of the changed nodes (every node when `full`).
    pub node_capacities: BTreeMap<NodeId, ResourceDemand>,
    /// Vjobs whose completion was reported since the previous observation.
    pub completed_vjobs: Vec<VjobId>,
}

impl ObservationDelta {
    /// True when the delta carries no change at all (a within-refresh-period
    /// observation, or genuinely nothing happened).
    pub fn is_empty(&self) -> bool {
        !self.full
            && self.vms.is_empty()
            && self.node_capacities.is_empty()
            && self.completed_vjobs.is_empty()
    }
}

/// The control loop's persistent, versioned model of the cluster, maintained
/// by applying [`ObservationDelta`]s.
///
/// Besides the raw observations, the view keeps a per-node load index
/// (the summed demand of the running VMs it hosts) and the set of nodes
/// that load overflows, both **incrementally**: each applied VM observation
/// debits its previous contribution and credits the new one, and only the
/// nodes so touched (or whose capacity changed) are re-checked, so
/// [`ClusterView::overloaded_nodes`] — the trigger of the repair pass —
/// costs O(overloaded nodes).  The view answers a different question than
/// `Configuration::viability_violations` — what the loop *believes* each
/// node carries, as of the last applied delta — and a stale view must be
/// detectable, not silently corrected by reading the cluster's truth.
#[derive(Debug, Clone, Default)]
pub struct ClusterView {
    /// Version of the last applied delta.
    pub version: u64,
    /// Virtual time of the last applied delta.
    pub time_secs: f64,
    vms: BTreeMap<VmId, VmObservation>,
    /// Node capacities.
    nodes: BTreeMap<NodeId, ResourceDemand>,
    /// Summed demand of the running VMs per node (absent = zero).
    node_load: BTreeMap<NodeId, ResourceDemand>,
    /// Nodes with a known capacity their load exceeds.
    overloaded: BTreeSet<NodeId>,
}

impl ClusterView {
    /// An empty view (version 0); the first applied delta must be full.
    pub fn new() -> Self {
        ClusterView::default()
    }

    /// Apply a delta.  A full delta resets the view; an incremental one
    /// patches the stored observations and the per-node load index, and
    /// re-checks the overload of only the nodes whose capacity it carries
    /// or whose load it moves.
    ///
    /// # Panics
    /// Panics when an incremental delta's `from_version` does not match the
    /// view's version: deltas must be applied in order, without gaps.
    pub fn apply(&mut self, delta: &ObservationDelta) {
        if delta.full {
            self.vms.clear();
            self.nodes.clear();
            self.node_load.clear();
            self.overloaded.clear();
        } else {
            assert_eq!(
                delta.from_version, self.version,
                "observation deltas must be applied in order"
            );
        }
        // A full delta carries every node's capacity, so this covers every
        // node the view knows.
        let mut touched: Vec<NodeId> = delta.node_capacities.keys().copied().collect();
        for (&node, &capacity) in &delta.node_capacities {
            self.nodes.insert(node, capacity);
        }
        for (&vm, &obs) in &delta.vms {
            let old = self.vms.insert(vm, obs);
            if let Some(old) = old {
                if old.state == VmState::Running {
                    if let Some(host) = old.host {
                        self.debit(host, &old.demand());
                        touched.push(host);
                    }
                }
            }
            if obs.state == VmState::Running {
                if let Some(host) = obs.host {
                    self.credit(host, &obs.demand());
                    touched.push(host);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for node in touched {
            let overloaded = self
                .nodes
                .get(&node)
                .is_some_and(|capacity| !self.node_load(node).fits_in(capacity));
            if overloaded {
                self.overloaded.insert(node);
            } else {
                self.overloaded.remove(&node);
            }
        }
        self.version = delta.version;
        self.time_secs = delta.time_secs;
    }

    fn credit(&mut self, node: NodeId, demand: &ResourceDemand) {
        let load = self.node_load.entry(node).or_insert(ResourceDemand::ZERO);
        *load += *demand;
    }

    fn debit(&mut self, node: NodeId, demand: &ResourceDemand) {
        if let Some(load) = self.node_load.get_mut(&node) {
            *load = load.saturating_sub(demand);
            if load.is_zero() {
                self.node_load.remove(&node);
            }
        }
    }

    /// The stored observation of a VM.
    pub fn vm(&self, vm: VmId) -> Option<&VmObservation> {
        self.vms.get(&vm)
    }

    /// All stored VM observations, in id order.
    pub fn vms(&self) -> impl Iterator<Item = (&VmId, &VmObservation)> {
        self.vms.iter()
    }

    /// The stored capacity of a node.
    pub fn node_capacity(&self, node: NodeId) -> Option<ResourceDemand> {
        self.nodes.get(&node).copied()
    }

    /// Number of observed VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of observed nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The observed load (summed running-VM demand) of a node.
    pub fn node_load(&self, node: NodeId) -> ResourceDemand {
        self.node_load
            .get(&node)
            .copied()
            .unwrap_or(ResourceDemand::ZERO)
    }

    /// Nodes whose observed load exceeds their capacity, with their usage,
    /// in node id order — the answer `Configuration::viability_violations`
    /// gives on the cluster itself, here on the observed load index (equal
    /// whenever the view is current).  Read off the overload set
    /// [`ClusterView::apply`] keeps: O(overloaded nodes).
    pub fn overloaded_nodes(&self) -> Vec<(NodeId, ResourceUsage)> {
        self.overloaded
            .iter()
            .map(|&node| {
                let usage = ResourceUsage {
                    used: self.node_load(node),
                    capacity: self.nodes[&node],
                };
                (node, usage)
            })
            .collect()
    }
}

/// The Ganglia-like monitoring service.
#[derive(Debug, Clone)]
pub struct MonitoringService {
    refresh_period_secs: f64,
    /// Virtual time of the last real (journal-draining) observation.
    last_refresh_at: Option<f64>,
    /// Journal version as of that observation.
    last_version: u64,
    /// Virtual time stamped on that observation.
    last_time: f64,
}

impl Default for MonitoringService {
    fn default() -> Self {
        MonitoringService::new(10.0)
    }
}

impl MonitoringService {
    /// A service that refreshes its view at most every
    /// `refresh_period_secs` seconds of virtual time (10 s in the paper).
    pub fn new(refresh_period_secs: f64) -> Self {
        MonitoringService {
            refresh_period_secs,
            last_refresh_at: None,
            last_version: 0,
            last_time: 0.0,
        }
    }

    /// The refresh period.
    pub fn refresh_period_secs(&self) -> f64 {
        self.refresh_period_secs
    }

    /// Observe the cluster: drain its change journal into an
    /// [`ObservationDelta`].
    ///
    /// Within the refresh period of the previous observation this returns an
    /// **empty** delta (stamped with the previous observation's version and
    /// time) without touching the journal: the pending changes are simply
    /// carried by the next real observation.  The first observation, and any
    /// observation after the cluster was marked fully changed, is a full
    /// one.
    pub fn observe(&mut self, cluster: &mut SimulatedCluster) -> ObservationDelta {
        let now = cluster.clock_secs();
        let fresh_enough = self
            .last_refresh_at
            .map(|at| now - at < self.refresh_period_secs)
            .unwrap_or(false);
        if fresh_enough {
            return ObservationDelta {
                from_version: self.last_version,
                version: self.last_version,
                time_secs: self.last_time,
                full: false,
                vms: BTreeMap::new(),
                node_capacities: BTreeMap::new(),
                completed_vjobs: Vec::new(),
            };
        }
        let from_version = self.last_version;
        let changes = cluster.drain_changes();
        let config = cluster.configuration();
        let mut vms = BTreeMap::new();
        let mut node_capacities = BTreeMap::new();
        let observe_vm = |vm: VmId| -> Option<VmObservation> {
            let v = config.vm(vm).ok()?;
            let a = config.assignment(vm).ok()?;
            Some(VmObservation {
                cpu: v.cpu,
                memory: v.memory,
                net: v.net,
                state: a.state,
                host: a.host,
                image: a.image,
            })
        };
        if changes.full {
            for v in config.vms() {
                if let Some(obs) = observe_vm(v.id) {
                    vms.insert(v.id, obs);
                }
            }
            for n in config.nodes() {
                node_capacities.insert(n.id, n.capacity());
            }
        } else {
            for &vm in &changes.vms {
                if let Some(obs) = observe_vm(vm) {
                    vms.insert(vm, obs);
                }
            }
            for &node in &changes.nodes {
                if let Ok(n) = config.node(node) {
                    node_capacities.insert(node, n.capacity());
                }
            }
        }
        self.last_refresh_at = Some(now);
        self.last_version = changes.version;
        self.last_time = now;
        ObservationDelta {
            from_version,
            version: changes.version,
            time_secs: now,
            full: changes.full,
            vms,
            node_capacities,
            completed_vjobs: changes.completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{Configuration, Node, NodeId, Vjob, VjobId, Vm, VmAssignment};
    use cwcs_workload::{VjobSpec, VmWorkProfile};
    use std::collections::BTreeMap as Map;

    fn cluster() -> SimulatedCluster {
        let mut config = Configuration::new();
        config
            .add_node(Node::new(
                NodeId(0),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        config
            .add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        config
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut cluster = SimulatedCluster::new(config);
        let vm = Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1));
        let vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        cluster.register_vjob(&VjobSpec::new(
            vjob,
            vec![vm],
            vec![VmWorkProfile::single_compute(30.0)],
        ));
        cluster.refresh_demands();
        cluster
    }

    #[test]
    fn snapshot_reports_demands_and_states() {
        // A full observation is a snapshot of every VM the cluster holds.
        let mut cluster = cluster();
        let full = MonitoringService::default().observe(&mut cluster);
        assert!(full.full);
        let obs = full.vms[&VmId(0)];
        assert_eq!(obs.cpu, CpuCapacity::cores(1));
        assert_eq!(obs.memory, MemoryMib::mib(512));
        assert_eq!((obs.state, obs.host), (VmState::Running, Some(NodeId(0))));
        assert!(!full.vms.contains_key(&VmId(9)));
    }

    #[test]
    fn first_observation_is_full_then_deltas_shrink() {
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(0.0);
        let first = monitor.observe(&mut cluster);
        assert!(first.full);
        assert_eq!(first.vms.len(), 1);
        assert_eq!(first.node_capacities.len(), 1);

        let mut view = ClusterView::new();
        view.apply(&first);
        assert_eq!(view.vm(VmId(0)).unwrap().cpu, CpuCapacity::cores(1));

        // Nothing happened: the next delta is empty.
        let delta = monitor.observe(&mut cluster);
        assert!(delta.is_empty());
        view.apply(&delta);

        // The VM finishes at t=30; its demand drop is a one-VM delta.
        cluster.advance(35.0, &Map::new());
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.full);
        assert_eq!(delta.vms.len(), 1);
        assert_eq!(delta.vms[&VmId(0)].cpu, CpuCapacity::ZERO);
        assert_eq!(delta.completed_vjobs, vec![VjobId(0)]);
        view.apply(&delta);
        assert_eq!(view.vm(VmId(0)).unwrap().cpu, CpuCapacity::ZERO);
    }

    #[test]
    fn observation_is_cached_within_the_refresh_period() {
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(10.0);
        let first = monitor.observe(&mut cluster);
        assert!(first.full);

        // 5 s later the service serves an empty delta without draining...
        cluster.advance(5.0, &Map::new());
        let cached = monitor.observe(&mut cluster);
        assert!(cached.is_empty());
        assert_eq!(
            cached.time_secs, 0.0,
            "stamped with the last real observation"
        );

        // ...and the demand edge at t=30 (plus the completion) is still
        // reported by the next real observation: nothing is lost.
        cluster.advance(30.0, &Map::new());
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.is_empty());
        assert_eq!(delta.vms[&VmId(0)].cpu, CpuCapacity::ZERO);
        assert_eq!(delta.completed_vjobs, vec![VjobId(0)]);
    }

    #[test]
    fn view_matches_a_fresh_snapshot_across_deltas() {
        // The patched view against one rebuilt from a full observation:
        // every VM observation, node capacity and load index entry.
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        view.apply(&monitor.observe(&mut cluster));
        for _ in 0..4 {
            cluster.advance(10.0, &Map::new());
            view.apply(&monitor.observe(&mut cluster));
            cluster.mark_fully_changed();
            let mut rebuilt = ClusterView::new();
            rebuilt.apply(&MonitoringService::new(0.0).observe(&mut cluster));
            assert!(view.vms().eq(rebuilt.vms()));
            assert_eq!(
                view.node_capacity(NodeId(0)),
                rebuilt.node_capacity(NodeId(0))
            );
            assert_eq!(view.node_load(NodeId(0)), rebuilt.node_load(NodeId(0)));
        }
    }

    #[test]
    fn the_load_index_tracks_moves_incrementally() {
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
        config
            .add_vm(Vm::new(VmId(0), MemoryMib::gib(1), CpuCapacity::cores(1)))
            .unwrap();
        config
            .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let mut cluster = SimulatedCluster::new(config);
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        view.apply(&monitor.observe(&mut cluster));
        assert_eq!(view.node_load(NodeId(0)).memory, MemoryMib::gib(1));

        // A targeted move journals one VM; the index follows.
        cluster
            .configuration_mut_for_vm(VmId(0))
            .set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.full);
        view.apply(&delta);
        assert_eq!(view.node_load(NodeId(0)), ResourceDemand::ZERO);
        assert_eq!(view.node_load(NodeId(1)).memory, MemoryMib::gib(1));
        assert!(view.overloaded_nodes().is_empty());
    }

    #[test]
    fn overloaded_nodes_matches_viability_violations() {
        // Two 1-core VMs on a 1-core node: overloaded.
        let mut config = Configuration::new();
        config
            .add_node(Node::new(
                NodeId(0),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        for i in 0..2 {
            config
                .add_vm(Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
                .unwrap();
            config
                .set_assignment(VmId(i), VmAssignment::running(NodeId(0)))
                .unwrap();
        }
        let mut cluster = SimulatedCluster::new(config);
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        view.apply(&monitor.observe(&mut cluster));
        let from_view = view.overloaded_nodes();
        let from_config = cluster.configuration().viability_violations();
        assert_eq!(from_view, from_config);
        assert_eq!(from_view.len(), 1);
    }

    /// The overload detection the view's set replaced: every node with a
    /// known capacity against its load.
    fn scan(view: &ClusterView) -> Vec<(NodeId, ResourceUsage)> {
        view.nodes
            .iter()
            .filter_map(|(&node, &capacity)| {
                let used = view.node_load(node);
                (!used.fits_in(&capacity)).then_some((node, ResourceUsage { used, capacity }))
            })
            .collect()
    }

    #[test]
    fn the_overload_set_matches_a_scan_on_a_seeded_walk() {
        // 12 VMs on 6 nodes, changed at random: moves, suspends and wakes,
        // demand changes, capacities shrunk and restored, full
        // re-observations — and, by hand, observations of a VM the cluster
        // does not hold on a node the view has no capacity for (now and then
        // with that node's capacity).  After every apply the set equals the
        // scan, and while the view holds exactly the cluster, the
        // configuration's own `viability_violations`.
        use cwcs_model::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x0b5e_2026);
        let mut config = Configuration::new();
        for i in 0..6 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
            config.add_node(node).unwrap();
        }
        for i in 0..12 {
            let vm = Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::percent(50));
            config.add_vm(vm).unwrap();
            let host = NodeId(i % 6);
            config
                .set_assignment(VmId(i), VmAssignment::running(host))
                .unwrap();
        }
        let mut cluster = SimulatedCluster::new(config);
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        // False once a hand-made delta gave a phantom node a capacity.
        let mut current = true;
        let (mut overloaded_steps, mut fulls) = (0, 0);
        for step in 0..3_000 {
            let node = NodeId(rng.index(6) as u32);
            let vm = VmId(rng.index(12) as u32);
            let delta = match rng.index(9) {
                0..=2 => {
                    let next = match cluster.configuration().state(vm).unwrap() {
                        VmState::Running if rng.bool_with(0.2) => VmAssignment::sleeping(node),
                        _ => VmAssignment::running(node),
                    };
                    let config = cluster.configuration_mut_for_vm(vm);
                    config.set_assignment(vm, next).unwrap();
                    monitor.observe(&mut cluster)
                }
                3 | 4 => {
                    let cpu = CpuCapacity::percent(10 * rng.index(11) as u32);
                    let config = cluster.configuration_mut_for_vm(vm);
                    config.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap();
                    monitor.observe(&mut cluster)
                }
                5 => {
                    let cpu = CpuCapacity::cores([1, 2, 2][rng.index(3)]);
                    cluster
                        .set_node_capacity(node, cpu, MemoryMib::gib(4), NetBandwidth::ZERO)
                        .unwrap();
                    monitor.observe(&mut cluster)
                }
                6 if rng.bool_with(0.1) => {
                    cluster.mark_fully_changed();
                    monitor.observe(&mut cluster)
                }
                7 => {
                    let host = NodeId(6 + rng.index(2) as u32);
                    let phantom = VmObservation {
                        cpu: CpuCapacity::cores(3),
                        memory: MemoryMib::mib(512),
                        net: NetBandwidth::ZERO,
                        state: VmState::Running,
                        host: Some(host),
                        image: None,
                    };
                    let mut node_capacities = BTreeMap::new();
                    if rng.bool_with(0.2) {
                        let capacity =
                            ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(4));
                        node_capacities.insert(host, capacity);
                        current = false;
                    }
                    ObservationDelta {
                        from_version: view.version,
                        version: view.version,
                        time_secs: view.time_secs,
                        full: false,
                        vms: BTreeMap::from([(VmId(100 + rng.index(2) as u32), phantom)]),
                        node_capacities,
                        completed_vjobs: Vec::new(),
                    }
                }
                _ => monitor.observe(&mut cluster),
            };
            if delta.full {
                current = true;
                fulls += 1;
            }
            view.apply(&delta);
            let overloaded = view.overloaded_nodes();
            assert_eq!(overloaded, scan(&view), "step {step}");
            if current {
                let truth = cluster.configuration().viability_violations();
                assert_eq!(overloaded, truth, "step {step}");
            }
            overloaded_steps += !overloaded.is_empty() as usize;
        }
        assert!(fulls >= 5, "{fulls} full observations");
        assert!(
            (500..2_500).contains(&overloaded_steps),
            "{overloaded_steps} steps with an overload"
        );
    }

    #[test]
    fn node_capacity_changes_flow_through_the_delta() {
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        view.apply(&monitor.observe(&mut cluster));
        assert!(view.overloaded_nodes().is_empty());
        cluster
            .set_node_capacity(
                NodeId(0),
                CpuCapacity::percent(50),
                MemoryMib::gib(4),
                NetBandwidth::ZERO,
            )
            .unwrap();
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.full);
        assert_eq!(delta.node_capacities.len(), 1);
        view.apply(&delta);
        assert_eq!(
            view.overloaded_nodes().len(),
            1,
            "the degraded node no longer fits its running VM"
        );
    }

    #[test]
    #[should_panic(expected = "applied in order")]
    fn out_of_order_deltas_are_rejected() {
        let mut view = ClusterView::new();
        view.apply(&ObservationDelta {
            from_version: 0,
            version: 3,
            time_secs: 0.0,
            full: true,
            vms: BTreeMap::new(),
            node_capacities: BTreeMap::new(),
            completed_vjobs: Vec::new(),
        });
        view.apply(&ObservationDelta {
            from_version: 7,
            version: 9,
            time_secs: 1.0,
            full: false,
            vms: BTreeMap::new(),
            node_capacities: BTreeMap::new(),
            completed_vjobs: Vec::new(),
        });
    }

    #[test]
    fn default_period_matches_the_paper() {
        assert_eq!(MonitoringService::default().refresh_period_secs(), 10.0);
    }
}
