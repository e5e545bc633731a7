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
//! # An observation is a snapshot, a delta is a diff
//!
//! A [`Configuration`] is a persistent value: a clone shares every chunk
//! (O(chunks)), and `changed_vms` / `changed_nodes` compare two clones in
//! O(chunks + entries of the chunks written since they parted).  So
//! [`MonitoringService::observe`] takes a snapshot — a clone of the cluster's
//! configuration — and reports it as an [`ObservationDelta`]: the snapshot
//! and the VMs and nodes that differ from the previous snapshot, stamped
//! with the cluster's change version.  Vjob completions are not observed
//! here: they are the events of [`SimulatedCluster::advance`], which the
//! advancing caller reads at once rather than a refresh period later.
//! The service keeps the last snapshot as its [`ClusterView`]
//! ([`MonitoringService::view`]), whose overload detection
//! ([`ClusterView::overloaded_nodes`]) is the snapshot ledger's own overload
//! set: O(overloaded nodes).  The view is the configuration the loop
//! *observed*, which lags the cluster by up to a refresh period.  The
//! control loop exposes it and syncs its solver state from the deltas, but
//! decides and plans on the cluster's own configuration, whose ledger is
//! never stale.
//!
//! The first observation of a cluster, and the first after
//! [`MonitoringService::resync`], diffs against the empty configuration: it
//! is *full* (`delta.full`) and lists every VM and node.  A full and an
//! incremental observation of the same cluster install the same snapshot,
//! so the two observation modes are bit-identical by construction; the
//! lockstep suite in `cwcs-core` asserts it end to end.
//!
//! # Refresh period and staleness
//!
//! The service refreshes at most every `refresh_period_secs` of virtual time
//! (10 s in the paper): within the period [`MonitoringService::observe`]
//! returns the previous snapshot with an **empty** diff.  The next real
//! observation diffs against that same snapshot, so every change made in
//! between is reported then and nothing is lost.

use cwcs_model::{Configuration, NodeId, ResourceDemand, ResourceUsage, VmId};

use crate::cluster::SimulatedCluster;

/// One observation of the cluster: the unit the incremental control loop
/// consumes.
///
/// `snapshot` is the configuration observed; `vms` and `node_capacities`
/// list what differs from the previous observation's snapshot (every VM and
/// node when `full`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationDelta {
    /// The cluster's change version as of the observation.
    pub version: u64,
    /// Virtual time of the observation.
    pub time_secs: f64,
    /// True when the diff was taken against the empty configuration: the
    /// first observation, or the first after a resync.
    pub full: bool,
    /// The observed configuration.
    pub snapshot: Configuration,
    /// The VMs of `snapshot` whose record or assignment differs from the
    /// previous snapshot, in id order.
    pub vms: Vec<VmId>,
    /// The nodes of `snapshot` whose record differs from the previous
    /// snapshot, with their capacity, in id order.
    pub node_capacities: Vec<(NodeId, ResourceDemand)>,
}

impl ObservationDelta {
    /// True when the delta carries no change at all (a within-refresh-period
    /// observation, or genuinely nothing happened).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        !self.full && self.vms.is_empty() && self.node_capacities.is_empty()
    }
}

/// The control loop's view of the cluster: the snapshot of the last applied
/// [`ObservationDelta`], with its version and time.  It answers what the
/// loop *believes* each node carries, which a stale view may get wrong; it
/// is never corrected by reading the cluster's truth.
#[derive(Debug, Clone, Default)]
pub struct ClusterView {
    /// Version of the last applied delta.
    pub version: u64,
    /// Virtual time of the last applied delta.
    pub(crate) time_secs: f64,
    snapshot: Configuration,
}

impl ClusterView {
    /// An empty view (version 0, no node, no VM).
    pub fn new() -> Self {
        ClusterView::default()
    }

    /// Install a delta's snapshot: O(chunks), however much it changed.
    pub fn apply(&mut self, delta: &ObservationDelta) {
        self.version = delta.version;
        self.time_secs = delta.time_secs;
        self.snapshot = delta.snapshot.clone();
    }

    /// The configuration observed by the last applied delta.
    pub fn configuration(&self) -> &Configuration {
        &self.snapshot
    }

    /// Nodes whose observed load exceeds their capacity, with their usage,
    /// in node id order: the observed snapshot's `viability_violations`,
    /// O(overloaded nodes).
    pub fn overloaded_nodes(&self) -> Vec<(NodeId, ResourceUsage)> {
        self.snapshot.viability_violations()
    }
}

/// The Ganglia-like monitoring service.
#[derive(Debug, Clone)]
pub struct MonitoringService {
    refresh_period_secs: f64,
    /// Virtual time of the last real observation.
    last_refresh_at: Option<f64>,
    /// That observation: its version, time and snapshot.
    last: ClusterView,
    /// Set until the next real observation, which then diffs against the
    /// empty configuration.
    resync: bool,
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
            last: ClusterView::new(),
            resync: true,
        }
    }

    /// The refresh period.
    #[cfg(test)]
    pub(crate) fn refresh_period_secs(&self) -> f64 {
        self.refresh_period_secs
    }

    /// The last observation: the snapshot every [`observe`](Self::observe)
    /// returns until the next real one, with its version and time (an
    /// empty view before the first).
    pub fn view(&self) -> &ClusterView {
        &self.last
    }

    /// Make the next real observation a full one: it diffs against the
    /// empty configuration instead of the previous snapshot.
    pub fn resync(&mut self) {
        self.resync = true;
    }

    /// Observe the cluster: snapshot its configuration and diff it against
    /// the previous snapshot.
    ///
    /// Within the refresh period of the previous observation this returns
    /// that observation's snapshot, version and time with an **empty** diff,
    /// and reads nothing of the cluster: the changes since are carried by
    /// the next real observation.
    pub fn observe(&mut self, cluster: &mut SimulatedCluster) -> ObservationDelta {
        let now = cluster.clock_secs();
        let fresh_enough = self
            .last_refresh_at
            .is_some_and(|at| now - at < self.refresh_period_secs);
        if fresh_enough {
            return ObservationDelta {
                version: self.last.version,
                time_secs: self.last.time_secs,
                full: false,
                snapshot: self.last.snapshot.clone(),
                vms: Vec::new(),
                node_capacities: Vec::new(),
            };
        }
        let full = std::mem::take(&mut self.resync);
        if full {
            self.last.snapshot = Configuration::new();
        }
        let snapshot = cluster.configuration().clone();
        let previous = &self.last.snapshot;
        let vms = snapshot.changed_vms(previous);
        let vms = vms.filter(|&vm| snapshot.vm(vm).is_ok()).collect();
        let node_capacities = snapshot
            .changed_nodes(previous)
            .filter_map(|node| Some((node, snapshot.node(node).ok()?.capacity())))
            .collect();
        let delta = ObservationDelta {
            version: cluster.change_version(),
            time_secs: now,
            full,
            snapshot,
            vms,
            node_capacities,
        };
        self.last_refresh_at = Some(now);
        self.last.apply(&delta);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{
        CpuCapacity, MemoryMib, NetBandwidth, Node, SmallRng, Vjob, VjobId, Vm, VmAssignment,
        VmState,
    };
    use cwcs_workload::{VjobSpec, VmWorkProfile, WorkPhase};
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
        // A full observation lists every VM the cluster holds, and its
        // snapshot records each one's demand and state.
        let mut cluster = cluster();
        let full = MonitoringService::default().observe(&mut cluster);
        assert!(full.full);
        assert_eq!(full.vms, vec![VmId(0)]);
        let vm = full.snapshot.vm(VmId(0)).unwrap();
        assert_eq!(
            (vm.cpu, vm.memory),
            (CpuCapacity::cores(1), MemoryMib::mib(512))
        );
        let assignment = full.snapshot.assignment(VmId(0)).unwrap();
        assert_eq!(assignment, VmAssignment::running(NodeId(0)));
        assert!(full.snapshot.vm(VmId(9)).is_err());
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
        let cpu = |view: &ClusterView| view.configuration().vm(VmId(0)).unwrap().cpu;
        assert_eq!(cpu(&view), CpuCapacity::cores(1));

        // Nothing happened: the next delta is empty.
        let delta = monitor.observe(&mut cluster);
        assert!(delta.is_empty());
        view.apply(&delta);

        // The VM finishes at t=30; its demand drop is a one-VM delta.
        cluster.advance(35.0, &Map::new());
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.full);
        assert_eq!(delta.vms, vec![VmId(0)]);
        view.apply(&delta);
        assert_eq!(cpu(&view), CpuCapacity::ZERO);
    }

    #[test]
    fn observation_is_cached_within_the_refresh_period() {
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(10.0);
        let first = monitor.observe(&mut cluster);
        assert!(first.full);

        // 5 s later the service serves the same snapshot, with an empty
        // diff...
        cluster.advance(5.0, &Map::new());
        let cached = monitor.observe(&mut cluster);
        assert!(cached.is_empty());
        assert_eq!(cached.snapshot, first.snapshot);
        assert_eq!(
            cached.time_secs, 0.0,
            "stamped with the last real observation"
        );

        // ...and the demand edge at t=30 is still reported by the next real
        // observation: nothing is lost.
        cluster.advance(30.0, &Map::new());
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.is_empty());
        assert_eq!(delta.vms, vec![VmId(0)]);
        assert_eq!(delta.snapshot.vm(VmId(0)).unwrap().cpu, CpuCapacity::ZERO);
    }

    #[test]
    fn view_matches_a_fresh_snapshot_across_deltas() {
        // The view after a run of deltas against one built from a single
        // full observation by a fresh service.
        let mut cluster = cluster();
        let mut monitor = MonitoringService::new(0.0);
        let mut view = ClusterView::new();
        view.apply(&monitor.observe(&mut cluster));
        for _ in 0..4 {
            cluster.advance(10.0, &Map::new());
            view.apply(&monitor.observe(&mut cluster));
            let mut rebuilt = ClusterView::new();
            rebuilt.apply(&MonitoringService::new(0.0).observe(&mut cluster));
            assert_eq!(view.configuration(), rebuilt.configuration());
            assert_eq!(view.version, rebuilt.version);
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
        let used = |view: &ClusterView, node| view.configuration().usage(node).unwrap().used;
        assert_eq!(used(&view, NodeId(0)).memory, MemoryMib::gib(1));

        // A targeted move is a one-VM diff; the observed ledger follows.
        cluster
            .configuration_mut_for_vm(VmId(0))
            .set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        let delta = monitor.observe(&mut cluster);
        assert!(!delta.full);
        assert_eq!(delta.vms, vec![VmId(0)]);
        view.apply(&delta);
        assert_eq!(used(&view, NodeId(0)), ResourceDemand::ZERO);
        assert_eq!(used(&view, NodeId(1)).memory, MemoryMib::gib(1));
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

    /// The diff the walk holds every real observation to: a per-id
    /// comparison of two snapshots, every VM and node of `now` read.
    fn brute_force_diff(
        now: &Configuration,
        before: &Configuration,
    ) -> (Vec<VmId>, Vec<(NodeId, ResourceDemand)>) {
        let vms = now.vms().filter(|vm| {
            before.vm(vm.id).ok() != Some(*vm) || before.assignment(vm.id) != now.assignment(vm.id)
        });
        let nodes = now
            .nodes()
            .filter(|node| before.node(node.id).ok() != Some(*node));
        let vms = vms.map(|vm| vm.id).collect();
        (vms, nodes.map(|node| (node.id, node.capacity())).collect())
    }

    #[test]
    fn the_diff_matches_a_per_id_comparison_on_a_seeded_walk() {
        // Vjobs admitted over time on up to 8 nodes, changed at random:
        // targeted moves, suspends and wakes, demand changes, capacities
        // shrunk and restored, arbitrary `configuration_mut` edits (nodes
        // added, VMs placed), resyncs, and advances that fire phase edges —
        // observed under three refresh periods, so that
        // many observations are cached.  After every real observation the
        // view holds the cluster's configuration and the diff is the
        // per-id comparison with the previous real snapshot; a cached one
        // repeats that snapshot with an empty diff.
        const STEPS: usize = 800;
        let mut rng = SmallRng::seed_from_u64(0xd1ff_2026);
        for period in [0.0, 4.0, 10.0] {
            let mut config = Configuration::new();
            for i in 0..6 {
                let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
                config.add_node(node).unwrap();
            }
            let mut cluster = SimulatedCluster::new(config);
            let mut monitor = MonitoringService::new(period);
            let mut view = ClusterView::new();
            let (mut previous, mut last_real_at) = (Configuration::new(), None);
            let (mut vjobs, mut nodes) = (0u32, 6u32);
            let (mut expect_full, mut fulls, mut cached) = (true, 0, 0);
            for step in 0..STEPS {
                let node = NodeId(rng.index(nodes as usize) as u32);
                let vm = VmId(rng.index(2 * vjobs.max(1) as usize) as u32);
                let known = cluster.configuration().vm(vm).is_ok();
                match rng.index(10) {
                    0 if vjobs < 40 => {
                        let ids = vec![VmId(2 * vjobs), VmId(2 * vjobs + 1)];
                        let vms: Vec<Vm> = ids
                            .iter()
                            .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
                            .collect();
                        let work = 10.0 + rng.f64_in(0.0, 40.0);
                        let phases = vec![WorkPhase::compute(work), WorkPhase::idle(work)];
                        let profiles = vec![VmWorkProfile::new(phases); 2];
                        let vjob = Vjob::new(VjobId(vjobs), ids, vjobs as u64);
                        cluster
                            .admit_vjob(&VjobSpec::new(vjob, vms, profiles))
                            .unwrap();
                        vjobs += 1;
                    }
                    1 | 2 if known => {
                        let next = match cluster.configuration().state(vm).unwrap() {
                            VmState::Running if rng.bool_with(0.3) => VmAssignment::sleeping(node),
                            _ => VmAssignment::running(node),
                        };
                        let config = cluster.configuration_mut_for_vm(vm);
                        config.set_assignment(vm, next).unwrap();
                    }
                    3 if known => {
                        let cpu = CpuCapacity::percent(10 * rng.index(11) as u32);
                        let config = cluster.configuration_mut_for_vm(vm);
                        config.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap();
                    }
                    4 => {
                        let cpu = CpuCapacity::cores([1, 2, 2][rng.index(3)]);
                        let memory = MemoryMib::gib(4);
                        let net = NetBandwidth::ZERO;
                        cluster.set_node_capacity(node, cpu, memory, net).unwrap();
                    }
                    5 if nodes < 8 && rng.bool_with(0.1) => {
                        let added =
                            Node::new(NodeId(nodes), CpuCapacity::cores(2), MemoryMib::gib(4));
                        cluster.configuration_mut().add_node(added).unwrap();
                        nodes += 1;
                    }
                    5 if known => {
                        let config = cluster.configuration_mut();
                        config
                            .set_assignment(vm, VmAssignment::running(node))
                            .unwrap();
                    }
                    6 if rng.bool_with(0.05) => {
                        monitor.resync();
                        expect_full = true;
                    }
                    _ => {
                        cluster.advance(rng.f64_in(0.0, 6.0), &Map::new());
                    }
                }
                // The last step lets a whole period pass, so that it observes
                // for real whatever the cached window before it held.
                if step == STEPS - 1 {
                    cluster.advance(period, &Map::new());
                }
                cluster.refresh_demands();
                let now = cluster.clock_secs();
                let real = last_real_at.map_or(true, |at| now - at >= period);
                let delta = monitor.observe(&mut cluster);
                view.apply(&delta);
                let at = format!("{period} s, step {step}");
                if !real {
                    // A cached observation: the previous snapshot, no diff.
                    assert_eq!(delta.snapshot, previous, "{at}");
                    assert!(delta.is_empty(), "{at}");
                    cached += 1;
                    continue;
                }
                last_real_at = Some(now);
                assert_eq!(view.configuration(), cluster.configuration(), "{at}");
                assert_eq!(view.version, cluster.change_version(), "{at}");
                assert_eq!(delta.full, expect_full, "{at}");
                if std::mem::take(&mut expect_full) {
                    previous = Configuration::new();
                    fulls += 1;
                }
                let (vms, nodes) = brute_force_diff(&delta.snapshot, &previous);
                assert_eq!(delta.vms, vms, "{at}");
                assert_eq!(delta.node_capacities, nodes, "{at}");
                previous = delta.snapshot;
            }
            assert!(fulls >= 2, "{period} s: {fulls} full observations");
            assert_eq!(cached > 100, period > 0.0, "{period} s: {cached} cached");
        }
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
    fn default_period_matches_the_paper() {
        assert_eq!(MonitoringService::default().refresh_period_secs(), 10.0);
    }
}
