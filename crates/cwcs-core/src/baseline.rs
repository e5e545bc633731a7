//! The static-allocation FCFS baseline of Section 5.2 (Figure 12).
//!
//! This is the behaviour of a traditional resource management system: each
//! vjob receives a *static* reservation — one full processing unit and the
//! full memory of each of its VMs — for its whole lifetime, whatever the VMs
//! actually consume.  Vjobs start in strict submission order (no overtaking,
//! no preemption, no migration) and their resources are only released when
//! the job completes.
//!
//! The report gives the per-vjob start/end times (the allocation diagram of
//! Figure 12), the utilization samples used by Figure 13 and the global
//! completion time compared against the Entropy run (250 min vs 150 min in
//! the paper).

use std::collections::BTreeMap;

use cwcs_model::{Configuration, CpuCapacity, NodeId, ResourceDemand, VjobId, VmAssignment, VmId};
use cwcs_sim::{ClusterEvent, SimulatedCluster, UtilizationSample};
use cwcs_workload::VjobSpec;

use crate::ffd::{pack_decreasing, FfdScratch, FreeCapacityIndex};

/// Start/end record of one vjob (one bar of Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VjobSchedule {
    /// The vjob.
    pub vjob: VjobId,
    /// Virtual time at which all its VMs were started.
    pub start_secs: f64,
    /// Virtual time at which the job completed and its VMs were stopped.
    pub end_secs: Option<f64>,
}

/// Outcome of a static FCFS run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Per-vjob schedule, in submission order.
    pub schedules: Vec<VjobSchedule>,
    /// Utilization samples, one per scheduling period.
    pub utilization: Vec<UtilizationSample>,
    /// Time at which the last vjob completed (`None` when the iteration
    /// bound was reached first).
    pub completion_time_secs: Option<f64>,
}

/// The static FCFS scheduler.
#[derive(Debug, Clone)]
pub struct StaticFcfsBaseline {
    /// Scheduling period, in seconds (how often the queue is re-examined).
    pub(crate) period_secs: f64,
    /// Safety bound on the number of periods simulated.
    pub(crate) max_periods: usize,
}

impl Default for StaticFcfsBaseline {
    fn default() -> Self {
        StaticFcfsBaseline {
            period_secs: 30.0,
            max_periods: 100_000,
        }
    }
}

impl StaticFcfsBaseline {
    /// Run the baseline on a simulated cluster.  The VMs of every spec must
    /// already exist in the cluster configuration (in the Waiting state).
    pub fn run(&self, mut cluster: SimulatedCluster, specs: &[VjobSpec]) -> BaselineReport {
        for spec in specs {
            cluster.register_vjob(spec);
        }

        // Submission order.
        let mut queue: Vec<&VjobSpec> = specs.iter().collect();
        queue.sort_by_key(|s| (s.vjob.submission_order, s.vjob.id.0));

        // Static reservations currently held, per node.
        let mut reserved: BTreeMap<NodeId, ResourceDemand> = cluster
            .configuration()
            .node_ids()
            .into_iter()
            .map(|n| (n, ResourceDemand::ZERO))
            .collect();
        // Nodes reserved by each running vjob, to release on completion.
        let mut holdings: BTreeMap<VjobId, Vec<(NodeId, ResourceDemand)>> = BTreeMap::new();

        let mut schedules: BTreeMap<VjobId, VjobSchedule> = BTreeMap::new();
        let mut utilization = Vec::new();
        let mut next_to_start = 0usize;
        let mut completed = 0usize;

        for _ in 0..self.max_periods {
            // Start as many head-of-queue vjobs as fit (strict FCFS: stop at
            // the first that does not fit).
            while next_to_start < queue.len() {
                let spec = queue[next_to_start];
                match Self::reserve_vjob(cluster.configuration(), spec, &reserved) {
                    Some(placement) => {
                        let mut held = Vec::new();
                        for (&vm, &node) in &placement {
                            let reservation = Self::reservation_of(cluster.configuration(), vm);
                            *reserved.get_mut(&node).expect("node exists") += reservation;
                            held.push((node, reservation));
                            cluster
                                .configuration_mut()
                                .set_assignment(vm, VmAssignment::running(node))
                                .expect("placement is valid");
                        }
                        holdings.insert(spec.vjob.id, held);
                        schedules.insert(
                            spec.vjob.id,
                            VjobSchedule {
                                vjob: spec.vjob.id,
                                start_secs: cluster.clock_secs(),
                                end_secs: None,
                            },
                        );
                        next_to_start += 1;
                    }
                    None => break,
                }
            }

            // Let the applications progress for one period.
            let events = cluster.advance(self.period_secs, &BTreeMap::new());
            for event in events {
                let ClusterEvent::VjobCompleted(id) = event;
                // Stop the VMs and release the reservation.
                if let Some(spec) = specs.iter().find(|s| s.vjob.id == id) {
                    for &vm in &spec.vjob.vms {
                        cluster
                            .configuration_mut()
                            .set_assignment(vm, VmAssignment::terminated())
                            .expect("vm exists");
                    }
                }
                if let Some(held) = holdings.remove(&id) {
                    for (node, demand) in held {
                        let entry = reserved.get_mut(&node).expect("node exists");
                        *entry = entry.saturating_sub(&demand);
                    }
                }
                if let Some(schedule) = schedules.get_mut(&id) {
                    schedule.end_secs = Some(cluster.clock_secs());
                }
                completed += 1;
            }

            utilization.push(cluster.utilization());

            if completed == specs.len() {
                break;
            }
        }

        let completion_time_secs = if completed == specs.len() {
            Some(cluster.clock_secs())
        } else {
            None
        };
        let mut ordered: Vec<VjobSchedule> = schedules.into_values().collect();
        ordered.sort_by(|a, b| a.start_secs.partial_cmp(&b.start_secs).unwrap());
        BaselineReport {
            schedules: ordered,
            utilization,
            completion_time_secs,
        }
    }

    /// The static reservation of one VM: a full processing unit plus its
    /// memory, whatever it currently consumes (this is exactly what the
    /// batch-scheduler model of the paper reserves).
    fn reservation_of(config: &Configuration, vm: VmId) -> ResourceDemand {
        let v = config.vm(vm).expect("vm exists");
        ResourceDemand::new(CpuCapacity::cores(1), v.memory)
    }

    /// First-fit-decreasing placement of the vjob's reservations on the
    /// remaining capacity, or `None` when it does not fit.
    fn reserve_vjob(
        config: &Configuration,
        spec: &VjobSpec,
        reserved: &BTreeMap<NodeId, ResourceDemand>,
    ) -> Option<BTreeMap<VmId, NodeId>> {
        let mut free = FreeCapacityIndex::new(
            config
                .nodes()
                .map(|n| {
                    let used = reserved.get(&n.id).copied().unwrap_or(ResourceDemand::ZERO);
                    (n.id, n.capacity().saturating_sub(&used))
                })
                .collect(),
        );
        let vms = &spec.vjob.vms;
        let needs: Vec<ResourceDemand> = vms
            .iter()
            .map(|&vm| Self::reservation_of(config, vm))
            .collect();
        // Every reservation is one core, so the biggest memory goes first;
        // equal ones keep the vjob's own VM order.
        let mut scratch = FfdScratch::default();
        let slots = pack_decreasing(&needs, |item| item, |_| None, &mut free, &mut scratch)?;
        Some(
            vms.iter()
                .zip(slots)
                .map(|(&vm, &slot)| (vm, free.node_at(slot)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{MemoryMib, NetBandwidth, Node, Vjob, Vm};
    use cwcs_workload::{VmWorkProfile, WorkPhase};

    fn scenario(
        node_count: u32,
        vjob_count: u32,
        vms_per_vjob: u32,
        work_secs: f64,
    ) -> (SimulatedCluster, Vec<VjobSpec>) {
        let mut config = Configuration::new();
        for i in 0..node_count {
            config
                .add_node(Node::new(
                    NodeId(i),
                    CpuCapacity::cores(2),
                    MemoryMib::gib(4),
                ))
                .unwrap();
        }
        let mut specs = Vec::new();
        let mut next_vm = 0u32;
        for j in 0..vjob_count {
            let vm_ids: Vec<VmId> = (0..vms_per_vjob)
                .map(|_| {
                    let id = VmId(next_vm);
                    next_vm += 1;
                    id
                })
                .collect();
            let vms: Vec<Vm> = vm_ids
                .iter()
                .map(|&id| Vm::new(id, MemoryMib::mib(512), CpuCapacity::cores(1)))
                .collect();
            for vm in &vms {
                config.add_vm(vm.clone()).unwrap();
            }
            let vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
            let profiles = vms
                .iter()
                .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
                .collect();
            specs.push(VjobSpec::new(vjob, vms, profiles));
        }
        (SimulatedCluster::new(config), specs)
    }

    #[test]
    fn everything_fits_runs_in_parallel() {
        let (cluster, specs) = scenario(4, 2, 3, 60.0);
        let report = StaticFcfsBaseline::default().run(cluster, &specs);
        let completion = report.completion_time_secs.unwrap();
        assert!(completion < 2.0 * 60.0 + 90.0, "both vjobs run together");
        assert_eq!(report.schedules.len(), 2);
        assert!(report.schedules.iter().all(|s| s.end_secs.is_some()));
    }

    #[test]
    fn strict_fcfs_serializes_when_the_cluster_is_full() {
        // 1 node (2 reservations), 2 vjobs of 2 VMs: the second starts only
        // after the first completes.
        let (cluster, specs) = scenario(1, 2, 2, 60.0);
        let report = StaticFcfsBaseline::default().run(cluster, &specs);
        let first = report.schedules[0];
        let second = report.schedules[1];
        assert!(second.start_secs >= first.end_secs.unwrap() - 1e-9);
        assert!(report.completion_time_secs.unwrap() >= 120.0);
    }

    #[test]
    fn head_of_queue_blocks_later_jobs() {
        // 4 cores; vjob 1 is widened to 3 VMs.  Once vjob 0 holds 2 cores,
        // vjob 1 cannot start but vjob 2 (2 VMs) could: strict FCFS forbids
        // vjob 2 from overtaking the blocked head of the queue.
        let (mut cluster, mut specs) = scenario(2, 3, 2, 30.0);
        let wide = Vm::new(VmId(6), MemoryMib::mib(512), CpuCapacity::cores(1));
        cluster.configuration_mut().add_vm(wide.clone()).unwrap();
        specs[1].vjob.vms.push(wide.id);
        specs[1].vms.push(wide);
        specs[1]
            .profiles
            .push(VmWorkProfile::new(vec![WorkPhase::compute(30.0)]));
        let report = StaticFcfsBaseline::default().run(cluster, &specs);
        let start = |vjob: u32| {
            let schedule = report.schedules.iter().find(|s| s.vjob == VjobId(vjob));
            schedule.unwrap().start_secs
        };
        assert!(start(1) >= 30.0 - 1e-9, "vjob 1 waits for vjob 0's cores");
        assert!(start(2) >= start(1), "vjob 2 must not overtake vjob 1");
    }

    #[test]
    fn reservations_ignore_actual_demand() {
        // Idle VMs (zero CPU demand) still hold a full processing unit under
        // the static policy: a second vjob cannot share the node.
        let (mut cluster, mut specs) = scenario(1, 2, 2, 60.0);
        // Make the first vjob's VMs idle from the start.
        for spec in specs.iter_mut().take(1) {
            for vm in &spec.vjob.vms {
                cluster
                    .configuration_mut()
                    .set_vm_demand(*vm, CpuCapacity::ZERO, NetBandwidth::ZERO)
                    .unwrap();
            }
            spec.profiles = spec
                .profiles
                .iter()
                .map(|_| VmWorkProfile::new(vec![WorkPhase::idle(60.0)]))
                .collect();
        }
        let report = StaticFcfsBaseline::default().run(cluster, &specs);
        let first = report.schedules[0];
        let second = report.schedules[1];
        assert!(
            second.start_secs >= first.end_secs.unwrap() - 1e-9,
            "static reservations serialize the vjobs even though the first one idles"
        );
    }

    #[test]
    fn utilization_samples_are_collected() {
        let (cluster, specs) = scenario(2, 2, 2, 45.0);
        let report = StaticFcfsBaseline::default().run(cluster, &specs);
        assert!(!report.utilization.is_empty());
        assert!(report.utilization[0].running_vms > 0);
    }
}
