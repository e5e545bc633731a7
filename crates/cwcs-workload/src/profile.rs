//! Per-VM work profiles: what a VM does over its lifetime.
//!
//! A profile is a sequence of [`WorkPhase`]s.  During a *compute* phase the
//! VM demands a full processing unit ("an entire processing unit if it is
//! supposed to execute a computation", Section 5.1); during a communication
//! or idle phase it demands only a small fraction.  A phase may additionally
//! carry a **network demand** — the NIC bandwidth the application pushes
//! during that phase (a NAS-Grid transfer phase moves data between stages,
//! a compute phase barely touches the network).  The simulator advances the
//! profile while the VM is in the Running state; when every phase of every
//! VM of a vjob has completed, the vjob signals its termination to the
//! control loop, exactly like the NAS Grid applications of the paper signal
//! Entropy to stop their vjob.

use cwcs_model::{CpuCapacity, NetBandwidth, Vjob, Vm};

/// One phase of work: a CPU (and optionally network) demand held for a given
/// amount of (full-speed) execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkPhase {
    /// CPU demand during the phase.
    pub cpu_demand: CpuCapacity,
    /// Network demand during the phase (zero for CPU-only workloads).
    pub net_demand: NetBandwidth,
    /// Amount of work in the phase, expressed as seconds of execution at
    /// full speed (a decelerated VM progresses proportionally slower).
    pub duration_secs: f64,
}

impl WorkPhase {
    /// A computation phase: one full processing unit for `duration_secs`.
    pub fn compute(duration_secs: f64) -> Self {
        WorkPhase {
            cpu_demand: CpuCapacity::cores(1),
            net_demand: NetBandwidth::ZERO,
            duration_secs,
        }
    }

    /// A communication / idle phase: a small CPU demand for `duration_secs`.
    pub fn idle(duration_secs: f64) -> Self {
        WorkPhase {
            cpu_demand: CpuCapacity::percent(10),
            net_demand: NetBandwidth::ZERO,
            duration_secs,
        }
    }

    /// A data-transfer phase: a small CPU demand plus a sustained network
    /// demand for `duration_secs` (the shape of a NAS-Grid stage handoff).
    pub fn transfer(duration_secs: f64, net: NetBandwidth) -> Self {
        WorkPhase::idle(duration_secs).with_net(net)
    }

    /// Attach a network demand to this phase.
    pub fn with_net(mut self, net: NetBandwidth) -> Self {
        self.net_demand = net;
        self
    }
}

/// The full work profile of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmWorkProfile {
    phases: Vec<WorkPhase>,
}

impl VmWorkProfile {
    /// Build a profile from its phases.
    pub fn new(phases: Vec<WorkPhase>) -> Self {
        VmWorkProfile { phases }
    }

    /// A profile with a single computation phase of the given length.
    pub fn single_compute(duration_secs: f64) -> Self {
        VmWorkProfile::new(vec![WorkPhase::compute(duration_secs)])
    }

    /// The phases of the profile.
    pub(crate) fn phases(&self) -> &[WorkPhase] {
        &self.phases
    }

    /// Total work of the profile, in full-speed seconds.
    pub fn total_work_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_secs).sum()
    }

    /// CPU demand after `progress_secs` seconds of full-speed execution.
    /// Once the profile is exhausted the VM idles (zero demand).
    pub fn demand_at(&self, progress_secs: f64) -> CpuCapacity {
        self.phase_after(progress_secs)
            .map(|(p, _)| p.cpu_demand)
            .unwrap_or(CpuCapacity::ZERO)
    }

    /// Network demand after `progress_secs` seconds of full-speed execution.
    /// Once the profile is exhausted the VM pushes nothing.
    #[cfg(test)]
    pub(crate) fn net_demand_at(&self, progress_secs: f64) -> NetBandwidth {
        self.phase_after(progress_secs)
            .map(|(p, _)| p.net_demand)
            .unwrap_or(NetBandwidth::ZERO)
    }

    /// The phase active after `progress_secs` seconds of full-speed
    /// execution and the cumulative edge that ends it, or `None` once the
    /// profile is exhausted.  An edge within 1e-9 of `progress_secs` counts
    /// as reached: the one rule demands, phase boundaries and completion
    /// share, so no VM is ever on two sides of the same edge.
    pub fn phase_after(&self, progress_secs: f64) -> Option<(&WorkPhase, f64)> {
        let mut edge = 0.0;
        for phase in &self.phases {
            edge += phase.duration_secs;
            if edge > progress_secs + 1e-9 {
                return Some((phase, edge));
            }
        }
        None
    }

    /// True once `progress_secs` covers the whole profile.
    pub fn is_complete(&self, progress_secs: f64) -> bool {
        self.phase_after(progress_secs).is_none()
    }
}

/// A fully-specified vjob: the job, its VMs and the work profile of each VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VjobSpec {
    /// The vjob (membership, priority, submission order).
    pub vjob: Vjob,
    /// The VMs of the vjob, in the same order as `vjob.vms`.
    pub vms: Vec<Vm>,
    /// The work profile of each VM, in the same order.
    pub profiles: Vec<VmWorkProfile>,
}

impl VjobSpec {
    /// Build a spec, checking that VMs and profiles line up with the vjob.
    ///
    /// # Panics
    /// Panics when the three collections disagree on length or ids.
    pub fn new(vjob: Vjob, vms: Vec<Vm>, profiles: Vec<VmWorkProfile>) -> Self {
        assert_eq!(vjob.vms.len(), vms.len(), "one Vm per vjob member");
        assert_eq!(vms.len(), profiles.len(), "one profile per VM");
        for (expected, vm) in vjob.vms.iter().zip(&vms) {
            assert_eq!(*expected, vm.id, "VM order must match the vjob");
        }
        VjobSpec {
            vjob,
            vms,
            profiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{MemoryMib, VjobId, VmId};

    fn profile() -> VmWorkProfile {
        VmWorkProfile::new(vec![
            WorkPhase::compute(100.0),
            WorkPhase::idle(20.0),
            WorkPhase::compute(50.0),
        ])
    }

    #[test]
    fn total_work_sums_phases() {
        assert!((profile().total_work_secs() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn demand_follows_phases() {
        let p = profile();
        assert_eq!(p.demand_at(0.0), CpuCapacity::cores(1));
        assert_eq!(p.demand_at(99.9), CpuCapacity::cores(1));
        assert_eq!(p.demand_at(100.1), CpuCapacity::percent(10));
        assert_eq!(p.demand_at(120.5), CpuCapacity::cores(1));
        assert_eq!(
            p.demand_at(171.0),
            CpuCapacity::ZERO,
            "exhausted profile idles"
        );
    }

    #[test]
    fn completion_detection() {
        let p = profile();
        assert!(!p.is_complete(169.0));
        assert!(p.is_complete(170.0));
        assert!(p.is_complete(200.0));
    }

    #[test]
    fn an_edge_within_a_nanosecond_counts_as_reached() {
        // Demands, phase boundaries and completion read one rule: 5e-10 s
        // short of an edge, the next phase (or the end) has begun.
        let p = profile();
        assert_eq!(p.demand_at(100.0 - 5e-10), CpuCapacity::percent(10));
        assert_eq!(p.phase_after(100.0 - 5e-10).map(|(_, e)| e), Some(120.0));
        assert_eq!(p.demand_at(100.0 - 2e-9), CpuCapacity::cores(1));
        assert!(p.is_complete(170.0 - 5e-10));
        assert_eq!(p.demand_at(170.0 - 5e-10), CpuCapacity::ZERO);
        assert!(!p.is_complete(170.0 - 2e-9));
    }

    #[test]
    fn single_compute_profile() {
        let p = VmWorkProfile::single_compute(60.0);
        assert_eq!(p.phases().len(), 1);
        assert!((p.total_work_secs() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_phases_carry_a_net_demand() {
        use cwcs_model::NetBandwidth;
        let p = VmWorkProfile::new(vec![
            WorkPhase::compute(10.0),
            WorkPhase::transfer(5.0, NetBandwidth::mbps(400)),
        ]);
        assert_eq!(p.net_demand_at(1.0), NetBandwidth::ZERO);
        assert_eq!(p.net_demand_at(12.0), NetBandwidth::mbps(400));
        assert_eq!(p.demand_at(12.0), CpuCapacity::percent(10));
        assert_eq!(
            p.net_demand_at(16.0),
            NetBandwidth::ZERO,
            "exhausted profile pushes nothing"
        );
        let busy_transfer = WorkPhase::compute(3.0).with_net(NetBandwidth::mbps(50));
        assert_eq!(busy_transfer.net_demand, NetBandwidth::mbps(50));
        assert_eq!(busy_transfer.cpu_demand, CpuCapacity::cores(1));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let vms: Vec<Vm> = (0..2)
            .map(|i| Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::ZERO))
            .collect();
        let vjob = Vjob::new(VjobId(1), vms.iter().map(|v| v.id).collect(), 0);
        let _ = VjobSpec::new(vjob, vms, vec![VmWorkProfile::single_compute(1.0)]);
    }
}
