//! Action durations and interference, calibrated on Section 2.3 / Figure 3.
//!
//! The paper measures, on 2.1 GHz Core 2 Duo nodes with a gigabit network:
//!
//! * booting a VM ≈ 6 s and a clean shutdown ≈ 25 s, both independent of the
//!   VM memory size;
//! * migration, suspend and resume durations that grow with the memory
//!   allocated to the VM (migrations up to ≈ 26 s at 2 GiB);
//! * remote suspends/resumes (the image pushed with `scp` or `rsync`) take
//!   about twice as long as local ones — a remote resume of a 2 GiB VM takes
//!   up to ≈ 3 minutes;
//! * a busy VM co-hosted with the manipulated VM is decelerated by ≈ 1.3×
//!   during local operations and ≈ 1.5× during remote ones.
//!
//! [`DurationModel::paper()`] encodes those calibration points; every
//! coefficient can be overridden for sensitivity studies.

use cwcs_model::MemoryMib;
use cwcs_plan::Action;

/// How a suspended image travels to another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMethod {
    /// The image stays on the node (no transfer).
    Local,
    /// The image is pushed with `scp`.
    Scp,
    /// The image is pushed with `rsync`.
    Rsync,
}

impl TransferMethod {
    /// All methods, in the order of Figure 3's legends.
    pub const ALL: [TransferMethod; 3] = [
        TransferMethod::Local,
        TransferMethod::Scp,
        TransferMethod::Rsync,
    ];

    /// Label used by the figure reproductions.
    pub fn label(&self) -> &'static str {
        match self {
            TransferMethod::Local => "local",
            TransferMethod::Scp => "local+scp",
            TransferMethod::Rsync => "local+rsync",
        }
    }
}

/// The action-duration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationModel {
    /// Boot duration of a VM, seconds (≈ 6 s in the paper).
    pub(crate) run_secs: f64,
    /// Clean shutdown duration, seconds (≈ 25 s in the paper).
    pub(crate) stop_secs: f64,
    /// Hard shutdown duration, seconds (the paper notes the clean shutdown
    /// "can easily be reduced by using a hard shutdown").
    pub(crate) hard_stop_secs: f64,
    /// Fixed part of a live migration, seconds.
    pub(crate) migrate_base_secs: f64,
    /// Per-MiB part of a live migration, seconds.
    pub(crate) migrate_secs_per_mib: f64,
    /// Per-MiB duration of a local suspend (writing the image to disk).
    pub(crate) suspend_secs_per_mib: f64,
    /// Per-MiB duration of a local resume (reading the image from disk).
    pub(crate) resume_secs_per_mib: f64,
    /// Multiplier applied when the image travels with `scp`.
    pub(crate) scp_factor: f64,
    /// Multiplier applied when the image travels with `rsync`.
    pub(crate) rsync_factor: f64,
    /// Use hard shutdowns instead of clean ones.
    pub(crate) hard_shutdown: bool,
}

impl Default for DurationModel {
    fn default() -> Self {
        DurationModel::paper()
    }
}

impl DurationModel {
    /// Calibration matching the measurements of Figure 3.
    ///
    /// * migrate: 2 s + 0.0117 s/MiB → ≈ 8 s (512 MiB), ≈ 14 s (1 GiB),
    ///   ≈ 26 s (2 GiB);
    /// * local suspend/resume: 0.049 s/MiB → ≈ 25 s (512 MiB), ≈ 50 s
    ///   (1 GiB), ≈ 100 s (2 GiB);
    /// * remote (scp/rsync): ≈ 2× the local duration → a remote resume of a
    ///   2 GiB VM takes ≈ 200 s, the "up to 3 minutes" of the paper.
    pub fn paper() -> Self {
        DurationModel {
            run_secs: 6.0,
            stop_secs: 25.0,
            hard_stop_secs: 3.0,
            migrate_base_secs: 2.0,
            migrate_secs_per_mib: 0.0117,
            suspend_secs_per_mib: 0.049,
            resume_secs_per_mib: 0.049,
            scp_factor: 2.0,
            rsync_factor: 1.9,
            hard_shutdown: false,
        }
    }

    /// Boot duration (independent of the memory size).
    pub fn run_duration(&self) -> f64 {
        self.run_secs
    }

    /// Shutdown duration (independent of the memory size).
    pub fn stop_duration(&self) -> f64 {
        if self.hard_shutdown {
            self.hard_stop_secs
        } else {
            self.stop_secs
        }
    }

    /// Live-migration duration for a VM with `memory` MiB.
    pub fn migrate_duration(&self, memory: MemoryMib) -> f64 {
        self.migrate_base_secs + self.migrate_secs_per_mib * memory.raw() as f64
    }

    /// Suspend duration: writing the image locally, optionally followed by a
    /// transfer to another node.
    pub fn suspend_duration(&self, memory: MemoryMib, transfer: TransferMethod) -> f64 {
        let local = self.suspend_secs_per_mib * memory.raw() as f64;
        local * self.transfer_factor(transfer)
    }

    /// Resume duration: optionally fetching the image from another node, then
    /// restoring it.
    pub fn resume_duration(&self, memory: MemoryMib, transfer: TransferMethod) -> f64 {
        let local = self.resume_secs_per_mib * memory.raw() as f64;
        local * self.transfer_factor(transfer)
    }

    fn transfer_factor(&self, transfer: TransferMethod) -> f64 {
        match transfer {
            TransferMethod::Local => 1.0,
            TransferMethod::Scp => self.scp_factor,
            TransferMethod::Rsync => self.rsync_factor,
        }
    }

    /// Duration of a planned action.  Remote resumes use the `scp` transfer
    /// (the default of the paper's prototype).
    pub(crate) fn action_duration(&self, action: &Action) -> f64 {
        match action {
            Action::Run { .. } => self.run_duration(),
            Action::Stop { .. } => self.stop_duration(),
            Action::Migrate { .. } => self.migrate_duration(action.memory()),
            Action::Suspend { .. } => self.suspend_duration(action.memory(), TransferMethod::Local),
            Action::Resume { .. } => {
                let transfer = if action.is_local_resume() {
                    TransferMethod::Local
                } else {
                    TransferMethod::Scp
                };
                self.resume_duration(action.memory(), transfer)
            }
        }
    }
}

/// Deceleration of busy VMs co-hosted with an ongoing operation (§2.3: "the
/// impact reaches a maximum of 50% during the transition").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceModel {
    /// Slow-down factor during local operations (≈ 1.3 in the paper).
    pub local_factor: f64,
    /// Slow-down factor during operations that transfer data over the
    /// network (≈ 1.5 in the paper).
    pub remote_factor: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel::paper()
    }
}

impl InterferenceModel {
    /// The factors reported in Section 2.3.
    pub fn paper() -> Self {
        InterferenceModel {
            local_factor: 1.3,
            remote_factor: 1.5,
        }
    }

    /// Factor to apply to busy VMs sharing a node with `action`.
    pub(crate) fn factor_for(&self, action: &Action) -> f64 {
        match action {
            Action::Migrate { .. } => self.remote_factor,
            Action::Resume { .. } if action.is_remote_resume() => self.remote_factor,
            Action::Run { .. } | Action::Stop { .. } => 1.0,
            _ => self.local_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, NodeId, ResourceDemand, VmId};

    fn demand(mem: u64) -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(mem))
    }

    #[test]
    fn run_and_stop_do_not_depend_on_memory() {
        let m = DurationModel::paper();
        assert_eq!(m.run_duration(), 6.0);
        assert_eq!(m.stop_duration(), 25.0);
        let hard = DurationModel {
            hard_shutdown: true,
            ..DurationModel::paper()
        };
        assert_eq!(hard.stop_duration(), 3.0);
    }

    #[test]
    fn migration_matches_figure_3a() {
        let m = DurationModel::paper();
        let at_512 = m.migrate_duration(MemoryMib::mib(512));
        let at_2048 = m.migrate_duration(MemoryMib::mib(2048));
        assert!(
            at_512 > 5.0 && at_512 < 12.0,
            "≈ 8 s at 512 MiB, got {at_512}"
        );
        assert!(
            at_2048 > 20.0 && at_2048 < 30.0,
            "≈ 26 s at 2 GiB, got {at_2048}"
        );
        assert!(at_2048 > at_512, "duration grows with memory");
    }

    #[test]
    fn remote_resume_reaches_three_minutes() {
        let m = DurationModel::paper();
        let remote = m.resume_duration(MemoryMib::mib(2048), TransferMethod::Scp);
        assert!(
            remote > 150.0 && remote < 230.0,
            "≈ 3 minutes, got {remote}"
        );
        let local = m.resume_duration(MemoryMib::mib(2048), TransferMethod::Local);
        assert!((remote / local - 2.0).abs() < 0.2, "remote ≈ 2× local");
    }

    #[test]
    fn rsync_and_scp_are_both_remote() {
        let m = DurationModel::paper();
        let local = m.suspend_duration(MemoryMib::mib(1024), TransferMethod::Local);
        let scp = m.suspend_duration(MemoryMib::mib(1024), TransferMethod::Scp);
        let rsync = m.suspend_duration(MemoryMib::mib(1024), TransferMethod::Rsync);
        assert!(scp > local * 1.5);
        assert!(rsync > local * 1.5);
    }

    #[test]
    fn action_duration_dispatches_per_kind() {
        let m = DurationModel::paper();
        let d = demand(1024);
        assert_eq!(
            m.action_duration(&Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            6.0
        );
        let migrate = Action::Migrate {
            vm: VmId(0),
            from: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert!(
            (m.action_duration(&migrate) - m.migrate_duration(MemoryMib::mib(1024))).abs() < 1e-9
        );
        let local_resume = Action::Resume {
            vm: VmId(0),
            image: NodeId(1),
            to: NodeId(1),
            demand: d,
        };
        let remote_resume = Action::Resume {
            vm: VmId(0),
            image: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert!(m.action_duration(&remote_resume) > m.action_duration(&local_resume) * 1.5);
    }

    #[test]
    fn suspend_resume_longer_than_migration() {
        // Figure 3: "the duration of a suspend or a resume action is much
        // longer than the duration of a migration".
        let m = DurationModel::paper();
        for mem in [512u64, 1024, 2048] {
            assert!(
                m.suspend_duration(MemoryMib::mib(mem), TransferMethod::Local)
                    > m.migrate_duration(MemoryMib::mib(mem))
            );
        }
    }

    #[test]
    fn interference_factors() {
        let i = InterferenceModel::paper();
        let d = demand(512);
        let migrate = Action::Migrate {
            vm: VmId(0),
            from: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        let suspend = Action::Suspend {
            vm: VmId(0),
            node: NodeId(0),
            demand: d,
        };
        let run = Action::Run {
            vm: VmId(0),
            node: NodeId(0),
            demand: d,
        };
        let remote_resume = Action::Resume {
            vm: VmId(0),
            image: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert_eq!(i.factor_for(&migrate), 1.5);
        assert_eq!(i.factor_for(&suspend), 1.3);
        assert_eq!(i.factor_for(&run), 1.0);
        assert_eq!(i.factor_for(&remote_resume), 1.5);
    }

    #[test]
    fn transfer_labels_match_figure_3_legends() {
        assert_eq!(TransferMethod::Local.label(), "local");
        assert_eq!(TransferMethod::Scp.label(), "local+scp");
        assert_eq!(TransferMethod::Rsync.label(), "local+rsync");
    }
}
