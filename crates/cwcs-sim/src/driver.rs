//! Hypervisor drivers: the lowest layer that actually performs an action.
//!
//! In the original Entropy the drivers are SSH commands or Xen-API calls;
//! here the [`SimulatedXenDriver`] applies the action to the simulated
//! configuration and reports how long it took according to the duration
//! model.  A [`FailureInjector`] lets tests and robustness experiments make
//! selected actions fail, which the executor reports without corrupting the
//! configuration.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cwcs_model::{Configuration, ModelError, VmId};
use cwcs_plan::Action;

use crate::durations::DurationModel;

/// Errors raised by a driver.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// The hypervisor refused or failed the operation (injected failure).
    OperationFailed {
        /// The action that failed.
        action: Action,
        /// Driver-level reason.
        reason: String,
    },
    /// The action violates the life cycle or references unknown entities.
    Model(ModelError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::OperationFailed { action, reason } => {
                write!(f, "driver failed to execute {action}: {reason}")
            }
            DriverError::Model(e) => write!(f, "driver refused the action: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<ModelError> for DriverError {
    fn from(e: ModelError) -> Self {
        DriverError::Model(e)
    }
}

/// The driver abstraction: execute one action against the cluster state and
/// report its duration in seconds.
pub trait HypervisorDriver: Send {
    /// Execute `action`, mutating `config`, and return the wall-clock
    /// duration the operation took.
    fn execute(&self, action: &Action, config: &mut Configuration) -> Result<f64, DriverError>;

    /// Short name for reports.
    fn name(&self) -> &str {
        "driver"
    }
}

/// Deterministic failure injection: actions on the listed VMs fail once.
#[derive(Debug, Default)]
pub struct FailureInjector {
    failing_vms: Mutex<BTreeSet<VmId>>,
    /// The size of `failing_vms`, stored (`Release`) under its lock after
    /// every change and loaded (`Acquire`) by `take` before it locks: with
    /// nothing scheduled — every action of a switch, as a rule — `take` is
    /// one atomic load, without the lock or the set probe.  The set itself
    /// is only read under the lock.
    armed: AtomicUsize,
}

impl FailureInjector {
    /// An injector that never fails anything.
    pub(crate) fn none() -> Self {
        FailureInjector::default()
    }

    /// Make the next action touching `vm` fail.
    pub fn fail_next_action_on(&self, vm: VmId) {
        let mut failing = self.failing_vms.lock().expect("failing_vms mutex poisoned");
        failing.insert(vm);
        self.armed.store(failing.len(), Ordering::Release);
    }

    /// Number of pending injected failures.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.failing_vms
            .lock()
            .expect("failing_vms mutex poisoned")
            .len()
    }

    /// Consume a pending failure for `vm`, if any.
    fn take(&self, vm: VmId) -> bool {
        if self.armed.load(Ordering::Acquire) == 0 {
            return false;
        }
        let mut failing = self.failing_vms.lock().expect("failing_vms mutex poisoned");
        let taken = failing.remove(&vm);
        self.armed.store(failing.len(), Ordering::Release);
        taken
    }
}

/// The simulated Xen driver: applies the action to the configuration and
/// charges the duration predicted by the [`DurationModel`].
pub struct SimulatedXenDriver {
    durations: DurationModel,
    failures: FailureInjector,
}

impl Default for SimulatedXenDriver {
    fn default() -> Self {
        SimulatedXenDriver::new(DurationModel::paper())
    }
}

impl SimulatedXenDriver {
    /// Build a driver with the given duration model and no failure injection.
    pub(crate) fn new(durations: DurationModel) -> Self {
        SimulatedXenDriver {
            durations,
            failures: FailureInjector::none(),
        }
    }

    /// Access the failure injector (to schedule failures from tests).
    pub fn failure_injector(&self) -> &FailureInjector {
        &self.failures
    }
}

impl HypervisorDriver for SimulatedXenDriver {
    fn execute(&self, action: &Action, config: &mut Configuration) -> Result<f64, DriverError> {
        if self.failures.take(action.vm()) {
            return Err(DriverError::OperationFailed {
                action: *action,
                reason: "injected failure".to_string(),
            });
        }
        action.apply(config)?;
        Ok(self.durations.action_duration(action))
    }

    fn name(&self) -> &str {
        "simulated-xen"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, NodeId, ResourceDemand, Vm};

    fn config() -> Configuration {
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        c.add_node(Node::new(
            NodeId(1),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c
    }

    fn run_action() -> Action {
        Action::Run {
            vm: VmId(0),
            node: NodeId(0),
            demand: ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(1024)),
        }
    }

    #[test]
    fn simulated_driver_applies_and_times_actions() {
        let driver = SimulatedXenDriver::default();
        let mut c = config();
        let duration = driver.execute(&run_action(), &mut c).unwrap();
        assert_eq!(duration, 6.0);
        assert_eq!(c.host(VmId(0)).unwrap(), Some(NodeId(0)));
    }

    #[test]
    fn injected_failures_do_not_change_state() {
        let driver = SimulatedXenDriver::default();
        driver.failure_injector().fail_next_action_on(VmId(0));
        let mut c = config();
        let err = driver.execute(&run_action(), &mut c).unwrap_err();
        assert!(matches!(err, DriverError::OperationFailed { .. }));
        assert_eq!(c.state(VmId(0)).unwrap(), cwcs_model::VmState::Waiting);
        // The failure is consumed: a retry succeeds.
        assert_eq!(driver.failure_injector().pending(), 0);
        driver.execute(&run_action(), &mut c).unwrap();
        assert_eq!(c.host(VmId(0)).unwrap(), Some(NodeId(0)));
    }

    #[test]
    fn life_cycle_violations_are_model_errors() {
        let driver = SimulatedXenDriver::default();
        let mut c = config();
        let suspend = Action::Suspend {
            vm: VmId(0),
            node: NodeId(0),
            demand: ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(1024)),
        };
        let err = driver.execute(&suspend, &mut c).unwrap_err();
        assert!(matches!(err, DriverError::Model(_)));
    }

    #[test]
    fn driver_error_messages() {
        let err = DriverError::OperationFailed {
            action: run_action(),
            reason: "ssh timeout".to_string(),
        };
        assert!(err.to_string().contains("ssh timeout"));
    }
}
