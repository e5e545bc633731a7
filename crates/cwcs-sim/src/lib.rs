//! # cwcs-sim — a discrete-event cluster simulator for virtualized jobs
//!
//! The paper evaluates its prototype on an 11-node Xen 3.2 cluster with
//! Ganglia monitoring and NFS storage.  That hardware is not available here,
//! so this crate provides the substrate the rest of the workspace runs on:
//!
//! * [`durations`] — the action duration model calibrated against Figure 3
//!   of the paper (boot ≈ 6 s, clean shutdown ≈ 25 s, migrate/suspend/resume
//!   linear in the VM memory, remote transfers about twice as long as local
//!   ones) and the interference model (a busy co-hosted VM is decelerated by
//!   a factor of ≈ 1.3 during local operations, ≈ 1.5 during remote ones);
//! * [`driver`] — the hypervisor driver abstraction (the equivalent of the
//!   SSH/Xen-API drivers of Entropy) with a simulated Xen driver and failure
//!   injection for tests;
//! * [`cluster`] — the simulated cluster: a [`cwcs_model::Configuration`],
//!   a virtual clock, and per-VM application progress driven by
//!   [`cwcs_workload::VmWorkProfile`]s;
//! * [`events`] — the time-ordered event queue and the
//!   [`ExecutionTimeline`] of a context switch (per-action start/end times,
//!   exact vjob completion times);
//! * [`executor`] — execution of a [`cwcs_plan::ReconfigurationPlan`].  The
//!   default **event-driven** engine lowers the pools to per-action
//!   precedence edges and starts every action as soon as the releases it
//!   depends on have occurred; interference is charged *per overlapping
//!   time interval per node* — a busy VM is only slowed down while an
//!   operation actually touches its node, not for a whole pool window.  The
//!   paper's sequential pool-barrier semantics remain available as
//!   [`ExecutionMode::PoolBarrier`](executor::ExecutionMode) for
//!   comparisons;
//! * [`monitor`] — the Ganglia-like monitoring service.  An observation is a
//!   snapshot of the cluster's persistent configuration, and
//!   [`MonitoringService::observe`] reports it as an [`ObservationDelta`]:
//!   its diff against the previous snapshot (VM demand/state/placement,
//!   node capacity); completions are the events of
//!   [`SimulatedCluster::advance`], not part of it.  The loop's
//!   [`ClusterView`] is the last snapshot, so a 10k-node control loop pays
//!   for what changed, not for the whole cluster.

pub mod cluster;
pub mod driver;
pub mod durations;
pub mod events;
pub mod executor;
pub mod monitor;

pub use cluster::{ClusterEvent, SimulatedCluster, UtilizationSample};
pub use driver::{DriverError, FailureInjector, HypervisorDriver, SimulatedXenDriver};
pub use durations::{DurationModel, InterferenceModel, TransferMethod};
pub use events::{Event, EventKind, EventQueue, ExecutionTimeline, TimelineEntry, VjobCompletion};
pub use executor::{ExecutionMode, ExecutionReport, PlanExecutor};
pub use monitor::{ClusterView, MonitoringService, ObservationDelta};
