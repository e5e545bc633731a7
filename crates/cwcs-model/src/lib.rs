//! # cwcs-model — data model for cluster-wide context switches
//!
//! This crate defines the vocabulary shared by every other crate of the
//! workspace: physical **nodes** with per-dimension capacities (CPU, memory,
//! NIC bandwidth), **virtual machines** with the matching demands,
//! **virtualized jobs** (vjobs) that group VMs and follow the life cycle of
//! Figure 2 of the paper (Waiting → Running ⇄ Sleeping → Terminated), and
//! **configurations** that map every VM to a state and, for running VMs, a
//! hosting node.  Capacities and demands are [`ResourceVector`]s — see
//! [`resources`] for the dimension model and how to extend it.
//!
//! A configuration is *viable* when every node can satisfy, on every
//! resource dimension, the demands of the running VMs it hosts.  Viability
//! is the invariant that the reconfiguration planner (`cwcs-plan`) maintains
//! at every intermediate step of a cluster-wide context switch and that the
//! optimizer (`cwcs-core`) enforces on the target configuration.
//!
//! The types here are deliberately plain data: they carry no behaviour tied
//! to a particular hypervisor, monitoring system or scheduler, so that the
//! planner, the simulator and the workload generators can all share them.

mod chunk_map;
pub mod configuration;
pub mod error;
pub mod id_hash;
pub mod node;
pub mod resources;
pub mod rng;
pub mod vjob;
pub mod vm;

pub use configuration::{Configuration, VmAssignment};
pub use error::ModelError;
pub use id_hash::IdHashMap;
pub use node::{Node, NodeId};
pub use resources::{
    CpuCapacity, Dimension, MemoryMib, NetBandwidth, ResourceDemand, ResourceUsage, ResourceVector,
    CPU_UNIT, NUM_RESOURCE_DIMENSIONS,
};
pub use rng::SmallRng;
pub use vjob::{Vjob, VjobId, VjobState};
pub use vm::{Vm, VmId, VmState};

/// Convenient result alias used throughout the model crate.
pub(crate) type Result<T> = std::result::Result<T, ModelError>;
