//! The reconfiguration graph: the set of actions needed to go from one
//! configuration to another, and per-action feasibility.
//!
//! "A reconfiguration graph is an oriented multigraph where each edge denotes
//! an action on a VM between two nodes" (Section 4.1).  We represent the
//! graph as the list of its edges (actions); nodes of the multigraph are the
//! cluster nodes, implicitly carried by each action's source and destination.

use std::fmt;

use cwcs_model::{Configuration, NodeId, ResourceDemand, VmId, VmState};

use crate::action::Action;

/// Why an action cannot be built for a VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The target state for this VM is not reachable with one of the five
    /// actions of the life cycle (e.g. Waiting → Sleeping).
    UnsupportedTransition {
        /// The VM whose transition is unsupported.
        vm: VmId,
        /// Source state.
        from: VmState,
        /// Target state.
        to: VmState,
    },
    /// The target configuration does not give a host to a VM that must run.
    MissingHost(VmId),
    /// The source configuration does not know this VM of the target.
    UnknownVm(VmId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnsupportedTransition { vm, from, to } => {
                write!(f, "no single action brings {vm} from {from:?} to {to:?}")
            }
            GraphError::MissingHost(vm) => write!(f, "{vm} must run but has no host"),
            GraphError::UnknownVm(vm) => write!(f, "{vm} is unknown to the source configuration"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Feasibility of one action against a working configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionFeasibility {
    /// The action can start right away.
    Feasible,
    /// The action needs `missing` more resources on `node` before it can
    /// start.
    Blocked {
        /// The node lacking resources.
        node: NodeId,
        /// How much is missing.
        missing: ResourceDemand,
    },
}

impl ActionFeasibility {
    /// True when the action can start right away.
    pub(crate) fn is_feasible(&self) -> bool {
        matches!(self, ActionFeasibility::Feasible)
    }
}

/// The set of actions required to transform a source configuration into a
/// target configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigurationGraph {
    actions: Vec<Action>,
}

impl ReconfigurationGraph {
    /// Build the graph between `source` and `target`.
    ///
    /// One action at most is generated per VM:
    /// * Waiting → Running: `run`
    /// * Running → Running on another node: `migrate`
    /// * Running → Sleeping: `suspend` (the image is written on the current
    ///   host, whatever the target pretends)
    /// * Sleeping → Running: `resume` (local or remote depending on the
    ///   image location)
    /// * Running → Terminated: `stop`
    /// * identical assignments: no action
    ///
    /// An action depends on the VM's two assignments only (its demand is
    /// read from the target's record), so only the VMs whose assignment
    /// differs are looked at, in ascending id order, and both assignments
    /// come from one aligned walk of the two assignment tables
    /// ([`Configuration::assignment_changes`]), not from lookups: a VM whose
    /// demand alone changed needs no action, and a target cloned from its
    /// source costs what moved — one record lookup per moving VM — not the
    /// cluster.
    pub fn build(source: &Configuration, target: &Configuration) -> Result<Self, GraphError> {
        let mut actions = Vec::new();
        for (vm_id, current, wanted) in source.assignment_changes(target) {
            // A VM only the source holds is not asked to be anywhere.
            let Some(wanted) = wanted else {
                continue;
            };
            let unknown = || GraphError::UnknownVm(vm_id);
            let current = current.ok_or_else(unknown)?;
            // The demand considered is the one of the *target* configuration
            // (the decision module may have refreshed it from monitoring
            // data).
            let demand = target.vm(vm_id).map_err(|_| unknown())?.demand();

            use VmState::*;
            let action = match (current.state, wanted.state) {
                (a, b) if a == b => {
                    // Same state; a running VM may still need a migration.
                    if a == Running && current.host != wanted.host {
                        let to = wanted.host.ok_or(GraphError::MissingHost(vm_id))?;
                        Some(Action::Migrate {
                            vm: vm_id,
                            from: current.host.expect("running VM has a host"),
                            to,
                            demand,
                        })
                    } else {
                        None
                    }
                }
                (Waiting, Running) => {
                    let node = wanted.host.ok_or(GraphError::MissingHost(vm_id))?;
                    Some(Action::Run {
                        vm: vm_id,
                        node,
                        demand,
                    })
                }
                (Running, Sleeping) => Some(Action::Suspend {
                    vm: vm_id,
                    node: current.host.expect("running VM has a host"),
                    demand,
                }),
                (Sleeping, Running) => {
                    let to = wanted.host.ok_or(GraphError::MissingHost(vm_id))?;
                    Some(Action::Resume {
                        vm: vm_id,
                        image: current.image.expect("sleeping VM has an image"),
                        to,
                        demand,
                    })
                }
                (Running, Terminated) => Some(Action::Stop {
                    vm: vm_id,
                    node: current.host.expect("running VM has a host"),
                    demand,
                }),
                (from, to) => {
                    return Err(GraphError::UnsupportedTransition {
                        vm: vm_id,
                        from,
                        to,
                    })
                }
            };
            if let Some(action) = action {
                actions.push(action);
            }
        }
        Ok(ReconfigurationGraph { actions })
    }

    /// The actions of the graph.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The actions of the graph, by value.
    pub(crate) fn into_actions(self) -> Vec<Action> {
        self.actions
    }

    /// True when no action is needed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Number of actions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.actions.len()
    }

    /// Feasibility of `action` against `config`: its required resources must
    /// fit in the free space of the destination node — one lookup in the
    /// configuration's load ledger, whatever the number of VMs.
    pub(crate) fn feasibility(action: &Action, config: &Configuration) -> ActionFeasibility {
        match action.requires() {
            None => ActionFeasibility::Feasible,
            Some((node, demand)) => match config.usage(node) {
                Ok(usage) if usage.can_host(&demand) => ActionFeasibility::Feasible,
                Ok(usage) => ActionFeasibility::Blocked {
                    node,
                    missing: (usage.used + demand).saturating_sub(&usage.capacity),
                },
                Err(_) => ActionFeasibility::Blocked {
                    node,
                    missing: demand,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, Vm, VmAssignment};

    fn cluster(nodes: u32) -> Configuration {
        let mut c = Configuration::new();
        for i in 0..nodes {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(2),
            ))
            .unwrap();
        }
        c
    }

    fn add_vm(c: &mut Configuration, id: u32, mem: u64, cpu: u32) {
        c.add_vm(Vm::new(
            VmId(id),
            MemoryMib::mib(mem),
            CpuCapacity::percent(cpu),
        ))
        .unwrap();
    }

    #[test]
    fn identical_configurations_need_no_action() {
        let mut c = cluster(2);
        add_vm(&mut c, 0, 512, 100);
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let g = ReconfigurationGraph::build(&c, &c.clone()).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn a_target_that_only_re_observes_demands_needs_no_action() {
        let mut src = cluster(2);
        for id in 0..3 {
            add_vm(&mut src, id, 512, 20);
        }
        src.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        src.set_assignment(VmId(1), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut dst = src.clone();
        for id in 0..3 {
            dst.set_vm_demand(VmId(id), CpuCapacity::percent(90), NetBandwidth::mbps(5))
                .unwrap();
        }
        assert_eq!(dst.changed_vms(&src).count(), 3);
        assert!(ReconfigurationGraph::build(&src, &dst).unwrap().is_empty());
        let plan = crate::Planner::new().plan(&src, &dst, &[]).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn every_life_cycle_action_is_generated() {
        let mut src = cluster(3);
        for (id, state) in [
            (0, "waiting"),
            (1, "running"),
            (2, "running"),
            (3, "sleeping"),
            (4, "running"),
        ] {
            add_vm(&mut src, id, 512, 100);
            match state {
                "running" => src
                    .set_assignment(VmId(id), VmAssignment::running(NodeId(id % 3)))
                    .unwrap(),
                "sleeping" => src
                    .set_assignment(VmId(id), VmAssignment::sleeping(NodeId(0)))
                    .unwrap(),
                _ => {}
            }
        }
        let mut dst = src.clone();
        // 0: run on node 2; 1: migrate 1 -> 0; 2: suspend; 3: resume on 1 (remote); 4: stop
        dst.set_assignment(VmId(0), VmAssignment::running(NodeId(2)))
            .unwrap();
        dst.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        dst.set_assignment(VmId(2), VmAssignment::sleeping(NodeId(2)))
            .unwrap();
        dst.set_assignment(VmId(3), VmAssignment::running(NodeId(1)))
            .unwrap();
        dst.set_assignment(VmId(4), VmAssignment::terminated())
            .unwrap();

        let g = ReconfigurationGraph::build(&src, &dst).unwrap();
        assert_eq!(g.len(), 5);
        let kinds: Vec<&str> = g.actions().iter().map(|a| a.kind()).collect();
        assert!(kinds.contains(&"run"));
        assert!(kinds.contains(&"migrate"));
        assert!(kinds.contains(&"suspend"));
        assert!(kinds.contains(&"resume"));
        assert!(kinds.contains(&"stop"));
        // The suspend writes its image on the VM's current host, node 2.
        let suspend = g.actions().iter().find(|a| a.kind() == "suspend").unwrap();
        match suspend {
            Action::Suspend { node, .. } => assert_eq!(*node, NodeId(2)),
            _ => unreachable!(),
        }
        // The resume of VM 3 is remote (image on node 0, destination node 1).
        let resume = g.actions().iter().find(|a| a.kind() == "resume").unwrap();
        assert!(resume.is_remote_resume());
    }

    #[test]
    fn unsupported_transition_is_reported() {
        let mut src = cluster(1);
        add_vm(&mut src, 0, 512, 0);
        let mut dst = src.clone();
        // Waiting → Sleeping requires two actions; the graph refuses.
        dst.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(0)))
            .unwrap();
        let err = ReconfigurationGraph::build(&src, &dst).unwrap_err();
        assert!(matches!(
            err,
            GraphError::UnsupportedTransition { vm: VmId(0), .. }
        ));
    }

    #[test]
    fn feasibility_against_free_and_busy_nodes() {
        let mut c = cluster(2);
        add_vm(&mut c, 0, 512, 100);
        add_vm(&mut c, 1, 512, 100);
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let demand = ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(512));
        let run_on_busy = Action::Run {
            vm: VmId(1),
            node: NodeId(0),
            demand,
        };
        let run_on_free = Action::Run {
            vm: VmId(1),
            node: NodeId(1),
            demand,
        };
        assert!(!ReconfigurationGraph::feasibility(&run_on_busy, &c).is_feasible());
        assert!(ReconfigurationGraph::feasibility(&run_on_free, &c).is_feasible());
        match ReconfigurationGraph::feasibility(&run_on_busy, &c) {
            ActionFeasibility::Blocked { node, missing } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(missing.cpu, CpuCapacity::cores(1));
            }
            _ => panic!("expected blocked"),
        }
    }

    #[test]
    fn figure_7_sequential_constraint() {
        // Figure 7: VM2 running on N2 consumes too much memory for VM1 to
        // migrate there; suspend(VM2) is feasible, migrate(VM1) is blocked.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(1),
            CpuCapacity::cores(2),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_node(Node::new(
            NodeId(2),
            CpuCapacity::cores(2),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_vm(Vm::new(
            VmId(1),
            MemoryMib::mib(1536),
            CpuCapacity::percent(50),
        ))
        .unwrap();
        c.add_vm(Vm::new(
            VmId(2),
            MemoryMib::mib(1024),
            CpuCapacity::percent(50),
        ))
        .unwrap();
        c.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        c.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();

        let migrate_vm1 = Action::Migrate {
            vm: VmId(1),
            from: NodeId(1),
            to: NodeId(2),
            demand: c.vm(VmId(1)).unwrap().demand(),
        };
        let suspend_vm2 = Action::Suspend {
            vm: VmId(2),
            node: NodeId(2),
            demand: c.vm(VmId(2)).unwrap().demand(),
        };
        assert!(!ReconfigurationGraph::feasibility(&migrate_vm1, &c).is_feasible());
        assert!(ReconfigurationGraph::feasibility(&suspend_vm2, &c).is_feasible());

        // After the suspend completes, the migration becomes feasible.
        let mut after = c.clone();
        suspend_vm2.apply(&mut after).unwrap();
        assert!(ReconfigurationGraph::feasibility(&migrate_vm1, &after).is_feasible());
    }
}
