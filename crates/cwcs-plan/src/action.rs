//! The per-VM actions of a cluster-wide context switch.
//!
//! Section 2.2 of the paper defines five operations — run, stop, migrate,
//! suspend, resume — each of which "changes the state of the virtualized
//! job".  An action knows the resources it *releases* on its source node and
//! the resources it *requires* on its destination node, which is what the
//! planner needs to order actions (Section 4.1).

use std::fmt;

use cwcs_model::{
    Configuration, MemoryMib, ModelError, NodeId, ResourceDemand, VmAssignment, VmId,
};

/// One action on one VM.
///
/// Every variant carries the resource demand of the VM as observed when the
/// plan was built, so costs and durations can be computed without going back
/// to the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Boot a waiting VM on `node`.
    Run {
        /// The VM to boot.
        vm: VmId,
        /// Destination node.
        node: NodeId,
        /// Demand the VM will exert once running.
        demand: ResourceDemand,
    },
    /// Shut a running VM down for good.
    Stop {
        /// The VM to stop.
        vm: VmId,
        /// The node it currently runs on.
        node: NodeId,
        /// Demand the VM releases.
        demand: ResourceDemand,
    },
    /// Live-migrate a running VM from `from` to `to`.
    Migrate {
        /// The VM to migrate.
        vm: VmId,
        /// Current host.
        from: NodeId,
        /// Destination host.
        to: NodeId,
        /// Demand the VM exerts (released on `from`, required on `to`).
        demand: ResourceDemand,
    },
    /// Suspend a running VM to disk; the memory image stays on its host.
    Suspend {
        /// The VM to suspend.
        vm: VmId,
        /// The node it currently runs on (and where the image is written).
        node: NodeId,
        /// Demand the VM releases.
        demand: ResourceDemand,
    },
    /// Resume a sleeping VM on `to`, reading its image from `image`.
    ///
    /// When `image == to` this is a *local* resume; otherwise the image has
    /// to be transferred first, which doubles the cost (Table 1) and roughly
    /// doubles the duration (Figure 3c).
    Resume {
        /// The VM to resume.
        vm: VmId,
        /// Node currently holding the suspended image.
        image: NodeId,
        /// Destination host.
        to: NodeId,
        /// Demand the VM will exert once resumed.
        demand: ResourceDemand,
    },
}

impl Action {
    /// The VM the action manipulates.
    pub fn vm(&self) -> VmId {
        match *self {
            Action::Run { vm, .. }
            | Action::Stop { vm, .. }
            | Action::Migrate { vm, .. }
            | Action::Suspend { vm, .. }
            | Action::Resume { vm, .. } => vm,
        }
    }

    /// The memory demand of the manipulated VM (`Dm(vj)` in the paper).
    pub fn memory(&self) -> MemoryMib {
        self.demand().memory
    }

    /// The resource demand of the manipulated VM.
    pub(crate) fn demand(&self) -> ResourceDemand {
        match *self {
            Action::Run { demand, .. }
            | Action::Stop { demand, .. }
            | Action::Migrate { demand, .. }
            | Action::Suspend { demand, .. }
            | Action::Resume { demand, .. } => demand,
        }
    }

    /// Node and demand this action releases, if any.  Releases become
    /// effective only once the action has completed, so the planner does not
    /// let actions of the same pool consume them.
    pub fn releases(&self) -> Option<(NodeId, ResourceDemand)> {
        match *self {
            Action::Stop { node, demand, .. } | Action::Suspend { node, demand, .. } => {
                Some((node, demand))
            }
            Action::Migrate { from, demand, .. } => Some((from, demand)),
            Action::Run { .. } | Action::Resume { .. } => None,
        }
    }

    /// Node and demand this action requires before it can start, if any.
    pub fn requires(&self) -> Option<(NodeId, ResourceDemand)> {
        match *self {
            Action::Run { node, demand, .. } => Some((node, demand)),
            Action::Migrate { to, demand, .. } => Some((to, demand)),
            Action::Resume { to, demand, .. } => Some((to, demand)),
            Action::Stop { .. } | Action::Suspend { .. } => None,
        }
    }

    /// True for a resume whose image is already on the destination node.
    pub fn is_local_resume(&self) -> bool {
        matches!(self, Action::Resume { image, to, .. } if image == to)
    }

    /// True for a resume that must first transfer the image to another node.
    pub fn is_remote_resume(&self) -> bool {
        matches!(self, Action::Resume { image, to, .. } if image != to)
    }

    /// Short lowercase name of the action kind (used in reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Action::Run { .. } => "run",
            Action::Stop { .. } => "stop",
            Action::Migrate { .. } => "migrate",
            Action::Suspend { .. } => "suspend",
            Action::Resume { .. } => "resume",
        }
    }

    /// The assignment the action leaves its VM in.
    pub(crate) fn assignment(&self) -> VmAssignment {
        match *self {
            Action::Run { node, .. } => VmAssignment::running(node),
            Action::Stop { .. } => VmAssignment::terminated(),
            Action::Migrate { to, .. } | Action::Resume { to, .. } => VmAssignment::running(to),
            Action::Suspend { node, .. } => VmAssignment::sleeping(node),
        }
    }

    /// Apply the action to a configuration, checking the life cycle.
    pub fn apply(&self, config: &mut Configuration) -> Result<(), ModelError> {
        config.transition(self.vm(), self.assignment())
    }

    /// The key used to order pipelined actions inside a pool: the paper sorts
    /// them "using the hostname of the VMs".  We order by the name of the
    /// node the action touches first, then by VM id for determinism.
    pub(crate) fn pipeline_key(&self, config: &Configuration) -> (String, u32) {
        let node = match *self {
            Action::Run { node, .. } | Action::Stop { node, .. } | Action::Suspend { node, .. } => {
                node
            }
            Action::Migrate { from, .. } => from,
            Action::Resume { to, .. } => to,
        };
        let name = config
            .node(node)
            .map(|n| n.name.clone())
            .unwrap_or_else(|_| node.to_string());
        (name, self.vm().0)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Run { vm, node, .. } => write!(f, "run({vm} on {node})"),
            Action::Stop { vm, node, .. } => write!(f, "stop({vm} on {node})"),
            Action::Migrate { vm, from, to, .. } => {
                write!(f, "migrate({vm}: {from} -> {to})")
            }
            Action::Suspend { vm, node, .. } => write!(f, "suspend({vm} on {node})"),
            Action::Resume { vm, image, to, .. } => {
                if image == to {
                    write!(f, "resume({vm} on {to}, local)")
                } else {
                    write!(f, "resume({vm}: image on {image} -> {to})")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, Node, Vm};

    fn demand() -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(1024))
    }

    fn test_config() -> Configuration {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c
    }

    #[test]
    fn releases_and_requires() {
        let d = demand();
        let run = Action::Run {
            vm: VmId(0),
            node: NodeId(1),
            demand: d,
        };
        assert_eq!(run.releases(), None);
        assert_eq!(run.requires(), Some((NodeId(1), d)));

        let stop = Action::Stop {
            vm: VmId(0),
            node: NodeId(1),
            demand: d,
        };
        assert_eq!(stop.releases(), Some((NodeId(1), d)));
        assert_eq!(stop.requires(), None);

        let migrate = Action::Migrate {
            vm: VmId(0),
            from: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert_eq!(migrate.releases(), Some((NodeId(0), d)));
        assert_eq!(migrate.requires(), Some((NodeId(1), d)));

        let suspend = Action::Suspend {
            vm: VmId(0),
            node: NodeId(2),
            demand: d,
        };
        assert_eq!(suspend.requires(), None);

        let resume = Action::Resume {
            vm: VmId(0),
            image: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert_eq!(resume.requires(), Some((NodeId(1), d)));
        assert_eq!(resume.releases(), None);
    }

    #[test]
    fn local_and_remote_resume() {
        let d = demand();
        let local = Action::Resume {
            vm: VmId(0),
            image: NodeId(1),
            to: NodeId(1),
            demand: d,
        };
        let remote = Action::Resume {
            vm: VmId(0),
            image: NodeId(0),
            to: NodeId(1),
            demand: d,
        };
        assert!(local.is_local_resume());
        assert!(!local.is_remote_resume());
        assert!(remote.is_remote_resume());
        assert!(!remote.is_local_resume());
        // Non-resume actions are neither.
        let run = Action::Run {
            vm: VmId(0),
            node: NodeId(1),
            demand: d,
        };
        assert!(!run.is_local_resume());
        assert!(!run.is_remote_resume());
    }

    #[test]
    fn apply_walks_the_life_cycle() {
        let mut c = test_config();
        let d = demand();
        Action::Run {
            vm: VmId(0),
            node: NodeId(0),
            demand: d,
        }
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.host(VmId(0)).unwrap(), Some(NodeId(0)));
        Action::Migrate {
            vm: VmId(0),
            from: NodeId(0),
            to: NodeId(1),
            demand: d,
        }
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.host(VmId(0)).unwrap(), Some(NodeId(1)));
        Action::Suspend {
            vm: VmId(0),
            node: NodeId(1),
            demand: d,
        }
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.image_location(VmId(0)).unwrap(), Some(NodeId(1)));
        Action::Resume {
            vm: VmId(0),
            image: NodeId(1),
            to: NodeId(2),
            demand: d,
        }
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.host(VmId(0)).unwrap(), Some(NodeId(2)));
        Action::Stop {
            vm: VmId(0),
            node: NodeId(2),
            demand: d,
        }
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.state(VmId(0)).unwrap(), cwcs_model::VmState::Terminated);
    }

    #[test]
    fn apply_rejects_illegal_transitions() {
        let mut c = test_config();
        let d = demand();
        // Suspending a waiting VM is illegal.
        let err = Action::Suspend {
            vm: VmId(0),
            node: NodeId(0),
            demand: d,
        }
        .apply(&mut c)
        .unwrap_err();
        assert!(matches!(err, ModelError::IllegalTransition { .. }));
    }

    #[test]
    fn display_is_readable() {
        let d = demand();
        let a = Action::Migrate {
            vm: VmId(3),
            from: NodeId(1),
            to: NodeId(2),
            demand: d,
        };
        assert_eq!(a.to_string(), "migrate(vm-3: node-1 -> node-2)");
        let r = Action::Resume {
            vm: VmId(3),
            image: NodeId(1),
            to: NodeId(1),
            demand: d,
        };
        assert!(r.to_string().contains("local"));
    }

    #[test]
    fn kind_names() {
        let d = demand();
        assert_eq!(
            Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }
            .kind(),
            "run"
        );
        assert_eq!(
            Action::Stop {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }
            .kind(),
            "stop"
        );
        assert_eq!(
            Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }
            .kind(),
            "suspend"
        );
    }
}
