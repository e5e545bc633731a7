//! The reconfiguration plan: pools of actions executed sequentially.
//!
//! "The plan is composed of a sequence of pools, i.e. a set of actions.
//! Pools are executed sequentially, where the actions composing them are
//! feasible in parallel." (Section 4.1)
//!
//! Each action additionally carries a pipeline offset, in seconds, used by
//! the vjob consistency pass: suspends and resumes of the VMs of one vjob are
//! started one second apart so that the VMs are paused sequentially while the
//! bulk of the writing happens in parallel.

use std::fmt;

use cwcs_model::{Configuration, ModelError, NodeId, ResourceDemand};

use crate::action::Action;

/// An action with its start offset (in seconds) relative to the beginning of
/// its pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAction {
    /// The action to perform.
    pub action: Action,
    /// Pipeline offset within the pool, in seconds.
    pub offset_secs: u32,
}

/// A set of actions that are feasible in parallel from the configuration
/// reached after the previous pools.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pool {
    /// Actions of the pool, with their pipeline offsets.
    pub actions: Vec<PlannedAction>,
}

impl Pool {
    /// Build a pool from plain actions with zero offsets.
    pub fn from_actions(actions: Vec<Action>) -> Self {
        Pool {
            actions: actions
                .into_iter()
                .map(|action| PlannedAction {
                    action,
                    offset_secs: 0,
                })
                .collect(),
        }
    }

    /// The plain actions of the pool, in order.
    pub fn plain_actions(&self) -> Vec<Action> {
        self.actions.iter().map(|p| p.action).collect()
    }

    /// Number of actions.
    pub(crate) fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the pool has no action.
    pub(crate) fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Errors raised when validating or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An action needs more resources on a node than available at its pool.
    InfeasibleAction {
        /// The offending action.
        action: Action,
        /// The node that lacks resources.
        node: NodeId,
        /// Resources missing at that point of the plan.
        missing: ResourceDemand,
    },
    /// Applying an action violated the VM life cycle or referenced unknown
    /// entities.
    Model(ModelError),
    /// A configuration reached in the middle of the plan is not viable.
    NonViableIntermediate {
        /// Index of the pool after which the violation appears.
        pool_index: usize,
        /// The overloaded node.
        node: NodeId,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InfeasibleAction { action, node, .. } => {
                write!(
                    f,
                    "action {action} is not feasible: not enough resources on {node}"
                )
            }
            PlanError::Model(e) => write!(f, "model error while applying plan: {e}"),
            // `pool_index` is 0-based; the plan printout numbers pools from
            // 1, so the message must too for the labels to line up.
            PlanError::NonViableIntermediate { pool_index, node } => write!(
                f,
                "configuration after pool {} is not viable ({node} overloaded)",
                pool_index + 1
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ModelError> for PlanError {
    fn from(e: ModelError) -> Self {
        PlanError::Model(e)
    }
}

/// Summary statistics of a plan (used by the experiment reports: "9 stop
/// actions, 18 run actions, 9 resume actions and 9 migrations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Number of pools.
    pub pools: usize,
    /// Number of run actions.
    pub runs: usize,
    /// Number of stop actions.
    pub stops: usize,
    /// Number of migrations.
    pub migrations: usize,
    /// Number of suspends.
    pub suspends: usize,
    /// Number of resumes (local + remote).
    pub resumes: usize,
    /// Number of resumes performed on the node that holds the image.
    pub local_resumes: usize,
    /// Number of resumes that must first transfer the image.
    pub remote_resumes: usize,
}

impl PlanStats {
    /// Total number of actions.
    pub fn total_actions(&self) -> usize {
        self.runs + self.stops + self.migrations + self.suspends + self.resumes
    }
}

/// A reconfiguration plan: an ordered sequence of pools.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReconfigurationPlan {
    pools: Vec<Pool>,
}

impl ReconfigurationPlan {
    /// Build a plan from its pools.
    pub fn from_pools(pools: Vec<Pool>) -> Self {
        ReconfigurationPlan { pools }
    }

    /// An empty plan (nothing to do).
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        ReconfigurationPlan { pools: Vec::new() }
    }

    /// The pools, in execution order.
    pub fn pools(&self) -> &[Pool] {
        &self.pools
    }

    /// Mutable access to the pools (used by the vjob consistency pass).
    pub(crate) fn pools_mut(&mut self) -> &mut Vec<Pool> {
        &mut self.pools
    }

    /// Every action of the plan, in execution order.
    pub fn all_actions(&self) -> Vec<Action> {
        self.pools
            .iter()
            .flat_map(|p| p.actions.iter().map(|a| a.action))
            .collect()
    }

    /// Total number of actions.
    pub fn action_count(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// True when the plan performs no action.
    pub fn is_empty(&self) -> bool {
        self.action_count() == 0
    }

    /// Count actions by kind.
    pub fn stats(&self) -> PlanStats {
        let mut stats = PlanStats {
            pools: self.pools.iter().filter(|p| !p.is_empty()).count(),
            ..Default::default()
        };
        for action in self.all_actions() {
            match action {
                Action::Run { .. } => stats.runs += 1,
                Action::Stop { .. } => stats.stops += 1,
                Action::Migrate { .. } => stats.migrations += 1,
                Action::Suspend { .. } => stats.suspends += 1,
                Action::Resume { .. } => {
                    stats.resumes += 1;
                    if action.is_local_resume() {
                        stats.local_resumes += 1;
                    } else {
                        stats.remote_resumes += 1;
                    }
                }
            }
        }
        stats
    }

    /// Check the feasibility of one pool against a configuration: every
    /// action's required resources must fit on its destination node *without*
    /// counting the releases of the other actions of the same pool (those
    /// only become effective when the pool completes).  What each node
    /// already carries is read from the configuration's load ledger, so the
    /// check costs O(actions of the pool).
    pub(crate) fn check_pool_feasible(
        pool: &Pool,
        config: &Configuration,
    ) -> Result<(), PlanError> {
        use std::collections::BTreeMap;
        let mut extra: BTreeMap<NodeId, ResourceDemand> = BTreeMap::new();
        for planned in &pool.actions {
            if let Some((node, demand)) = planned.action.requires() {
                let entry = extra.entry(node).or_insert(ResourceDemand::ZERO);
                *entry += demand;
            }
        }
        for (node, added) in &extra {
            let usage = config.usage(*node)?;
            let projected = usage.used + *added;
            if !projected.fits_in(&usage.capacity) {
                // Identify a representative offending action for the report.
                let offending = pool
                    .actions
                    .iter()
                    .find(|p| p.action.requires().map(|(n, _)| n) == Some(*node))
                    .expect("node appears because of some action");
                return Err(PlanError::InfeasibleAction {
                    action: offending.action,
                    node: *node,
                    missing: projected.saturating_sub(&usage.capacity),
                });
            }
        }
        Ok(())
    }

    /// Execute the plan on a copy of `source`: check the feasibility of every
    /// pool, apply its actions, and check that every intermediate
    /// configuration is viable.  Returns the final configuration.
    ///
    /// When the *source* configuration is itself non-viable (an overloaded
    /// cluster is exactly what a context switch is asked to fix), the nodes
    /// that were already overloaded are tolerated until the plan relieves
    /// them; only violations introduced by the plan are reported.
    pub fn validate(&self, source: &Configuration) -> Result<Configuration, PlanError> {
        let initial_violations: std::collections::BTreeSet<NodeId> = source
            .viability_violations()
            .into_iter()
            .map(|(node, _)| node)
            .collect();
        let mut current = source.clone();
        for (index, pool) in self.pools.iter().enumerate() {
            Self::check_pool_feasible(pool, &current)?;
            for planned in &pool.actions {
                planned.action.apply(&mut current)?;
            }
            if let Some((node, _)) = current
                .viability_violations()
                .into_iter()
                .find(|(node, _)| !initial_violations.contains(node))
            {
                return Err(PlanError::NonViableIntermediate {
                    pool_index: index,
                    node,
                });
            }
        }
        Ok(current)
    }
}

impl fmt::Display for ReconfigurationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(empty plan)");
        }
        for (i, pool) in self.pools.iter().enumerate() {
            writeln!(f, "pool {}:", i + 1)?;
            for planned in &pool.actions {
                writeln!(f, "  [+{:>2}s] {}", planned.offset_secs, planned.action)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, NodeId, Vm, VmAssignment, VmId};

    fn demand(mem: u64, cpu_cores: u32) -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(cpu_cores), MemoryMib::mib(mem))
    }

    /// Two nodes with 1 CPU / 2 GiB, one 1 GiB busy VM running on node 0,
    /// one waiting VM.
    fn config() -> Configuration {
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(1),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_node(Node::new(
            NodeId(1),
            CpuCapacity::cores(1),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::gib(1), CpuCapacity::cores(1)))
            .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::gib(1), CpuCapacity::cores(1)))
            .unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c
    }

    #[test]
    fn stats_count_each_kind() {
        let d = demand(512, 1);
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![
                Action::Suspend {
                    vm: VmId(0),
                    node: NodeId(0),
                    demand: d,
                },
                Action::Migrate {
                    vm: VmId(1),
                    from: NodeId(0),
                    to: NodeId(1),
                    demand: d,
                },
            ]),
            Pool::from_actions(vec![
                Action::Resume {
                    vm: VmId(2),
                    image: NodeId(1),
                    to: NodeId(1),
                    demand: d,
                },
                Action::Resume {
                    vm: VmId(3),
                    image: NodeId(0),
                    to: NodeId(1),
                    demand: d,
                },
                Action::Run {
                    vm: VmId(4),
                    node: NodeId(0),
                    demand: d,
                },
                Action::Stop {
                    vm: VmId(5),
                    node: NodeId(0),
                    demand: d,
                },
            ]),
        ]);
        let stats = plan.stats();
        assert_eq!(stats.pools, 2);
        assert_eq!(stats.suspends, 1);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.resumes, 2);
        assert_eq!(stats.local_resumes, 1);
        assert_eq!(stats.remote_resumes, 1);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.stops, 1);
        assert_eq!(stats.total_actions(), 6);
    }

    #[test]
    fn validate_applies_a_correct_plan() {
        let c = config();
        // Run the waiting VM on node 1: feasible and viable.
        let plan = ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![Action::Run {
            vm: VmId(1),
            node: NodeId(1),
            demand: demand(1024, 1),
        }])]);
        let final_config = plan.validate(&c).unwrap();
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(1)));
        assert!(final_config.is_viable());
    }

    #[test]
    fn validate_rejects_an_infeasible_pool() {
        let c = config();
        // Node 0 already hosts a busy single-core VM: running another
        // single-core VM there is infeasible.
        let plan = ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![Action::Run {
            vm: VmId(1),
            node: NodeId(0),
            demand: demand(1024, 1),
        }])]);
        let err = plan.validate(&c).unwrap_err();
        assert!(matches!(
            err,
            PlanError::InfeasibleAction {
                node: NodeId(0),
                ..
            }
        ));
    }

    #[test]
    fn releases_of_the_same_pool_do_not_count() {
        let c = config();
        // Suspend VM0 and, in the same pool, run VM1 on node 0: the planner
        // must refuse because VM0's resources are only freed when the pool
        // completes (this is the sequential constraint of Figure 7).
        let plan = ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(1024, 1),
            },
            Action::Run {
                vm: VmId(1),
                node: NodeId(0),
                demand: demand(1024, 1),
            },
        ])]);
        assert!(plan.validate(&c).is_err());

        // The same two actions in two successive pools are fine.
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(1024, 1),
            }]),
            Pool::from_actions(vec![Action::Run {
                vm: VmId(1),
                node: NodeId(0),
                demand: demand(1024, 1),
            }]),
        ]);
        let final_config = plan.validate(&c).unwrap();
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(0)));
    }

    #[test]
    fn empty_plan_is_identity() {
        let c = config();
        let plan = ReconfigurationPlan::empty();
        assert!(plan.is_empty());
        let result = plan.validate(&c).unwrap();
        assert_eq!(result, c);
    }

    #[test]
    fn display_lists_pools_and_offsets() {
        let d = demand(512, 1);
        let mut plan =
            ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: d,
            }])]);
        plan.pools_mut()[0].actions[0].offset_secs = 2;
        let text = plan.to_string();
        assert!(text.contains("pool 1"));
        assert!(text.contains("+ 2s"));
        assert!(ReconfigurationPlan::empty().to_string().contains("empty"));
    }

    #[test]
    fn plan_error_display() {
        // `pool_index` 2 is the third pool, printed as `pool 3:` by the plan
        // display — the error must point at that same label.
        let err = PlanError::NonViableIntermediate {
            pool_index: 2,
            node: NodeId(4),
        };
        assert!(err.to_string().contains("pool 3"));
        assert!(!err.to_string().contains("pool 2"));
        assert!(err.to_string().contains("node-4"));
    }

    #[test]
    fn non_viable_intermediate_error_matches_plan_printout() {
        // Regression for the 0-based/1-based mismatch: validate() a plan whose
        // second pool overloads a node and check the error names the pool with
        // the same number the printout uses.
        let c = config();
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![Action::Run {
                vm: VmId(1),
                node: NodeId(1),
                demand: demand(1024, 1),
            }]),
            // Migrating the busy VM next to the one just started overloads
            // node 1 (2 busy single-core VMs on a single-core node).
            Pool::from_actions(vec![Action::Migrate {
                vm: VmId(0),
                from: NodeId(0),
                to: NodeId(1),
                demand: demand(0, 0),
            }]),
        ]);
        let err = plan.validate(&c).unwrap_err();
        let PlanError::NonViableIntermediate { pool_index, .. } = &err else {
            panic!("expected a non-viable intermediate, got {err:?}");
        };
        assert_eq!(*pool_index, 1);
        let label = format!("pool {}:", pool_index + 1);
        assert!(
            plan.to_string().contains(&label),
            "the printout must contain the label the error points at"
        );
        assert!(err.to_string().contains("pool 2"));
    }
}
