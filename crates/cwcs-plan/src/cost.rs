//! The cost model of Table 1 and the plan cost of Section 4.2.
//!
//! * The **local cost** of an action is driven by the memory demand of the
//!   manipulated VM: `migrate` and `suspend` cost `Dm(vj)`, a local `resume`
//!   costs `Dm(vj)`, a remote `resume` costs `2 · Dm(vj)`, and `run`/`stop`
//!   cost a constant (0 by default, as in the paper).
//! * The **cost of a pool** is the cost of its most expensive action.
//! * The **total cost of an action** is its local cost plus the costs of all
//!   the pools that precede its own.
//! * The **cost of a plan** is the sum of the total costs of all its actions.
//!
//! This "conservatively assumes that delaying an action degrades the
//! cluster-wide context switch": the later an expensive pool, the more other
//! actions pay for it.

use crate::action::Action;
use crate::plan::ReconfigurationPlan;

/// Cost (an abstract, unit-less quantity proportional to MiB of memory to
/// move) of actions and plans.
pub(crate) type Cost = u64;

/// The per-action cost model of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionCostModel {
    /// Constant cost of a `run` action (0 in the paper).
    pub run_cost: Cost,
    /// Constant cost of a `stop` action (0 in the paper).
    pub(crate) stop_cost: Cost,
    /// Multiplier applied to the memory demand for a remote resume
    /// (2 in the paper).
    pub remote_resume_factor: u64,
}

impl Default for ActionCostModel {
    fn default() -> Self {
        ActionCostModel {
            run_cost: 0,
            stop_cost: 0,
            remote_resume_factor: 2,
        }
    }
}

impl ActionCostModel {
    /// The exact model of Table 1.
    pub fn paper() -> Self {
        ActionCostModel::default()
    }

    /// Local cost of one action.
    pub fn action_cost(&self, action: &Action) -> Cost {
        let dm = action.memory().raw();
        match action {
            Action::Run { .. } => self.run_cost,
            Action::Stop { .. } => self.stop_cost,
            Action::Migrate { .. } => dm,
            Action::Suspend { .. } => dm,
            Action::Resume { .. } => {
                if action.is_local_resume() {
                    dm
                } else {
                    self.remote_resume_factor * dm
                }
            }
        }
    }

    /// Cost of a pool: the most expensive action it contains (0 for an empty
    /// pool).
    pub(crate) fn pool_cost(&self, actions: &[Action]) -> Cost {
        actions
            .iter()
            .map(|a| self.action_cost(a))
            .max()
            .unwrap_or(0)
    }

    /// Full cost breakdown of a plan.
    pub fn plan_cost(&self, plan: &ReconfigurationPlan) -> PlanCost {
        let mut total: Cost = 0;
        let mut preceding: Cost = 0;
        let mut pool_costs = Vec::with_capacity(plan.pools().len());
        for pool in plan.pools() {
            let actions: Vec<Action> = pool.actions.iter().map(|p| p.action).collect();
            let pool_cost = self.pool_cost(&actions);
            for action in &actions {
                total += preceding + self.action_cost(action);
            }
            pool_costs.push(pool_cost);
            preceding += pool_cost;
        }
        PlanCost {
            total,
            pool_costs,
            makespan: preceding,
        }
    }
}

/// Cost breakdown of a reconfiguration plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCost {
    /// The plan cost of Section 4.2 (sum of total action costs).
    pub total: Cost,
    /// Cost of each pool in execution order.
    pub pool_costs: Vec<Cost>,
    /// Sum of the pool costs: a proxy for the duration of the whole context
    /// switch when pools run one after the other.
    pub makespan: Cost,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlannedAction, Pool, ReconfigurationPlan};
    use cwcs_model::{CpuCapacity, MemoryMib, NodeId, ResourceDemand, VmId};

    fn demand(mem: u64) -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(mem))
    }

    fn migrate(vm: u32, mem: u64) -> Action {
        Action::Migrate {
            vm: VmId(vm),
            from: NodeId(0),
            to: NodeId(1),
            demand: demand(mem),
        }
    }

    #[test]
    fn table_1_costs() {
        let model = ActionCostModel::paper();
        let d = demand(1024);
        assert_eq!(
            model.action_cost(&Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            0
        );
        assert_eq!(
            model.action_cost(&Action::Stop {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            0
        );
        assert_eq!(model.action_cost(&migrate(0, 1024)), 1024);
        assert_eq!(
            model.action_cost(&Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            1024
        );
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
        assert_eq!(model.action_cost(&local), 1024);
        assert_eq!(model.action_cost(&remote), 2048);
    }

    #[test]
    fn pool_cost_is_the_maximum() {
        let model = ActionCostModel::paper();
        let actions = vec![migrate(0, 512), migrate(1, 2048), migrate(2, 1024)];
        assert_eq!(model.pool_cost(&actions), 2048);
        assert_eq!(model.pool_cost(&[]), 0);
    }

    #[test]
    fn plan_cost_accumulates_preceding_pools() {
        // Pool 1: migrate(512) and migrate(1024)  -> pool cost 1024
        // Pool 2: migrate(2048)                    -> pool cost 2048
        // total = (0 + 512) + (0 + 1024) + (1024 + 2048) = 4608
        let model = ActionCostModel::paper();
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![migrate(0, 512), migrate(1, 1024)]),
            Pool::from_actions(vec![migrate(2, 2048)]),
        ]);
        let cost = model.plan_cost(&plan);
        assert_eq!(cost.pool_costs, vec![1024, 2048]);
        assert_eq!(cost.total, 512 + 1024 + (1024 + 2048));
        assert_eq!(cost.makespan, 1024 + 2048);
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let model = ActionCostModel::paper();
        let plan = ReconfigurationPlan::from_pools(vec![]);
        let cost = model.plan_cost(&plan);
        assert_eq!(cost.total, 0);
        assert_eq!(cost.makespan, 0);
        assert!(cost.pool_costs.is_empty());
    }

    #[test]
    fn delaying_an_action_increases_the_plan_cost() {
        let model = ActionCostModel::paper();
        // The same two actions in one pool...
        let together = ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            migrate(0, 1024),
            migrate(1, 1024),
        ])]);
        // ...or sequentially in two pools.
        let sequential = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![migrate(0, 1024)]),
            Pool::from_actions(vec![migrate(1, 1024)]),
        ]);
        assert!(
            model.plan_cost(&sequential).total > model.plan_cost(&together).total,
            "the cost model must reward parallelism"
        );
    }

    #[test]
    fn remote_resume_factor_is_configurable() {
        let model = ActionCostModel {
            remote_resume_factor: 3,
            ..ActionCostModel::paper()
        };
        let remote = Action::Resume {
            vm: VmId(0),
            image: NodeId(0),
            to: NodeId(1),
            demand: demand(100),
        };
        assert_eq!(model.action_cost(&remote), 300);
    }

    #[test]
    fn run_and_stop_constants_are_configurable() {
        let model = ActionCostModel {
            run_cost: 5,
            stop_cost: 7,
            ..ActionCostModel::paper()
        };
        let d = demand(100);
        assert_eq!(
            model.action_cost(&Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            5
        );
        assert_eq!(
            model.action_cost(&Action::Stop {
                vm: VmId(0),
                node: NodeId(0),
                demand: d
            }),
            7
        );
    }

    fn planned(actions: Vec<Action>) -> Pool {
        Pool {
            actions: actions
                .into_iter()
                .map(|a| PlannedAction {
                    action: a,
                    offset_secs: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn paper_example_figure_9_shape() {
        // Figure 9: pool 1 = {suspend(VM3), migrate(VM1)},
        //           pool 2 = {resume(VM5), run(VM6)}.
        // With 1 GiB VMs and a local resume the cost is:
        //   suspend 1024 + migrate 1024 + (pool1=1024 + resume 1024) + (1024 + run 0)
        let model = ActionCostModel::paper();
        let d = demand(1024);
        let plan = ReconfigurationPlan::from_pools(vec![
            planned(vec![
                Action::Suspend {
                    vm: VmId(3),
                    node: NodeId(1),
                    demand: d,
                },
                Action::Migrate {
                    vm: VmId(1),
                    from: NodeId(0),
                    to: NodeId(1),
                    demand: d,
                },
            ]),
            planned(vec![
                Action::Resume {
                    vm: VmId(5),
                    image: NodeId(2),
                    to: NodeId(2),
                    demand: d,
                },
                Action::Run {
                    vm: VmId(6),
                    node: NodeId(0),
                    demand: d,
                },
            ]),
        ]);
        let cost = model.plan_cost(&plan);
        assert_eq!(cost.pool_costs, vec![1024, 1024]);
        assert_eq!(cost.total, 1024 + 1024 + (1024 + 1024) + 1024);
    }
}
