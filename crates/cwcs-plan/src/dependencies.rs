//! Per-action precedence edges derived from a pooled plan.
//!
//! The pools of a [`ReconfigurationPlan`] encode "feasible in parallel"
//! (Section 4.1) with a *barrier* between pools: every action of pool N+1
//! waits for the slowest action of pool N, even when it does not need any of
//! pool N's releases.  This module recovers the real precedence structure —
//! the per-action resource accounting behind
//! `ReconfigurationGraph::feasibility` — as explicit edges.  An action only
//! has to wait for
//!
//! * the earlier actions that manipulate the **same VM** (a bypass migration
//!   before the rewritten migration, a cycle-breaking suspend before its
//!   resume), and
//! * the earlier actions whose **releases** its destination node needs:
//!   every node keeps a resource ledger, one cell per resource dimension,
//!   seeded with its free capacity in the source configuration (a lookup:
//!   the configuration knows what each node carries); an action first draws its required resources from
//!   that initially-free pool (no waiting) and only then, unit by unit, from
//!   the releases of earlier actions — each release drawn on becomes a
//!   precedence edge.
//!
//! For a planner-produced plan the matched releases always come from strictly
//! earlier pools (a pool is only admitted when it fits in the capacity freed
//! by completed pools), so the derived edge set is a subset of the barrier's
//! implicit edges — which is what guarantees that an event-driven execution
//! of the dependency graph never takes longer than the pool-barrier
//! execution of the same plan.

use std::collections::VecDeque;

use cwcs_model::{Configuration, IdHashMap, NodeId, ResourceDemand, VmId, NUM_RESOURCE_DIMENSIONS};

use crate::action::Action;
use crate::graph::ReconfigurationGraph;
use crate::plan::ReconfigurationPlan;

/// One scheduled action of a dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyNode {
    /// The action.
    pub action: Action,
    /// Index of the pool the action came from.
    pub pool_index: usize,
    /// Pipeline offset the action carries, in seconds.  In an event-driven
    /// execution the offset is applied relative to the moment the action
    /// becomes ready (all dependencies completed) instead of the pool start.
    pub offset_secs: u32,
    /// Indices (into the flat action list, plan order) of the actions that
    /// must complete before this one can start.
    pub deps: Vec<usize>,
}

/// A quantity per resource dimension, indexed like [`ResourceDemand::dims`].
type Dims = [u64; NUM_RESOURCE_DIMENSIONS];

/// Nothing, in every dimension.
const SATISFIED: Dims = [0; NUM_RESOURCE_DIMENSIONS];

/// Move as much of `need` as `pool` holds out of both, dimension by
/// dimension; true when anything moved.
fn draw(need: &mut Dims, pool: &mut Dims) -> bool {
    let mut drew = false;
    for (need, pool) in need.iter_mut().zip(pool) {
        let take = (*need).min(*pool);
        *need -= take;
        *pool -= take;
        drew |= take > 0;
    }
    drew
}

/// What one completed action still has to offer on a node: the part of its
/// released resources not yet claimed by a later action.
#[derive(Debug, Clone)]
struct ReleaseEntry {
    index: usize,
    left: Dims,
}

/// Resource bookkeeping of one node: the capacity free from the start plus
/// the releases of earlier actions, consumed in plan order.  Every dimension
/// the planner and `validate` check is tracked, so a demand that waits for a
/// NIC release gets its edge like one that waits for memory.
#[derive(Debug, Clone)]
struct NodeLedger {
    avail: Dims,
    releases: VecDeque<ReleaseEntry>,
}

impl NodeLedger {
    fn new(free: ResourceDemand) -> Self {
        NodeLedger {
            avail: free.dims(),
            releases: VecDeque::new(),
        }
    }

    /// Claim `demand`, preferring the initially-free capacity; every release
    /// drawn on is recorded in `deps`.  Returns true when the whole demand
    /// fit in the initially-free capacity (no waiting required).
    fn consume(&mut self, demand: ResourceDemand, deps: &mut Vec<usize>) -> bool {
        let mut need = demand.dims();
        draw(&mut need, &mut self.avail);
        let from_free = need == SATISFIED;
        for entry in self.releases.iter_mut() {
            if need == SATISFIED {
                break;
            }
            if draw(&mut need, &mut entry.left) && !deps.contains(&entry.index) {
                deps.push(entry.index);
            }
        }
        // A release drawn dry gives nothing to later claims: drop the ones
        // at the front, so the next claim does not walk them again.
        while self
            .releases
            .front()
            .is_some_and(|entry| entry.left == SATISFIED)
        {
            self.releases.pop_front();
        }
        // An unmet remainder means the plan overcommits the node; nothing is
        // left to wait for, so no further edge is recorded (the simulator
        // does not enforce capacity at run time, and `validate` is the place
        // where such plans are rejected).
        from_free
    }

    fn release(&mut self, index: usize, demand: ResourceDemand) {
        self.releases.push_back(ReleaseEntry {
            index,
            left: demand.dims(),
        });
    }
}

/// The dependency graph of a plan: every action in plan order, each with the
/// indices of the actions it must wait for.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanDependencies {
    nodes: Vec<DependencyNode>,
}

impl PlanDependencies {
    /// Derive the dependency graph of `plan` when executed from `source`.
    pub fn derive(plan: &ReconfigurationPlan, source: &Configuration) -> Self {
        let mut nodes: Vec<DependencyNode> = Vec::with_capacity(plan.action_count());
        let mut last_action_of_vm: IdHashMap<VmId, usize> = IdHashMap::default();
        let mut ledgers: IdHashMap<NodeId, NodeLedger> = IdHashMap::default();
        // A node's ledger starts from what the source says is free on it: a
        // lookup in the configuration's own load ledger, per touched node.
        let seed = |node| NodeLedger::new(source.free(node).unwrap_or(ResourceDemand::ZERO));

        for (pool_index, pool) in plan.pools().iter().enumerate() {
            for planned in &pool.actions {
                let action = planned.action;
                let index = nodes.len();
                let mut deps: Vec<usize> = Vec::new();

                // Same-VM precedence: a VM's actions keep their plan order.
                if let Some(&previous) = last_action_of_vm.get(&action.vm()) {
                    deps.push(previous);
                }

                // Resource precedence: draw the required resources from the
                // destination node's ledger.
                if let Some((node, demand)) = action.requires() {
                    let from_free = ledgers
                        .entry(node)
                        .or_insert_with(|| seed(node))
                        .consume(demand, &mut deps);
                    // The ledger refines the per-action check of
                    // `ReconfigurationGraph::feasibility`: demands satisfied
                    // by the initially-free capacity are exactly the ones
                    // feasible against the source.
                    debug_assert!(
                        !from_free
                            || ReconfigurationGraph::feasibility(&action, source).is_feasible(),
                        "a demand served from initially-free capacity must be feasible"
                    );
                }

                if let Some((node, demand)) = action.releases() {
                    ledgers
                        .entry(node)
                        .or_insert_with(|| seed(node))
                        .release(index, demand);
                }
                last_action_of_vm.insert(action.vm(), index);
                nodes.push(DependencyNode {
                    action,
                    pool_index,
                    offset_secs: planned.offset_secs,
                    deps,
                });
            }
        }

        PlanDependencies { nodes }
    }

    /// The actions with their dependencies, in plan order.
    pub fn nodes(&self) -> &[DependencyNode] {
        &self.nodes
    }

    /// Number of actions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.deps.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Pool;
    use crate::planner::Planner;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, Vm, VmAssignment};
    use std::collections::BTreeMap;

    fn node(id: u32, cpu: u32, mem_mib: u64) -> Node {
        Node::new(NodeId(id), CpuCapacity::cores(cpu), MemoryMib::mib(mem_mib))
    }

    fn vm(id: u32, mem_mib: u64, cpu_pct: u32) -> Vm {
        Vm::new(
            VmId(id),
            MemoryMib::mib(mem_mib),
            CpuCapacity::percent(cpu_pct),
        )
    }

    fn demand(mem: u64, cpu_cores: u32) -> ResourceDemand {
        ResourceDemand::new(CpuCapacity::cores(cpu_cores), MemoryMib::mib(mem))
    }

    #[test]
    fn independent_runs_have_no_dependencies() {
        let mut c = Configuration::new();
        c.add_node(node(0, 2, 4096)).unwrap();
        c.add_node(node(1, 2, 4096)).unwrap();
        c.add_vm(vm(0, 512, 100)).unwrap();
        c.add_vm(vm(1, 512, 100)).unwrap();
        let plan = ReconfigurationPlan::from_pools(vec![Pool::from_actions(vec![
            Action::Run {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(512, 1),
            },
            Action::Run {
                vm: VmId(1),
                node: NodeId(1),
                demand: demand(512, 1),
            },
        ])]);
        let deps = PlanDependencies::derive(&plan, &c);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps.edge_count(), 0);
    }

    #[test]
    fn figure_7_migration_waits_for_the_suspend() {
        // suspend(VM2 on N2) frees the room migrate(VM1 -> N2) needs.
        let mut src = Configuration::new();
        src.add_node(node(1, 2, 2048)).unwrap();
        src.add_node(node(2, 2, 2048)).unwrap();
        src.add_vm(vm(1, 1536, 50)).unwrap();
        src.add_vm(vm(2, 1024, 50)).unwrap();
        src.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();
        let mut dst = src.clone();
        dst.set_assignment(VmId(2), VmAssignment::sleeping(NodeId(2)))
            .unwrap();
        dst.set_assignment(VmId(1), VmAssignment::running(NodeId(2)))
            .unwrap();

        let plan = Planner::new().plan(&src, &dst, &[]).unwrap();
        let deps = PlanDependencies::derive(&plan, &src);
        assert_eq!(deps.len(), 2);
        let suspend = deps
            .nodes()
            .iter()
            .position(|n| n.action.kind() == "suspend")
            .unwrap();
        let migrate = deps
            .nodes()
            .iter()
            .position(|n| n.action.kind() == "migrate")
            .unwrap();
        assert_eq!(deps.nodes()[migrate].deps, vec![suspend]);
        assert!(deps.nodes()[suspend].deps.is_empty());
    }

    #[test]
    fn bypass_migrations_keep_same_vm_order() {
        // Figure 8: VM1 and VM2 swap nodes through pivot N3.  The rewritten
        // migration of the bypassed VM must wait for its bypass migration.
        let mut src = Configuration::new();
        for i in 1..=3 {
            src.add_node(node(i, 1, 1024)).unwrap();
        }
        src.add_vm(vm(1, 1024, 100)).unwrap();
        src.add_vm(vm(2, 1024, 100)).unwrap();
        src.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();
        let mut dst = src.clone();
        dst.set_assignment(VmId(1), VmAssignment::running(NodeId(2)))
            .unwrap();
        dst.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();

        let plan = Planner::new().plan(&src, &dst, &[]).unwrap();
        let deps = PlanDependencies::derive(&plan, &src);
        assert_eq!(deps.len(), 3, "two migrations plus the bypass");
        // Exactly one VM has two actions; the second must depend on the first.
        let mut per_vm: BTreeMap<VmId, Vec<usize>> = BTreeMap::new();
        for (i, n) in deps.nodes().iter().enumerate() {
            per_vm.entry(n.action.vm()).or_default().push(i);
        }
        let doubled: Vec<_> = per_vm.values().filter(|v| v.len() == 2).collect();
        assert_eq!(doubled.len(), 1);
        let pair = doubled[0];
        assert!(deps.nodes()[pair[1]].deps.contains(&pair[0]));
        // Every migration into an occupied node waits for the release that
        // empties it.
        for (i, n) in deps.nodes().iter().enumerate() {
            if i > 0 {
                assert!(!n.deps.is_empty(), "only the bypass starts immediately");
            }
        }
    }

    #[test]
    fn action_feasible_from_the_source_has_no_resource_deps() {
        // A run placed in a later pool by hand, although feasible from the
        // start, must not inherit dependencies on unrelated releases.
        let mut c = Configuration::new();
        c.add_node(node(0, 2, 4096)).unwrap();
        c.add_node(node(1, 2, 4096)).unwrap();
        c.add_vm(vm(0, 512, 100)).unwrap();
        c.add_vm(vm(1, 512, 100)).unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(512, 1),
            }]),
            Pool::from_actions(vec![Action::Run {
                vm: VmId(1),
                node: NodeId(1),
                demand: demand(512, 1),
            }]),
        ]);
        let deps = PlanDependencies::derive(&plan, &c);
        assert!(deps.nodes()[1].deps.is_empty(), "the run can start at t=0");
    }

    #[test]
    fn consumers_match_only_the_releases_they_need() {
        // Two suspends free node 0 one VM at a time; each waiting VM's run
        // must depend on exactly one suspend, not on both.
        let mut c = Configuration::new();
        c.add_node(node(0, 2, 2048)).unwrap();
        for i in 0..4 {
            c.add_vm(vm(i, 1024, 100)).unwrap();
        }
        for i in 0..2 {
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(0)))
                .unwrap();
        }
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![
                Action::Suspend {
                    vm: VmId(0),
                    node: NodeId(0),
                    demand: demand(1024, 1),
                },
                Action::Suspend {
                    vm: VmId(1),
                    node: NodeId(0),
                    demand: demand(1024, 1),
                },
            ]),
            Pool::from_actions(vec![
                Action::Run {
                    vm: VmId(2),
                    node: NodeId(0),
                    demand: demand(1024, 1),
                },
                Action::Run {
                    vm: VmId(3),
                    node: NodeId(0),
                    demand: demand(1024, 1),
                },
            ]),
        ]);
        let deps = PlanDependencies::derive(&plan, &c);
        assert_eq!(deps.nodes()[2].deps, vec![0]);
        assert_eq!(deps.nodes()[3].deps, vec![1]);
    }

    #[test]
    fn a_nic_release_is_a_dependency() {
        // One 1 000 Mbit/s node whose CPU and memory are ample: VM0 pushes
        // 800 Mbit/s, so VM1 (800 Mbit/s too) can only boot once VM0's
        // suspend has freed the NIC.  Bandwidth is the only dimension that
        // orders the two, and it must order them.
        let net = NetBandwidth::mbps(800);
        let mut c = Configuration::new();
        c.add_node(node(0, 4, 8192).with_net(NetBandwidth::mbps(1000)))
            .unwrap();
        c.add_vm(vm(0, 512, 100).with_net(net)).unwrap();
        c.add_vm(vm(1, 512, 100).with_net(net)).unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let plan = ReconfigurationPlan::from_pools(vec![
            Pool::from_actions(vec![Action::Suspend {
                vm: VmId(0),
                node: NodeId(0),
                demand: demand(512, 1).with_net(net),
            }]),
            Pool::from_actions(vec![Action::Run {
                vm: VmId(1),
                node: NodeId(0),
                demand: demand(512, 1).with_net(net),
            }]),
        ]);
        plan.validate(&c).unwrap();
        let deps = PlanDependencies::derive(&plan, &c);
        assert_eq!(deps.nodes()[1].deps, vec![0], "the boot waits for the NIC");
        assert!(deps.nodes()[0].deps.is_empty());
    }

    #[test]
    fn edges_point_backwards_and_into_earlier_pools() {
        let mut src = Configuration::new();
        for i in 0..3 {
            src.add_node(node(i, 1, 2048)).unwrap();
        }
        src.add_vm(vm(1, 1024, 100)).unwrap();
        src.add_vm(vm(3, 2048, 100)).unwrap();
        src.add_vm(vm(5, 1024, 100)).unwrap();
        src.add_vm(vm(6, 512, 100)).unwrap();
        src.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        src.set_assignment(VmId(3), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(5), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut dst = src.clone();
        dst.set_assignment(VmId(3), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        dst.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        dst.set_assignment(VmId(5), VmAssignment::running(NodeId(0)))
            .unwrap();
        dst.set_assignment(VmId(6), VmAssignment::running(NodeId(2)))
            .unwrap();

        let plan = Planner::new().plan(&src, &dst, &[]).unwrap();
        let deps = PlanDependencies::derive(&plan, &src);
        for (i, node) in deps.nodes().iter().enumerate() {
            for &d in &node.deps {
                assert!(d < i, "dependencies point backwards in plan order");
                assert!(
                    deps.nodes()[d].pool_index < node.pool_index
                        || deps.nodes()[d].action.vm() == node.action.vm(),
                    "resource edges of a planner plan come from earlier pools"
                );
            }
        }
    }
}
