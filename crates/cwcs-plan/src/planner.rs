//! Construction of the reconfiguration plan (Section 4.1).
//!
//! The plan is created iteratively from the reconfiguration graph between the
//! current configuration and the target configuration:
//!
//! 1. every action that is *directly feasible* (its destination node has
//!    enough free resources, not counting resources released by actions of
//!    the same pool) is grouped into a pool;
//! 2. when no action is feasible, the remaining actions necessarily form an
//!    inter-dependent cycle of migrations (Figure 8); the cycle is broken by
//!    a **bypass migration** of one of the blocked VMs to a *pivot* node with
//!    spare capacity, and the original migration is rewritten to start from
//!    the pivot.  A VM is never bypassed back to a node it already left, so
//!    the bypasses of one plan are finite; when no pivot remains the VM is
//!    suspended and resumed on its destination instead;
//! 3. the pool is appended to the plan, applied to the working configuration,
//!    and the process repeats until no action remains.
//!
//! "Free resources" is read from the working configuration itself: applying
//! an action moves its load ledger ([`Configuration::usage`], a lookup), so
//! the planner keeps no usage table of its own — only the reservations of
//! the pool being built.  The working configuration is a clone of the source:
//! it shares every chunk the plan's actions do not write, and the graph is
//! built from [`Configuration::changed_assignments`], so planning a target
//! cloned from its source costs the actions, not the cluster.
//!
//! A final pass restores the consistency of vjobs: the resumes of the VMs of
//! one vjob are moved to the pool that contains the vjob's last resume, and
//! suspends/resumes are pipelined (sorted by host name, started one second
//! apart, the paper's interval) so that the VMs of a vjob are paused or woken
//! up together, in a deterministic order and within a short period.  Passing
//! no vjobs to [`Planner::plan`] manages every VM individually: nothing is
//! regrouped.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use cwcs_model::{Configuration, ModelError, NodeId, ResourceDemand, Vjob, VjobId, VmId};

use crate::action::Action;
use crate::graph::{GraphError, ReconfigurationGraph};
use crate::plan::{PlanError, PlannedAction, Pool, ReconfigurationPlan};

/// Delay between two pipelined suspends/resumes of the same pool, in
/// seconds (1 s in the paper).
const PIPELINE_INTERVAL_SECS: u32 = 1;

/// Errors raised while building a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerError {
    /// The target configuration is not reachable with single actions.
    Graph(GraphError),
    /// No feasible action and no bypass migration could be found: the target
    /// configuration cannot be reached (it is probably not viable).
    UnresolvableDependency {
        /// Actions that remain blocked.
        remaining: Vec<Action>,
    },
    /// Applying an action to the working configuration failed.
    Model(ModelError),
    /// The constructed plan failed validation (internal error).
    Plan(PlanError),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::Graph(e) => write!(f, "cannot build reconfiguration graph: {e}"),
            PlannerError::UnresolvableDependency { remaining } => write!(
                f,
                "cannot order {} remaining action(s): no feasible action and no pivot node available",
                remaining.len()
            ),
            PlannerError::Model(e) => write!(f, "model error while planning: {e}"),
            PlannerError::Plan(e) => write!(f, "constructed plan is invalid: {e}"),
        }
    }
}

impl std::error::Error for PlannerError {}

impl From<GraphError> for PlannerError {
    fn from(e: GraphError) -> Self {
        PlannerError::Graph(e)
    }
}

impl From<ModelError> for PlannerError {
    fn from(e: ModelError) -> Self {
        PlannerError::Model(e)
    }
}

impl From<PlanError> for PlannerError {
    fn from(e: PlanError) -> Self {
        PlannerError::Plan(e)
    }
}

/// The reconfiguration planner.
#[derive(Debug, Clone, Default)]
pub struct Planner;

/// Per-pool reservation tracker: resources claimed on each node by the
/// actions already admitted into the pool being built.
struct Reservations {
    claimed: BTreeMap<NodeId, ResourceDemand>,
}

impl Reservations {
    fn new() -> Self {
        Reservations {
            claimed: BTreeMap::new(),
        }
    }

    /// True when `demand` still fits on `node` given what the working
    /// configuration says the node carries and the reservations already
    /// made in this pool.
    fn fits(&self, config: &Configuration, node: NodeId, demand: &ResourceDemand) -> bool {
        let reserved = self
            .claimed
            .get(&node)
            .copied()
            .unwrap_or(ResourceDemand::ZERO);
        config
            .usage(node)
            .is_ok_and(|usage| usage.can_host(&(reserved + *demand)))
    }

    fn claim(&mut self, node: NodeId, demand: ResourceDemand) {
        let entry = self.claimed.entry(node).or_insert(ResourceDemand::ZERO);
        *entry += demand;
    }
}

impl Planner {
    /// The planner of the paper.
    pub fn new() -> Self {
        Planner
    }

    /// Build the reconfiguration plan that transforms `source` into `target`.
    ///
    /// `vjobs` describes the vjob membership of the VMs; it is only used by
    /// the consistency pass and may be empty when VMs are managed
    /// individually.
    pub fn plan(
        &self,
        source: &Configuration,
        target: &Configuration,
        vjobs: &[Vjob],
    ) -> Result<ReconfigurationPlan, PlannerError> {
        let graph = ReconfigurationGraph::build(source, target)?;
        let mut remaining: Vec<Action> = graph.actions().to_vec();
        let mut working = source.clone();
        let mut pools: Vec<Pool> = Vec::new();
        // `(vm, node)`: the VM was bypassed away from the node.  Sending it
        // back would recreate a state the plan was already stuck in, and the
        // same two bypasses would then alternate forever.
        let mut left: BTreeSet<(VmId, NodeId)> = BTreeSet::new();

        while !remaining.is_empty() {
            let mut pool_actions: Vec<Action> = Vec::new();
            let mut reservations = Reservations::new();
            let mut blocked: Vec<Action> = Vec::new();

            for action in remaining.drain(..) {
                let admissible = match action.requires() {
                    None => true,
                    Some((node, demand)) => reservations.fits(&working, node, &demand),
                };
                if admissible {
                    if let Some((node, demand)) = action.requires() {
                        reservations.claim(node, demand);
                    }
                    pool_actions.push(action);
                } else {
                    blocked.push(action);
                }
            }

            if pool_actions.is_empty() {
                // Inter-dependent constraint: break a cycle with a bypass
                // migration through a pivot node (Figure 8).
                match Self::break_cycle(&working, &reservations, &blocked, &left) {
                    Some((bypass, index)) => {
                        if let Some((node, demand)) = bypass.requires() {
                            reservations.claim(node, demand);
                        }
                        pool_actions.push(bypass);
                        // The original migration now starts from the pivot.
                        if let Action::Migrate {
                            vm,
                            from,
                            to,
                            demand,
                        } = blocked[index]
                        {
                            left.insert((vm, from));
                            let pivot = match bypass {
                                Action::Migrate { to: pivot, .. } => pivot,
                                _ => unreachable!("bypass is always a migration"),
                            };
                            blocked[index] = Action::Migrate {
                                vm,
                                from: pivot,
                                to,
                                demand,
                            };
                        }
                    }
                    None => {
                        // No pivot node has room for a bypass migration: fall
                        // back to the suspend/resume mechanism the paper puts
                        // forward for exactly these situations — suspend one
                        // of the cyclically-blocked VMs (always feasible) and
                        // resume it on its destination once room exists.
                        match Self::break_cycle_with_suspend(&blocked) {
                            Some((suspend, index)) => {
                                let (vm, from, to, demand) = match blocked[index] {
                                    Action::Migrate {
                                        vm,
                                        from,
                                        to,
                                        demand,
                                    } => (vm, from, to, demand),
                                    _ => unreachable!("suspend fallback targets a migration"),
                                };
                                pool_actions.push(suspend);
                                blocked[index] = Action::Resume {
                                    vm,
                                    image: from,
                                    to,
                                    demand,
                                };
                            }
                            None => {
                                return Err(PlannerError::UnresolvableDependency {
                                    remaining: blocked,
                                })
                            }
                        }
                    }
                }
            }

            for action in &pool_actions {
                action.apply(&mut working)?;
            }
            pools.push(Pool::from_actions(pool_actions));
            remaining = blocked;
        }

        let mut plan = ReconfigurationPlan::from_pools(pools);
        Self::group_vjob_resumes(&mut plan, vjobs);
        Self::pipeline_pools(&mut plan, source);

        // The construction maintains feasibility by design; validate in debug
        // builds to catch regressions early.
        debug_assert!(
            plan.validate(source).is_ok(),
            "planner produced an invalid plan"
        );
        Ok(plan)
    }

    /// Find a bypass migration for one of the blocked actions: a migration of
    /// a blocked VM to a pivot node (different from its source, its final
    /// destination and every node it already `left`) with enough spare
    /// capacity.
    fn break_cycle(
        working: &Configuration,
        reservations: &Reservations,
        blocked: &[Action],
        left: &BTreeSet<(VmId, NodeId)>,
    ) -> Option<(Action, usize)> {
        for (index, action) in blocked.iter().enumerate() {
            if let Action::Migrate {
                vm,
                from,
                to,
                demand,
            } = *action
            {
                for pivot in working.node_ids() {
                    if pivot == from || pivot == to || left.contains(&(vm, pivot)) {
                        continue;
                    }
                    if reservations.fits(working, pivot, &demand) {
                        return Some((
                            Action::Migrate {
                                vm,
                                from,
                                to: pivot,
                                demand,
                            },
                            index,
                        ));
                    }
                }
            }
        }
        None
    }

    /// Last-resort cycle breaking: suspend one of the blocked migrating VMs
    /// (always feasible); its migration becomes a resume on the destination.
    fn break_cycle_with_suspend(blocked: &[Action]) -> Option<(Action, usize)> {
        blocked.iter().enumerate().find_map(|(index, action)| {
            if let Action::Migrate {
                vm, from, demand, ..
            } = *action
            {
                Some((
                    Action::Suspend {
                        vm,
                        node: from,
                        demand,
                    },
                    index,
                ))
            } else {
                None
            }
        })
    }

    /// Move the resumes of each vjob into the pool that contains that vjob's
    /// last resume, so they can be executed together.
    fn group_vjob_resumes(plan: &mut ReconfigurationPlan, vjobs: &[Vjob]) {
        // Most plans resume nothing: look before indexing every VM of every
        // vjob.
        let resumes = |pool: &Pool| {
            let mut actions = pool.actions.iter().map(|planned| planned.action);
            actions.any(|action| matches!(action, Action::Resume { .. }))
        };
        if vjobs.is_empty() || !plan.pools().iter().any(resumes) {
            return;
        }
        let membership: HashMap<VmId, VjobId> = vjobs
            .iter()
            .flat_map(|j| j.vms.iter().map(move |&vm| (vm, j.id)))
            .collect();

        // Last pool containing a resume of each vjob.
        let mut last_resume_pool: HashMap<VjobId, usize> = HashMap::new();
        for (pool_index, pool) in plan.pools().iter().enumerate() {
            for planned in &pool.actions {
                if let Action::Resume { vm, .. } = planned.action {
                    if let Some(&vjob) = membership.get(&vm) {
                        last_resume_pool.insert(vjob, pool_index);
                    }
                }
            }
        }

        if last_resume_pool.is_empty() {
            return;
        }

        // Extract resumes that are not yet in their vjob's designated pool
        // and re-insert them there.
        let pools = plan.pools_mut();
        let mut to_move: Vec<(usize, PlannedAction)> = Vec::new();
        for (pool_index, pool) in pools.iter_mut().enumerate() {
            let mut kept = Vec::with_capacity(pool.actions.len());
            for planned in pool.actions.drain(..) {
                let destination = match planned.action {
                    Action::Resume { vm, .. } => membership
                        .get(&vm)
                        .and_then(|vjob| last_resume_pool.get(vjob))
                        .copied(),
                    _ => None,
                };
                match destination {
                    Some(dest) if dest != pool_index => to_move.push((dest, planned)),
                    _ => kept.push(planned),
                }
            }
            pool.actions = kept;
        }
        for (dest, planned) in to_move {
            pools[dest].actions.push(planned);
        }
        // Drop pools that the move left empty.
        pools.retain(|p| !p.is_empty());
    }

    /// Sort the suspends and resumes of every pool by host name and assign
    /// them pipeline offsets [`PIPELINE_INTERVAL_SECS`] apart.  Other
    /// actions start at offset 0.  The sort builds each action's key (an
    /// owned node name) once, not twice per comparison.
    fn pipeline_pools(plan: &mut ReconfigurationPlan, source: &Configuration) {
        for pool in plan.pools_mut() {
            // Order: non-pipelined actions first (offset 0), then pipelined
            // suspend/resume sorted by host name.
            let mut pipelined: Vec<PlannedAction> = Vec::new();
            let mut immediate: Vec<PlannedAction> = Vec::new();
            for planned in pool.actions.drain(..) {
                match planned.action {
                    Action::Suspend { .. } | Action::Resume { .. } => pipelined.push(planned),
                    _ => immediate.push(planned),
                }
            }
            pipelined.sort_by_cached_key(|p| p.action.pipeline_key(source));
            for (i, planned) in pipelined.iter_mut().enumerate() {
                planned.offset_secs = i as u32 * PIPELINE_INTERVAL_SECS;
            }
            for planned in immediate.iter_mut() {
                planned.offset_secs = 0;
            }
            immediate.extend(pipelined);
            pool.actions = immediate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ActionCostModel;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, Vm, VmAssignment};

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

    #[test]
    fn empty_delta_produces_empty_plan() {
        let mut c = Configuration::new();
        c.add_node(node(0, 2, 4096)).unwrap();
        c.add_vm(vm(0, 512, 100)).unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        let plan = Planner::new().plan(&c, &c.clone(), &[]).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn figure_7_sequence_of_actions() {
        // suspend(VM2) must complete before migrate(VM1) can start: the plan
        // must place them in two successive pools.
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
        assert_eq!(plan.pools().len(), 2);
        assert_eq!(plan.pools()[0].plain_actions()[0].kind(), "suspend");
        assert_eq!(plan.pools()[1].plain_actions()[0].kind(), "migrate");
        let final_config = plan.validate(&src).unwrap();
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(2)));
        assert_eq!(
            final_config.state(VmId(2)).unwrap(),
            cwcs_model::VmState::Sleeping
        );
    }

    #[test]
    fn figure_8_cycle_broken_with_pivot() {
        // VM1 on N1 and VM2 on N2 must swap places but neither node can hold
        // both; N3 is free and acts as the pivot.
        let mut src = Configuration::new();
        src.add_node(node(1, 1, 1024)).unwrap();
        src.add_node(node(2, 1, 1024)).unwrap();
        src.add_node(node(3, 1, 1024)).unwrap();
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
        // Three migrations are needed: one of them is the bypass through N3.
        assert_eq!(plan.stats().migrations, 3);
        let final_config = plan.validate(&src).unwrap();
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(2)));
        assert_eq!(final_config.host(VmId(2)).unwrap(), Some(NodeId(1)));
    }

    #[test]
    fn cycle_without_pivot_falls_back_to_suspend_resume() {
        // Same swap but no third node: no bypass migration is possible, so
        // the planner suspends one of the VMs and resumes it on its
        // destination — the suspend/resume mechanism the paper advocates for
        // situations plain consolidation cannot handle.
        let mut src = Configuration::new();
        src.add_node(node(1, 1, 1024)).unwrap();
        src.add_node(node(2, 1, 1024)).unwrap();
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
        let stats = plan.stats();
        assert_eq!(stats.suspends, 1);
        assert_eq!(stats.resumes, 1);
        assert_eq!(stats.migrations, 1);
        let final_config = plan.validate(&src).unwrap();
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(2)));
        assert_eq!(final_config.host(VmId(2)).unwrap(), Some(NodeId(1)));
    }

    #[test]
    fn truly_unreachable_target_is_an_error() {
        // A target that is not even viable (two busy single-core VMs forced
        // onto one single-core node) cannot be planned.
        let mut src = Configuration::new();
        src.add_node(node(1, 1, 4096)).unwrap();
        src.add_node(node(2, 1, 4096)).unwrap();
        src.add_vm(vm(1, 512, 100)).unwrap();
        src.add_vm(vm(2, 512, 100)).unwrap();
        src.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();
        let mut dst = src.clone();
        dst.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();
        // dst is non-viable: node 1 would host two busy single-core VMs.
        let err = Planner::new().plan(&src, &dst, &[]).unwrap_err();
        assert!(matches!(err, PlannerError::UnresolvableDependency { .. }));
    }

    #[test]
    fn unreachable_target_with_a_spare_node_terminates() {
        // The non-viable target above plus a free third node.  The bypass
        // N2 -> N3 frees N2, which then looks like a pivot for N3 -> N1:
        // unless N2 is off limits VM2 shuttles between the two forever.  The
        // planner must run out of pivots, fall back to a suspend, and report
        // the resume it can never place.
        let mut src = Configuration::new();
        for id in 1..=3 {
            src.add_node(node(id, 1, 4096)).unwrap();
        }
        src.add_vm(vm(1, 512, 100)).unwrap();
        src.add_vm(vm(2, 512, 100)).unwrap();
        src.set_assignment(VmId(1), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
            .unwrap();
        let mut dst = src.clone();
        dst.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();
        let err = Planner::new().plan(&src, &dst, &[]).unwrap_err();
        let PlannerError::UnresolvableDependency { remaining } = err else {
            panic!("expected an unresolvable dependency, got {err:?}");
        };
        assert!(matches!(remaining[..], [Action::Resume { .. }]));
    }

    #[test]
    fn figure_9_two_pools() {
        // A suspend and a migration feasible immediately, then a resume and a
        // run that need the freed resources.
        let mut src = Configuration::new();
        for i in 0..3 {
            src.add_node(node(i, 1, 2048)).unwrap();
        }
        // VM1 running on node 0 (migrates to node 1 which is initially full),
        // VM3 running on node 1 (will be suspended),
        // VM5 sleeping with image on node 1 (resumes on node 0 once VM1 left),
        // VM6 waiting (runs on node 2).
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
        let final_config = plan.validate(&src).unwrap();
        assert!(final_config.is_viable());
        assert_eq!(final_config.host(VmId(1)).unwrap(), Some(NodeId(1)));
        assert_eq!(final_config.host(VmId(5)).unwrap(), Some(NodeId(0)));
        assert_eq!(final_config.host(VmId(6)).unwrap(), Some(NodeId(2)));
        // The suspend is in the first pool.
        assert!(plan.pools()[0]
            .plain_actions()
            .iter()
            .any(|a| a.kind() == "suspend"));
        // The dependent actions come later.
        assert!(plan.pools().len() >= 2);
    }

    #[test]
    fn vjob_resumes_are_grouped_in_one_pool() {
        // Two VMs of the same vjob resume on two nodes, but one of them can
        // only resume after a suspend frees its node.  Without grouping the
        // resumes land in different pools; with grouping they share the last
        // one.
        let mut src = Configuration::new();
        src.add_node(node(0, 1, 1024)).unwrap();
        src.add_node(node(1, 1, 1024)).unwrap();
        src.add_vm(vm(0, 1024, 100)).unwrap(); // busy VM to suspend on node 1
        src.add_vm(vm(1, 512, 100)).unwrap(); // vjob VM, resumes on node 0 (free)
        src.add_vm(vm(2, 512, 100)).unwrap(); // vjob VM, resumes on node 1 (blocked)
        src.set_assignment(VmId(0), VmAssignment::running(NodeId(1)))
            .unwrap();
        src.set_assignment(VmId(1), VmAssignment::sleeping(NodeId(0)))
            .unwrap();
        src.set_assignment(VmId(2), VmAssignment::sleeping(NodeId(1)))
            .unwrap();

        let mut dst = src.clone();
        dst.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        dst.set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
            .unwrap();
        dst.set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
            .unwrap();

        let vjob = Vjob::new(VjobId(0), vec![VmId(1), VmId(2)], 0);

        // Without grouping (no vjob membership: the VMs are managed
        // individually): resumes in different pools.
        let plan = Planner::new().plan(&src, &dst, &[]).unwrap();
        let resume_pools: Vec<usize> = plan
            .pools()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.plain_actions().iter().any(|a| a.kind() == "resume"))
            .map(|(i, _)| i)
            .collect();
        assert!(
            resume_pools.len() > 1,
            "the scenario must spread resumes over pools"
        );

        // With grouping: all resumes of the vjob in one pool.
        let plan = Planner::new().plan(&src, &dst, &[vjob]).unwrap();
        let resume_pools: Vec<usize> = plan
            .pools()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.plain_actions().iter().any(|a| a.kind() == "resume"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            resume_pools.len(),
            1,
            "grouped resumes must share a single pool"
        );
        // And the grouped plan is still executable.
        plan.validate(&src).unwrap();
    }

    #[test]
    fn pipelined_actions_get_increasing_offsets() {
        let mut src = Configuration::new();
        src.add_node(node(0, 2, 4096)).unwrap();
        src.add_node(node(1, 2, 4096)).unwrap();
        for i in 0..3 {
            src.add_vm(vm(i, 512, 100)).unwrap();
            src.set_assignment(VmId(i), VmAssignment::running(NodeId(i % 2)))
                .unwrap();
        }
        let mut dst = src.clone();
        for i in 0..3 {
            let host = src.host(VmId(i)).unwrap().unwrap();
            dst.set_assignment(VmId(i), VmAssignment::sleeping(host))
                .unwrap();
        }
        let plan = Planner::new().plan(&src, &dst, &[]).unwrap();
        let offsets: Vec<u32> = plan.pools()[0]
            .actions
            .iter()
            .map(|p| p.offset_secs)
            .collect();
        let mut sorted = offsets.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn plan_cost_matches_figure_11_example_shape() {
        // A context switch with only migrations is much cheaper than one with
        // suspends and resumes of the same VMs.
        let cost_model = ActionCostModel::paper();

        let mut src = Configuration::new();
        for i in 0..4 {
            src.add_node(node(i, 2, 4096)).unwrap();
        }
        for i in 0..3 {
            src.add_vm(vm(i, 1024, 100)).unwrap();
            src.set_assignment(VmId(i), VmAssignment::running(NodeId(i)))
                .unwrap();
        }
        // Plan A: migrate everything one node to the right.
        let mut dst_migrate = src.clone();
        for i in 0..3 {
            dst_migrate
                .set_assignment(VmId(i), VmAssignment::running(NodeId(i + 1)))
                .unwrap();
        }
        let plan_migrate = Planner::new().plan(&src, &dst_migrate, &[]).unwrap();

        // Plan B: suspend everything then (in a later switch) it would resume;
        // here we just compare the suspend-only switch with remote resumes.
        let mut dst_suspend = src.clone();
        for i in 0..3 {
            dst_suspend
                .set_assignment(VmId(i), VmAssignment::sleeping(NodeId(i)))
                .unwrap();
        }
        let plan_suspend = Planner::new().plan(&src, &dst_suspend, &[]).unwrap();

        let migrate_cost = cost_model.plan_cost(&plan_migrate).total;
        let suspend_cost = cost_model.plan_cost(&plan_suspend).total;
        assert!(migrate_cost > 0);
        assert!(suspend_cost > 0);
        // Both involve the same per-action cost here (Dm each), so just check
        // the plans validate and the makespans are sensible.
        plan_migrate.validate(&src).unwrap();
        plan_suspend.validate(&src).unwrap();
    }
}
