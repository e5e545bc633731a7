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
//! 3. the pool is appended to the plan, its actions are applied to the
//!    ledger, and the process repeats until no action remains.
//!
//! "Free resources" is read from a ledger of the nodes the plan touches, a
//! hash map: a node enters it on first touch with its usage on the source
//! ([`Configuration::usage`], a lookup in the source's own load ledger), an
//! applied action carries its VM's demand from the old host to the new one
//! there, and each entry also holds what the actions admitted into the pool
//! being built claim, stamped with the pool's index so that a new pool
//! clears nothing.  The planner never copies or writes a configuration, and
//! the graph is built from one aligned walk of the two assignment tables,
//! so planning a target cloned from its source costs the actions, not the
//! cluster.  [`ReconfigurationPlan::validate`], which applies every action
//! to a copy of the source, stays the independent check of the result (a
//! `debug_assert` of every plan).
//!
//! A final pass restores the consistency of vjobs: the resumes of the VMs of
//! one vjob are moved to the pool that contains the vjob's last resume, and
//! suspends/resumes are pipelined (sorted by host name, started one second
//! apart, the paper's interval) so that the VMs of a vjob are paused or woken
//! up together, in a deterministic order and within a short period.  Passing
//! no vjobs to [`Planner::plan`] manages every VM individually: nothing is
//! regrouped.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;

use cwcs_model::{
    Configuration, IdHashMap, ModelError, NodeId, ResourceDemand, ResourceUsage, Vjob, VjobId,
    VmAssignment, VmId,
};

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
    /// An action breaks the life cycle of its VM, or names a VM or a node
    /// the source does not know.
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

/// One node of the [`Ledger`].
#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    /// Capacity, and the demand carried once the applied pools completed.
    usage: ResourceUsage,
    /// What the actions admitted into pool `pool` claim; stale under any
    /// other pool index.
    claimed: ResourceDemand,
    pool: usize,
}

/// The nodes and VMs the plan touches, hashed (see the module docs): what
/// the planner reads free resources from instead of a working copy of the
/// source.
struct Ledger<'a> {
    source: &'a Configuration,
    nodes: IdHashMap<NodeId, NodeEntry>,
    /// The VMs the applied pools moved: their assignment now, and the demand
    /// of their *source* record, which is what a configuration's load ledger
    /// carries for them (`Configuration::set_assignment`), whatever demand
    /// the action was planned with.
    moved: IdHashMap<VmId, VmAssignment>,
    /// The index of the pool being built.
    pool: usize,
}

impl<'a> Ledger<'a> {
    /// An empty ledger over `source`, sized for a plan of `actions` actions.
    fn new(source: &'a Configuration, actions: usize) -> Self {
        Ledger {
            source,
            nodes: IdHashMap::default(),
            moved: IdHashMap::with_capacity_and_hasher(actions, Default::default()),
            pool: 0,
        }
    }

    /// The entry of `node`, seeded from the source on first touch; `None`
    /// for a node the source does not know.
    fn entry(&mut self, node: NodeId) -> Option<&mut NodeEntry> {
        match self.nodes.entry(node) {
            Entry::Occupied(entry) => Some(entry.into_mut()),
            Entry::Vacant(entry) => Some(entry.insert(NodeEntry {
                usage: self.source.usage(node).ok()?,
                claimed: ResourceDemand::ZERO,
                pool: self.pool,
            })),
        }
    }

    /// True when `demand` fits on `node` beside what it carries after the
    /// applied pools and what the pool being built already claims there.
    fn fits(&mut self, node: NodeId, demand: &ResourceDemand) -> bool {
        let pool = self.pool;
        self.entry(node).is_some_and(|entry| {
            let claimed = match entry.pool == pool {
                true => entry.claimed,
                false => ResourceDemand::ZERO,
            };
            entry.usage.can_host(&(claimed + *demand))
        })
    }

    /// Claim `demand` on `node` for the pool being built when it
    /// [`fits`](Ledger::fits) there.
    fn admit(&mut self, node: NodeId, demand: ResourceDemand) -> bool {
        if !self.fits(node, &demand) {
            return false;
        }
        let pool = self.pool;
        let entry = self
            .nodes
            .get_mut(&node)
            .expect("a node that fits has an entry");
        if entry.pool != pool {
            entry.pool = pool;
            entry.claimed = ResourceDemand::ZERO;
        }
        entry.claimed += demand;
        true
    }

    /// Move `action`'s VM as [`Action::apply`] moves it on a configuration:
    /// check its life cycle, then carry its source record's demand from its
    /// old host to its new one.
    fn apply(&mut self, action: &Action) -> Result<(), ModelError> {
        let vm = action.vm();
        let current = match self.moved.get(&vm) {
            Some(&moved) => moved,
            None => self.source.assignment(vm)?,
        };
        let demand = self.source.vm(vm)?.demand();
        let next = action.assignment();
        if !current.state.can_transition_to(next.state) {
            return Err(ModelError::IllegalTransition {
                vm,
                from: current.state,
                to: next.state,
            });
        }
        if current == next {
            return Ok(());
        }
        if let Some(host) = next.host {
            let entry = self.entry(host).ok_or(ModelError::UnknownNode(host))?;
            entry.usage.used += demand;
        }
        if let Some(host) = current.host {
            let entry = self.entry(host).ok_or(ModelError::UnknownNode(host))?;
            entry.usage.used = entry.usage.used.saturating_sub(&demand);
        }
        self.moved.insert(vm, next);
        Ok(())
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
        let mut remaining = ReconfigurationGraph::build(source, target)?.into_actions();
        let mut ledger = Ledger::new(source, remaining.len());
        let mut pools: Vec<Pool> = Vec::new();
        // `(vm, node)`: the VM was bypassed away from the node.  Sending it
        // back would recreate a state the plan was already stuck in, and the
        // same two bypasses would then alternate forever.
        let mut left: HashSet<(VmId, NodeId)> = HashSet::new();
        // What the pool being built leaves for the next ones; it swaps
        // buffers with `remaining` after each pool.
        let mut blocked: Vec<Action> = Vec::new();

        while !remaining.is_empty() {
            let mut pool_actions: Vec<Action> = Vec::with_capacity(remaining.len());

            for action in remaining.drain(..) {
                let admissible = match action.requires() {
                    None => true,
                    Some((node, demand)) => ledger.admit(node, demand),
                };
                if admissible {
                    pool_actions.push(action);
                } else {
                    blocked.push(action);
                }
            }

            if pool_actions.is_empty() {
                // Inter-dependent constraint: break a cycle with a bypass
                // migration through a pivot node (Figure 8).
                match Self::break_cycle(&mut ledger, &blocked, &left) {
                    Some((bypass, index)) => {
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
                ledger.apply(action)?;
            }
            ledger.pool += 1;
            pools.push(Pool::from_actions(pool_actions));
            std::mem::swap(&mut remaining, &mut blocked);
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
    /// capacity.  Nothing else is admitted into the bypass's pool, so it
    /// claims nothing.
    fn break_cycle(
        ledger: &mut Ledger<'_>,
        blocked: &[Action],
        left: &HashSet<(VmId, NodeId)>,
    ) -> Option<(Action, usize)> {
        for (index, action) in blocked.iter().enumerate() {
            if let Action::Migrate {
                vm,
                from,
                to,
                demand,
            } = *action
            {
                for pivot in ledger.source.node_ids() {
                    if pivot == from || pivot == to || left.contains(&(vm, pivot)) {
                        continue;
                    }
                    if ledger.fits(pivot, &demand) {
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
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, SmallRng, Vm, VmState};

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

    /// First fit of `demand` in `free`, from a rotated start: the node it
    /// lands on, debited.
    fn first_fit(free: &mut [ResourceDemand], start: usize, demand: ResourceDemand) -> Option<u32> {
        let n = free.len();
        let at = (0..n)
            .map(|k| (start + k) % n)
            .find(|&at| demand.fits_in(&free[at]))?;
        free[at] = free[at].saturating_sub(&demand);
        Some(at as u32)
    }

    /// A seeded switch between two viable configurations of 2–7 nodes and up
    /// to 24 VMs of 256 MiB–2 GiB, both packed by first fit from random
    /// nodes: every VM of the target runs, sleeps, waits or stops as the
    /// life cycle allows, so the plans migrate (and bypass, or fall back to
    /// suspends, where the packing leaves cycles), boot, resume and stop,
    /// and some VMs of the target demand more CPU than their source records.
    fn seeded_switch(rng: &mut SmallRng) -> (Configuration, Configuration) {
        let nodes = rng.u64_in(2, 8) as usize;
        let capacity = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(4));
        let mut source = Configuration::new();
        for id in 0..nodes {
            source.add_node(node(id as u32, 2, 4096)).unwrap();
        }
        let mut free = vec![capacity; nodes];
        for id in 0..rng.u64_in(1, 25) as u32 {
            let memory = [256, 512, 1024, 2048][rng.index(4)];
            source.add_vm(vm(id, memory, 50)).unwrap();
            let demand = source.vm(VmId(id)).unwrap().demand();
            let assignment = match rng.index(4) {
                0 => VmAssignment::waiting(),
                1 => VmAssignment::sleeping(NodeId(rng.index(nodes) as u32)),
                _ => match first_fit(&mut free, rng.index(nodes), demand) {
                    Some(host) => VmAssignment::running(NodeId(host)),
                    None => VmAssignment::waiting(),
                },
            };
            source.set_assignment(VmId(id), assignment).unwrap();
        }
        let mut target = source.clone();
        let mut free = vec![capacity; nodes];
        for vm in source.vm_ids() {
            let current = source.assignment(vm).unwrap();
            // A re-observed demand: the target is packed with it and the
            // actions carry it, the ledger carries the source's.
            if rng.bool_with(0.3) {
                let cpu = CpuCapacity::percent(rng.u32_in_inclusive(51, 90));
                target.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap();
            }
            let demand = target.vm(vm).unwrap().demand();
            let placed = match rng.index(4) {
                0 => None,
                _ => first_fit(&mut free, rng.index(nodes), demand),
            };
            let next = match (current.state, placed) {
                (_, Some(host)) => VmAssignment::running(NodeId(host)),
                (VmState::Running, None) if rng.bool_with(0.2) => VmAssignment::terminated(),
                (VmState::Running, None) => VmAssignment::sleeping(current.host.unwrap()),
                _ => current,
            };
            target.set_assignment(vm, next).unwrap();
        }
        assert!(source.is_viable() && target.is_viable());
        (source, target)
    }

    /// After every pool of seeded plans, the hashed ledger's usage of each
    /// node it touched equals [`Configuration::usage`] on a copy of the
    /// source that [`Action::apply`] walked through the same pools, and it
    /// touched every node whose load moved.  The plans are planned with no
    /// vjob, so their pools are the ones the planner built.
    #[test]
    fn the_ledger_carries_what_applied_actions_carry_after_every_pool() {
        let mut rng = SmallRng::seed_from_u64(0x1ed9e2);
        let (mut pools, mut bypasses, mut fallbacks) = (0, 0, 0);
        for case in 0..300 {
            let (source, target) = seeded_switch(&mut rng);
            let graph = ReconfigurationGraph::build(&source, &target).unwrap();
            let plan = Planner::new().plan(&source, &target, &[]).unwrap();
            let kind =
                |actions: &[Action], kind| actions.iter().filter(|a| a.kind() == kind).count();
            let (migrations, suspends) = (
                kind(graph.actions(), "migrate"),
                kind(graph.actions(), "suspend"),
            );
            let stats = plan.stats();
            bypasses += usize::from(stats.migrations > migrations && stats.suspends == suspends);
            fallbacks += usize::from(stats.suspends > suspends);

            let mut ledger = Ledger::new(&source, plan.action_count());
            let mut config = source.clone();
            for (index, pool) in plan.pools().iter().enumerate() {
                // The pool is admitted whole, then applied, as planned.
                for action in pool.plain_actions() {
                    if let Some((node, demand)) = action.requires() {
                        let admitted = ledger.admit(node, demand);
                        assert!(admitted, "case {case}: {action} is admissible");
                    }
                }
                for action in pool.plain_actions() {
                    ledger.apply(&action).unwrap();
                    action.apply(&mut config).unwrap();
                }
                ledger.pool += 1;
                for (&node, entry) in &ledger.nodes {
                    let usage = config.usage(node).unwrap();
                    assert_eq!(entry.usage, usage, "case {case}, pool {index}, {node}");
                }
                for node in config.changed_loads(&source) {
                    assert!(
                        ledger.nodes.contains_key(&node),
                        "case {case}: {node} untouched"
                    );
                }
                pools += 1;
            }
            assert_eq!(config, plan.validate(&source).unwrap());
        }
        assert!(pools > 600, "{pools} pools");
        assert!(
            bypasses > 0 && fallbacks > 0,
            "{bypasses} bypasses, {fallbacks} fallbacks"
        );
    }

    /// An action its VM's life cycle forbids — a second boot, or a stop of a
    /// VM a pool already stopped — is the ledger's `ModelError`, the one
    /// [`Action::apply`] raises on a configuration.
    #[test]
    fn the_ledger_checks_the_life_cycle_of_what_it_moved() {
        let mut source = Configuration::new();
        source.add_node(node(0, 2, 4096)).unwrap();
        source.add_vm(vm(0, 512, 100)).unwrap();
        let demand = source.vm(VmId(0)).unwrap().demand();
        let run = Action::Run {
            vm: VmId(0),
            node: NodeId(0),
            demand,
        };
        let stop = Action::Stop {
            vm: VmId(0),
            node: NodeId(0),
            demand,
        };
        let mut ledger = Ledger::new(&source, 2);
        let mut config = source.clone();
        assert_eq!(ledger.apply(&stop), stop.apply(&mut config));
        assert!(ledger.apply(&stop).is_err());
        ledger.apply(&run).unwrap();
        run.apply(&mut config).unwrap();
        ledger.apply(&stop).unwrap();
        stop.apply(&mut config).unwrap();
        let err = ledger.apply(&run).unwrap_err();
        assert_eq!(Err(err), run.apply(&mut config));
        assert_eq!(
            ledger.nodes[&NodeId(0)].usage,
            config.usage(NodeId(0)).unwrap()
        );
    }
}
