//! Generation of the Figure 10 configurations.
//!
//! Section 5.1: "These evaluations are based on a set of generated
//! configurations with 200 working nodes, with 2 CPU and 4 GB of memory
//! each, and a variable amount of VMs. [...] Each vjob uses 9 or 18 VMs, its
//! initial state is choosed randomly and its assignment satisfies the memory
//! requirement of all the VMs.  Each VM requires 256 MB, 512 MB, 1024 MB or
//! 2048 MB of memory and an entire processing unit if it is supposed to
//! execute a computation."
//!
//! The generator reproduces this procedure: it instantiates NAS-Grid-like
//! vjobs until the requested VM count is reached, assigns each vjob a random
//! initial state, and places running VMs with a first-fit on **memory only**
//! (CPU may be over-committed, which is precisely what gives the decision
//! module and the planner something to fix).

use cwcs_model::SmallRng;

use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, Node, NodeId, Vjob, VjobState, VmAssignment, VmId,
};

use crate::nasgrid::{NasGridTemplate, VjobTemplate};
use crate::profile::VjobSpec;

/// Parameters of the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Number of working nodes (200 in the paper).
    pub node_count: u32,
    /// CPU capacity per node (2 processing units in the paper).
    pub node_cpu: CpuCapacity,
    /// Memory capacity per node (4 GiB in the paper).
    pub node_memory: MemoryMib,
    /// Target number of VMs (the X axis of Figure 10: 54 to 486).
    pub vm_target: usize,
    /// Random seed (one seed per sample; the paper draws 30 samples per VM
    /// count).
    pub seed: u64,
    /// Fraction of busy VMs among running vjobs' VMs (a busy VM demands a
    /// full processing unit).
    pub busy_fraction: f64,
}

impl GeneratorParams {
    /// The parameters of the Figure 10 experiment for a given VM target and
    /// sample seed.
    pub fn figure_10(vm_target: usize, seed: u64) -> Self {
        GeneratorParams {
            node_count: 200,
            node_cpu: CpuCapacity::cores(2),
            node_memory: MemoryMib::gib(4),
            vm_target,
            seed,
            busy_fraction: 0.75,
        }
    }
}

/// A generated configuration: the cluster and the vjobs.
#[derive(Debug, Clone)]
pub struct GeneratedConfiguration {
    /// The cluster with every VM assigned (running VMs placed, sleeping VMs
    /// with an image location, waiting VMs unplaced).
    pub configuration: Configuration,
    /// The vjobs with their states, consistent with the configuration.
    pub vjobs: Vec<Vjob>,
}

impl GeneratedConfiguration {
    /// Total number of VMs.
    #[cfg(test)]
    pub(crate) fn vm_count(&self) -> usize {
        self.configuration.vm_count()
    }
}

/// The Figure 10 configuration generator.
#[derive(Debug)]
pub struct TraceGenerator {
    params: GeneratorParams,
}

impl TraceGenerator {
    /// Build a generator from its parameters.
    pub fn new(params: GeneratorParams) -> Self {
        TraceGenerator { params }
    }

    /// Generate one configuration.
    pub fn generate(&self) -> GeneratedConfiguration {
        let mut rng = SmallRng::seed_from_u64(self.params.seed);
        let mut configuration = Configuration::new();
        for i in 0..self.params.node_count {
            configuration
                .add_node(Node::new(
                    NodeId(i),
                    self.params.node_cpu,
                    self.params.node_memory,
                ))
                .expect("node ids are unique");
        }

        // Instantiate vjobs from the template library until the VM target is
        // reached.
        let library = NasGridTemplate::library();
        let mut factory = VjobTemplate::new(self.params.seed.wrapping_mul(0x9E37_79B9));
        let mut specs: Vec<VjobSpec> = Vec::new();
        let mut vm_count = 0;
        while vm_count < self.params.vm_target {
            let template = library[rng.index(library.len())];
            let spec = factory.instantiate(&template);
            vm_count += spec.vms.len();
            specs.push(spec);
        }

        // Register the VMs and choose the initial state of each vjob.
        let mut vjobs: Vec<Vjob> = Vec::new();
        for spec in &specs {
            for vm in &spec.vms {
                configuration.add_vm(vm.clone()).expect("vm ids are unique");
            }
            let state = match rng.u32_in_inclusive(0, 2) {
                0 => VjobState::Running,
                1 => VjobState::Sleeping,
                _ => VjobState::Waiting,
            };
            let mut vjob = spec.vjob.clone();
            // New vjobs start Waiting; move them to their generated state.
            match state {
                VjobState::Running => {
                    vjob.transition_to(VjobState::Running).unwrap();
                }
                VjobState::Sleeping => {
                    vjob.transition_to(VjobState::Running).unwrap();
                    vjob.transition_to(VjobState::Sleeping).unwrap();
                }
                VjobState::Waiting | VjobState::Terminated => {}
            }
            vjobs.push(vjob);
        }

        // Assign CPU demands and place the VMs.
        self.place(&mut configuration, &vjobs, &mut rng);

        GeneratedConfiguration {
            configuration,
            vjobs,
        }
    }

    fn place(&self, configuration: &mut Configuration, vjobs: &[Vjob], rng: &mut SmallRng) {
        let node_ids = configuration.node_ids();
        // Remaining memory per node (placement only checks memory, like the
        // paper's generated assignments).
        let mut free_memory: Vec<u64> = node_ids
            .iter()
            .map(|&n| configuration.node(n).unwrap().memory.raw())
            .collect();

        for vjob in vjobs {
            match vjob.state {
                VjobState::Running => {
                    for &vm_id in &vjob.vms {
                        self.draw_cpu_demand(configuration, vm_id, rng);
                        let memory = configuration.vm(vm_id).unwrap().memory.raw();
                        // First fit on memory, starting from a random offset so
                        // the cluster is not filled from node 0 only.
                        let offset = rng.index(node_ids.len());
                        let mut placed = false;
                        for k in 0..node_ids.len() {
                            let idx = (offset + k) % node_ids.len();
                            if free_memory[idx] >= memory {
                                free_memory[idx] -= memory;
                                configuration
                                    .set_assignment(vm_id, VmAssignment::running(node_ids[idx]))
                                    .unwrap();
                                placed = true;
                                break;
                            }
                        }
                        assert!(
                            placed,
                            "the generated workload never exceeds the total memory of the cluster"
                        );
                    }
                }
                VjobState::Sleeping => {
                    for &vm_id in &vjob.vms {
                        let node = node_ids[rng.index(node_ids.len())];
                        configuration
                            .set_assignment(vm_id, VmAssignment::sleeping(node))
                            .unwrap();
                        // A sleeping VM demands a full unit once resumed if it
                        // still has work; keep the demand it would have.
                        self.draw_cpu_demand(configuration, vm_id, rng);
                    }
                }
                VjobState::Waiting | VjobState::Terminated => {
                    for &vm_id in &vjob.vms {
                        self.draw_cpu_demand(configuration, vm_id, rng);
                    }
                }
            }
        }
    }

    /// Draw whether the VM is busy: a busy VM demands a full processing
    /// unit, an idle one a tenth of it.
    fn draw_cpu_demand(&self, configuration: &mut Configuration, vm: VmId, rng: &mut SmallRng) {
        let cpu = if rng.bool_with(self.params.busy_fraction) {
            CpuCapacity::cores(1)
        } else {
            CpuCapacity::percent(10)
        };
        let net = configuration.vm(vm).unwrap().net;
        configuration.set_vm_demand(vm, cpu, net).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::VmState;

    fn small_params(seed: u64) -> GeneratorParams {
        GeneratorParams {
            node_count: 20,
            node_cpu: CpuCapacity::cores(2),
            node_memory: MemoryMib::gib(4),
            vm_target: 36,
            seed,
            busy_fraction: 0.75,
        }
    }

    #[test]
    fn generates_at_least_the_requested_vms() {
        let generated = TraceGenerator::new(small_params(0)).generate();
        assert!(generated.vm_count() >= 36);
        assert_eq!(generated.configuration.node_count(), 20);
    }

    #[test]
    fn memory_is_never_overcommitted() {
        let generated = TraceGenerator::new(GeneratorParams::figure_10(162, 3)).generate();
        for (node, usage) in generated.configuration.usages() {
            assert!(
                usage.used.memory.fits_in(usage.capacity.memory),
                "memory of {node} overcommitted"
            );
        }
    }

    #[test]
    fn vjob_states_and_vm_assignments_are_consistent() {
        let generated = TraceGenerator::new(small_params(1)).generate();
        for vjob in &generated.vjobs {
            for &vm in &vjob.vms {
                let state = generated.configuration.state(vm).unwrap();
                match vjob.state {
                    VjobState::Running => assert_eq!(state, VmState::Running),
                    VjobState::Sleeping => assert_eq!(state, VmState::Sleeping),
                    VjobState::Waiting => assert_eq!(state, VmState::Waiting),
                    VjobState::Terminated => assert_eq!(state, VmState::Terminated),
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TraceGenerator::new(small_params(9)).generate();
        let b = TraceGenerator::new(small_params(9)).generate();
        assert_eq!(a.configuration, b.configuration);
        assert_eq!(a.vjobs, b.vjobs);
        let c = TraceGenerator::new(small_params(10)).generate();
        assert_ne!(a.configuration, c.configuration);
    }

    #[test]
    fn figure_10_parameters_match_the_paper() {
        let p = GeneratorParams::figure_10(486, 0);
        assert_eq!(p.node_count, 200);
        assert_eq!(p.node_cpu, CpuCapacity::cores(2));
        assert_eq!(p.node_memory, MemoryMib::gib(4));
        assert_eq!(p.vm_target, 486);
    }

    #[test]
    fn samples_use_distinct_seeds() {
        let samples: Vec<GeneratedConfiguration> = (0..3)
            .map(|sample| TraceGenerator::new(GeneratorParams::figure_10(54, sample)).generate())
            .collect();
        assert_eq!(samples.len(), 3);
        assert_ne!(samples[0].configuration, samples[1].configuration);
    }

    #[test]
    fn busy_vms_demand_a_full_unit() {
        let generated = TraceGenerator::new(small_params(4)).generate();
        let busy = generated
            .configuration
            .vms()
            .filter(|vm| vm.cpu == CpuCapacity::cores(1))
            .count();
        let idle = generated
            .configuration
            .vms()
            .filter(|vm| vm.cpu == CpuCapacity::percent(10))
            .count();
        assert!(busy > 0);
        assert!(idle > 0);
        assert_eq!(busy + idle, generated.vm_count());
    }
}
