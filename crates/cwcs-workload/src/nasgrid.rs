//! NAS-Grid-like vjob templates.
//!
//! The paper runs the NAS Grid Benchmarks (Frumkin & van der Wijngaart):
//! four data-flow graphs — **ED** (Embarrassingly Distributed), **HC**
//! (Helical Chain), **VP** (Visualization Pipe) and **MB** (Mixed Bag) — in
//! problem classes **W**, **A** and **B**, each vjob spanning 9 or 18 VMs
//! with 256 MiB to 2 GiB of memory per VM.
//!
//! We do not ship the original benchmark binaries; instead each template
//! synthesises per-VM work profiles whose *shape* matches the corresponding
//! graph:
//!
//! * ED: independent full-CPU tasks of equal length (all VMs compute in
//!   parallel all the time);
//! * HC: a chain — VM *i* computes during its slot and idles the rest of the
//!   time, so only one VM is busy at a time;
//! * VP: a pipeline — after a ramp-up, a sliding window of VMs is busy;
//! * MB: a mixed bag — a mixture of long and short tasks with uneven phases.
//!
//! These shapes are what matters for the evaluation: they determine how many
//! processing units a vjob really needs over time, which is what the dynamic
//! consolidation strategy exploits.

use cwcs_model::SmallRng;

use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Vjob, VjobId, Vm, VmId, CPU_UNIT};

use crate::profile::{VjobSpec, VmWorkProfile, WorkPhase};

/// The four NAS Grid data-flow graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasGridKind {
    /// Embarrassingly Distributed.
    Ed,
    /// Helical Chain.
    Hc,
    /// Visualization Pipe.
    Vp,
    /// Mixed Bag.
    Mb,
}

impl NasGridKind {
    /// Every graph kind.
    pub(crate) const ALL: [NasGridKind; 4] = [
        NasGridKind::Ed,
        NasGridKind::Hc,
        NasGridKind::Vp,
        NasGridKind::Mb,
    ];

    /// Short uppercase name (ED, HC, VP, MB).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            NasGridKind::Ed => "ED",
            NasGridKind::Hc => "HC",
            NasGridKind::Vp => "VP",
            NasGridKind::Mb => "MB",
        }
    }
}

/// The problem classes used in the paper (W, A, B), which scale the amount
/// of work per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasGridClass {
    /// Workstation class: short tasks.
    W,
    /// Class A: medium tasks.
    A,
    /// Class B: long tasks.
    B,
}

impl NasGridClass {
    /// Every class.
    pub(crate) const ALL: [NasGridClass; 3] = [NasGridClass::W, NasGridClass::A, NasGridClass::B];

    /// Nominal duration of one computation task of this class, in seconds.
    pub(crate) fn task_duration_secs(&self) -> f64 {
        match self {
            NasGridClass::W => 120.0,
            NasGridClass::A => 420.0,
            NasGridClass::B => 900.0,
        }
    }

    /// Short name (W, A, B).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            NasGridClass::W => "W",
            NasGridClass::A => "A",
            NasGridClass::B => "B",
        }
    }
}

/// A template describing one vjob to instantiate: graph kind, class, number
/// of VMs, per-VM memory and (optionally) per-VM transfer bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NasGridTemplate {
    /// Data-flow graph.
    pub kind: NasGridKind,
    /// Problem class.
    pub class: NasGridClass,
    /// Number of VMs in the vjob (9 or 18 in the paper).
    pub vm_count: usize,
    /// Memory allocated to each VM.
    pub memory_per_vm: MemoryMib,
    /// NIC bandwidth each VM pushes during its transfer phases — the
    /// communication (idle) phases that follow a computation, i.e. the
    /// stage handoffs of the data-flow graph.  Leading waits (a chain VM
    /// idling before its slot) push nothing; compute phases push a
    /// twentieth of it (near-zero).  Zero — the default of the paper's
    /// CPU/memory-bound templates — leaves every profile without network
    /// demand.
    pub net_per_vm: NetBandwidth,
}

impl NasGridTemplate {
    /// The 24 templates of the paper's trace library: every (kind, class)
    /// pair with 9 VMs, plus ED and MB with 18 VMs, using the four memory
    /// sizes round-robin.  81 instantiations of these templates (with
    /// per-instance jitter) stand in for the 81 real traces.
    pub(crate) fn library() -> Vec<NasGridTemplate> {
        let memories = [
            MemoryMib::mib(256),
            MemoryMib::mib(512),
            MemoryMib::mib(1024),
            MemoryMib::mib(2048),
        ];
        let mut templates = Vec::new();
        let mut mem_index = 0;
        for kind in NasGridKind::ALL {
            for class in NasGridClass::ALL {
                templates.push(NasGridTemplate {
                    kind,
                    class,
                    vm_count: 9,
                    memory_per_vm: memories[mem_index % memories.len()],
                    net_per_vm: NetBandwidth::ZERO,
                });
                mem_index += 1;
            }
        }
        for kind in [NasGridKind::Ed, NasGridKind::Mb] {
            for class in NasGridClass::ALL {
                templates.push(NasGridTemplate {
                    kind,
                    class,
                    vm_count: 18,
                    memory_per_vm: memories[mem_index % memories.len()],
                    net_per_vm: NetBandwidth::ZERO,
                });
                mem_index += 1;
            }
        }
        templates
    }

    /// The same template with per-VM transfer bandwidth: the network-bound
    /// variant of the data-flow graph.
    #[cfg(test)]
    pub(crate) fn with_network(mut self, net_per_vm: NetBandwidth) -> Self {
        self.net_per_vm = net_per_vm;
        self
    }

    /// Human-readable name, e.g. `ED.A.9`.
    pub(crate) fn name(&self) -> String {
        format!(
            "{}.{}.{}",
            self.kind.name(),
            self.class.name(),
            self.vm_count
        )
    }
}

/// Instantiates vjobs from templates, allocating VM and vjob identifiers.
#[derive(Debug)]
pub struct VjobTemplate {
    next_vm: u32,
    next_vjob: u32,
    rng: SmallRng,
}

impl VjobTemplate {
    /// A factory seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        VjobTemplate {
            next_vm: 0,
            next_vjob: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Instantiate one vjob from a template.  `submission_order` follows the
    /// instantiation order.
    pub fn instantiate(&mut self, template: &NasGridTemplate) -> VjobSpec {
        let vjob_id = VjobId(self.next_vjob);
        self.next_vjob += 1;

        let vm_ids: Vec<VmId> = (0..template.vm_count)
            .map(|_| {
                let id = VmId(self.next_vm);
                self.next_vm += 1;
                id
            })
            .collect();

        let vms: Vec<Vm> = vm_ids
            .iter()
            .map(|&id| {
                Vm::new(id, template.memory_per_vm, CpuCapacity::ZERO).with_net(template.net_per_vm)
            })
            .collect();

        let profiles = self.profiles_for(template);

        let vjob = Vjob::new(vjob_id, vm_ids, vjob_id.0 as u64).with_name(format!(
            "{}-{}",
            template.name(),
            vjob_id.0
        ));

        VjobSpec::new(vjob, vms, profiles)
    }

    /// Instantiate every template of a list, in order.
    #[cfg(test)]
    pub(crate) fn instantiate_all(&mut self, templates: &[NasGridTemplate]) -> Vec<VjobSpec> {
        templates.iter().map(|t| self.instantiate(t)).collect()
    }

    fn jitter(&mut self) -> f64 {
        // +/- 10% of jitter so that two instances of the same template do not
        // behave identically, like two runs of the real benchmark.
        1.0 + self.rng.f64_in(-0.1, 0.1)
    }

    fn profiles_for(&mut self, template: &NasGridTemplate) -> Vec<VmWorkProfile> {
        let profiles = self.shape_profiles(template);
        if template.net_per_vm == NetBandwidth::ZERO {
            return profiles;
        }
        // Network-bound variant: the idle phases that *follow* a computation
        // are the stage handoffs (the VM pushes its stage output downstream)
        // and carry the full transfer bandwidth; the leading idles of a
        // chain/pipeline graph are pure waits — the VM has produced nothing
        // yet and transfers nothing.  Compute phases barely touch the NIC (a
        // twentieth of the transfer bandwidth).
        let compute_net = NetBandwidth::mbps(template.net_per_vm.raw() / 20);
        profiles
            .into_iter()
            .map(|profile| {
                let mut produced_output = false;
                VmWorkProfile::new(
                    profile
                        .phases()
                        .iter()
                        .map(|phase| {
                            let net = if phase.cpu_demand.raw() >= CPU_UNIT {
                                produced_output = true;
                                compute_net
                            } else if produced_output {
                                template.net_per_vm
                            } else {
                                NetBandwidth::ZERO
                            };
                            phase.with_net(net)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// The CPU shape of the data-flow graph, without network demands.
    fn shape_profiles(&mut self, template: &NasGridTemplate) -> Vec<VmWorkProfile> {
        let n = template.vm_count;
        let task = template.class.task_duration_secs();
        match template.kind {
            NasGridKind::Ed => {
                // Independent tasks: every VM computes for one task length.
                (0..n)
                    .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(task * self.jitter())]))
                    .collect()
            }
            NasGridKind::Hc => {
                // Helical chain: VM i idles during the i first slots, computes
                // one slot, then is done (idles implicitly afterwards).
                (0..n)
                    .map(|i| {
                        let mut phases = Vec::new();
                        if i > 0 {
                            phases.push(WorkPhase::idle(task * i as f64));
                        }
                        phases.push(WorkPhase::compute(task * self.jitter()));
                        VmWorkProfile::new(phases)
                    })
                    .collect()
            }
            NasGridKind::Vp => {
                // Pipeline of 3 stages mapped round-robin on the VMs: stage s
                // starts after s slots and processes n/3 frames.
                let stages = 3usize;
                let frames = (n / stages).max(1);
                (0..n)
                    .map(|i| {
                        let stage = i % stages;
                        let mut phases = Vec::new();
                        if stage > 0 {
                            phases.push(WorkPhase::idle(task * stage as f64 * 0.5));
                        }
                        for _ in 0..frames {
                            phases.push(WorkPhase::compute(task * 0.5 * self.jitter()));
                            phases.push(WorkPhase::idle(task * 0.1));
                        }
                        VmWorkProfile::new(phases)
                    })
                    .collect()
            }
            NasGridKind::Mb => {
                // Mixed bag: half the VMs run a long task, the others two
                // short tasks separated by an idle phase.
                (0..n)
                    .map(|i| {
                        if i % 2 == 0 {
                            VmWorkProfile::new(vec![WorkPhase::compute(task * 1.5 * self.jitter())])
                        } else {
                            VmWorkProfile::new(vec![
                                WorkPhase::compute(task * 0.5 * self.jitter()),
                                WorkPhase::idle(task * 0.3),
                                WorkPhase::compute(task * 0.5 * self.jitter()),
                            ])
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_matches_the_paper_structure() {
        let lib = NasGridTemplate::library();
        // 4 kinds x 3 classes with 9 VMs + 2 kinds x 3 classes with 18 VMs.
        assert_eq!(lib.len(), 18);
        assert!(lib.iter().all(|t| t.vm_count == 9 || t.vm_count == 18));
        let memories: std::collections::BTreeSet<u64> =
            lib.iter().map(|t| t.memory_per_vm.raw()).collect();
        assert!(memories.iter().all(|m| [256, 512, 1024, 2048].contains(m)));
    }

    #[test]
    fn instantiation_allocates_unique_ids() {
        let lib = NasGridTemplate::library();
        let mut factory = VjobTemplate::new(42);
        let specs = factory.instantiate_all(&lib);
        assert_eq!(specs.len(), lib.len());
        let mut all_vms = std::collections::BTreeSet::new();
        for spec in &specs {
            for vm in &spec.vms {
                assert!(all_vms.insert(vm.id), "VM ids must be unique across vjobs");
            }
            assert_eq!(spec.vms.len(), spec.vjob.len());
            assert_eq!(spec.profiles.len(), spec.vjob.len());
        }
    }

    #[test]
    fn ed_keeps_every_vm_busy() {
        let mut factory = VjobTemplate::new(1);
        let spec = factory.instantiate(&NasGridTemplate {
            kind: NasGridKind::Ed,
            class: NasGridClass::W,
            vm_count: 9,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: NetBandwidth::ZERO,
        });
        for p in &spec.profiles {
            assert_eq!(p.demand_at(1.0), CpuCapacity::cores(1));
        }
    }

    #[test]
    fn hc_is_a_chain() {
        let mut factory = VjobTemplate::new(1);
        let spec = factory.instantiate(&NasGridTemplate {
            kind: NasGridKind::Hc,
            class: NasGridClass::W,
            vm_count: 4,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: NetBandwidth::ZERO,
        });
        // At t=1 only VM 0 computes; the others idle.
        let busy: usize = spec
            .profiles
            .iter()
            .filter(|p| p.demand_at(1.0) == CpuCapacity::cores(1))
            .count();
        assert_eq!(busy, 1);
        // Later VMs carry more total "work" (their idle wait plus their task).
        assert!(spec.profiles[3].total_work_secs() > spec.profiles[0].total_work_secs());
    }

    #[test]
    fn network_variant_marks_handoffs_not_leading_waits() {
        // A 4-VM helical chain with 200 Mbps transfers: VM 3 idles through
        // three slots before computing.  Those leading waits transfer
        // nothing — only phases at or after the first computation carry
        // network demand.
        let template = NasGridTemplate {
            kind: NasGridKind::Hc,
            class: NasGridClass::W,
            vm_count: 4,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: NetBandwidth::ZERO,
        }
        .with_network(NetBandwidth::mbps(200));
        let spec = VjobTemplate::new(1).instantiate(&template);
        let last = &spec.profiles[3];
        assert_eq!(
            last.net_demand_at(1.0),
            NetBandwidth::ZERO,
            "a chain VM waiting for its slot transfers nothing"
        );
        // A mixed-bag VM with compute / idle / compute phases: the middle
        // idle follows a computation, so it is a handoff at full bandwidth,
        // and the computes push the near-zero fraction.
        let mb = NasGridTemplate {
            kind: NasGridKind::Mb,
            class: NasGridClass::W,
            vm_count: 2,
            memory_per_vm: MemoryMib::mib(512),
            net_per_vm: NetBandwidth::ZERO,
        }
        .with_network(NetBandwidth::mbps(200));
        let spec = VjobTemplate::new(1).instantiate(&mb);
        let phases = spec.profiles[1].phases();
        assert_eq!(phases.len(), 3, "short task / idle / short task");
        assert_eq!(phases[0].net_demand, NetBandwidth::mbps(10));
        assert_eq!(phases[1].net_demand, NetBandwidth::mbps(200));
        assert_eq!(phases[2].net_demand, NetBandwidth::mbps(10));
        // The CPU shape is untouched by the network variant.
        let cpu_only = VjobTemplate::new(1).instantiate(&NasGridTemplate {
            net_per_vm: NetBandwidth::ZERO,
            ..mb
        });
        for (netful, plain) in spec.profiles.iter().zip(&cpu_only.profiles) {
            for (a, b) in netful.phases().iter().zip(plain.phases()) {
                assert_eq!(a.cpu_demand, b.cpu_demand);
                assert_eq!(a.duration_secs, b.duration_secs);
            }
        }
    }

    #[test]
    fn class_scales_duration() {
        assert!(NasGridClass::B.task_duration_secs() > NasGridClass::A.task_duration_secs());
        assert!(NasGridClass::A.task_duration_secs() > NasGridClass::W.task_duration_secs());
    }

    #[test]
    fn instantiation_is_reproducible_per_seed() {
        let template = NasGridTemplate {
            kind: NasGridKind::Mb,
            class: NasGridClass::A,
            vm_count: 9,
            memory_per_vm: MemoryMib::mib(1024),
            net_per_vm: NetBandwidth::ZERO,
        };
        let a = VjobTemplate::new(7).instantiate(&template);
        let b = VjobTemplate::new(7).instantiate(&template);
        assert_eq!(a, b);
        let c = VjobTemplate::new(8).instantiate(&template);
        assert_ne!(a.profiles, c.profiles, "different seed, different jitter");
    }

    #[test]
    fn names_are_informative() {
        let t = NasGridTemplate {
            kind: NasGridKind::Vp,
            class: NasGridClass::B,
            vm_count: 18,
            memory_per_vm: MemoryMib::mib(256),
            net_per_vm: NetBandwidth::ZERO,
        };
        assert_eq!(t.name(), "VP.B.18");
    }
}
