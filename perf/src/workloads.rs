//! The five workloads, generated from `--seed` as plain data.
//!
//! Nothing here touches the production crates: the generators emit nodes,
//! vjobs and per-tick events as numbers, and `adapter.rs` turns them into
//! the program's types.  The same seed always yields the same inputs
//! ([`EpisodeIn::digest`] is the proof the unit tests check).
//!
//! An *episode* is the fixed unit of work of a workload; a run repeats the
//! same episode (same inputs) until its time budget is spent, so the
//! deterministic outputs of an episode do not depend on how fast the machine
//! is.  Episode sizes are chosen so that a 20 s run holds about four of them
//! (twenty for the sub-second `drain_switch`).

/// The workload names, in the order every report lists them
/// (`BENCHMARK.json` says why each exists).
pub const WORKLOADS: [&str; 5] = [
    "stream_arrivals",
    "node_failures",
    "quiet_trickle",
    "drain_switch",
    "paper_batch",
];

/// xorshift64*: the benchmark's own generator, so inputs never depend on a
/// PRNG the production crates may change.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seed the generator (any seed, including 0, gives a usable state).
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: spreads small seeds over the whole state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform whole number of seconds in `lo..=hi`.
    pub fn secs_in(&mut self, lo: u64, hi: u64) -> f64 {
        (lo + self.below(hi - lo + 1)) as f64
    }

    /// Uniform float in `lo..hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Capacity of a node: CPU in hundredths of a processing unit, memory in
/// MiB, NIC in Mbit/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeIn {
    pub cpu_pct: u32,
    pub mem_mib: u64,
    pub net_mbps: u64,
}

/// One phase of a VM's application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseIn {
    pub cpu_pct: u32,
    pub net_mbps: u64,
    pub secs: f64,
}

/// A VM: its reservation and what its application does once it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct VmIn {
    pub mem_mib: u64,
    pub cpu_pct: u32,
    pub net_mbps: u64,
    pub phases: Vec<PhaseIn>,
}

/// A vjob; `host` is the node all its VMs run on from the start (`None`
/// means it waits in the queue).
#[derive(Debug, Clone, PartialEq)]
pub struct VjobIn {
    pub vms: Vec<VmIn>,
    pub host: Option<u32>,
}

/// What the client does before one tick: submit vjobs, change capacities.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickIn {
    pub arrivals: Vec<VjobIn>,
    pub capacities: Vec<(u32, NodeIn)>,
}

/// One control loop to drive: a cluster, its initial vjobs and the ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopIn {
    pub nodes: Vec<NodeIn>,
    pub initial: Vec<VjobIn>,
    /// The scripted ticks.  Empty for a loop that runs to completion.
    pub ticks: Vec<TickIn>,
    /// Search-node budget of every solve (per portfolio worker).
    pub node_limit: u64,
    /// Iteration bound of a run-to-completion loop (0 for scripted ticks).
    pub max_iterations: usize,
}

/// One planned switch: a source placement and the placement to reach.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchIn {
    pub nodes: Vec<NodeIn>,
    pub vjobs: Vec<VjobIn>,
    /// Target host of every VM that must run, by global VM index (VMs are
    /// numbered vjob by vjob in `vjobs` order).
    pub target: Vec<(u32, u32)>,
}

/// The inputs of one episode.
#[derive(Debug, Clone, PartialEq)]
pub enum EpisodeIn {
    /// One loop; an operation is one tick (submit, perturb, iterate).
    Ticks(LoopIn),
    /// Several loops, each run until every vjob terminated; an operation is
    /// one whole run.
    Runs(Vec<LoopIn>),
    /// One switch; the operation is plan + execute.
    Switch(SwitchIn),
}

const STREAM_NODE: NodeIn = NodeIn {
    cpu_pct: 1000,
    mem_mib: 24 * 1024,
    net_mbps: 10_000,
};
const DEGRADED_NODE: NodeIn = NodeIn {
    cpu_pct: 200,
    mem_mib: 6 * 1024,
    net_mbps: 2_000,
};
const BASE_WORK_SECS: f64 = 172_800.0;

/// One running 6-VM base vjob per node: 6 of 10 processing units, 14 GiB of
/// 24 and 1.2 of 10 Gbps taken from the start.
fn base_load(nodes: u32) -> Vec<VjobIn> {
    const BASE_MEM_MIB: [u64; 3] = [1024, 2048, 4096];
    (0..nodes)
        .map(|node| VjobIn {
            vms: (0..6)
                .map(|p| VmIn {
                    mem_mib: BASE_MEM_MIB[p % 3],
                    cpu_pct: 100,
                    net_mbps: 200,
                    phases: vec![PhaseIn {
                        cpu_pct: 100,
                        net_mbps: 200,
                        secs: BASE_WORK_SECS,
                    }],
                })
                .collect(),
            host: Some(node),
        })
        .collect()
}

/// A waiting 2-VM arrival vjob (half a unit, 512 MiB – 1 GiB, 100 Mbps per
/// VM) doing `work_secs` of work.
fn arrival(rng: &mut XorShift, work_secs: f64) -> VjobIn {
    const ARRIVAL_MEM_MIB: [u64; 3] = [512, 768, 1024];
    let mem_mib = ARRIVAL_MEM_MIB[rng.below(3) as usize];
    VjobIn {
        vms: (0..2)
            .map(|_| VmIn {
                mem_mib,
                cpu_pct: 50,
                net_mbps: 100,
                phases: vec![PhaseIn {
                    cpu_pct: 50,
                    net_mbps: 100,
                    secs: work_secs,
                }],
            })
            .collect(),
        host: None,
    }
}

/// `stream_arrivals`: 1 500 nodes, 300 two-VM vjobs arriving per tick with
/// 120–420 s of work, so boots and completions both stream every tick.
fn stream_arrivals(seed: u64) -> EpisodeIn {
    let nodes = 1_500;
    let per_tick = 300;
    let mut rng = XorShift::new(seed);
    let ticks = (0..30)
        .map(|_| TickIn {
            arrivals: (0..per_tick)
                .map(|_| {
                    let work = rng.secs_in(120, 420);
                    arrival(&mut rng, work)
                })
                .collect(),
            capacities: Vec::new(),
        })
        .collect();
    EpisodeIn::Ticks(LoopIn {
        nodes: vec![STREAM_NODE; nodes as usize],
        initial: base_load(nodes),
        ticks,
        node_limit: 500,
        max_iterations: 0,
    })
}

/// `node_failures`: 2 000 nodes; every tick the previous 20 degraded nodes
/// come back and 20 other seeded-random nodes shrink to a fifth of their
/// CPU, so their base vjobs must be evacuated by migration.
fn node_failures(seed: u64) -> EpisodeIn {
    let nodes = 2_000;
    let failures = 20;
    let mut rng = XorShift::new(seed);
    let mut degraded: Vec<u32> = Vec::new();
    let mut ticks: Vec<TickIn> = (0..10)
        .map(|_| {
            let mut capacities: Vec<(u32, NodeIn)> =
                degraded.iter().map(|&n| (n, STREAM_NODE)).collect();
            let mut next: Vec<u32> = Vec::with_capacity(failures);
            while next.len() < failures {
                let node = rng.below(nodes as u64) as u32;
                if !degraded.contains(&node) && !next.contains(&node) {
                    next.push(node);
                }
            }
            capacities.extend(next.iter().map(|&n| (n, DEGRADED_NODE)));
            degraded = next;
            TickIn {
                arrivals: (0..failures).map(|_| arrival(&mut rng, 7_200.0)).collect(),
                capacities,
            }
        })
        .collect();
    // A last tick that only restores: the episode ends on a healthy cluster.
    ticks.push(TickIn {
        arrivals: Vec::new(),
        capacities: degraded.iter().map(|&n| (n, STREAM_NODE)).collect(),
    });
    EpisodeIn::Ticks(LoopIn {
        nodes: vec![STREAM_NODE; nodes as usize],
        initial: base_load(nodes),
        ticks,
        node_limit: 2_000,
        max_iterations: 0,
    })
}

/// `quiet_trickle`: 10 000 nodes / 60 000 base VMs and 5 short vjobs per
/// tick — a few dozen actions on a cluster where nothing else moves.  The
/// work range is narrow (60–140 s) so that on every seed completions start
/// by the fourth tick: a tick with a stop lasts 25 virtual seconds, one
/// without 6, and the sum is an end-to-end metric.
fn quiet_trickle(seed: u64) -> EpisodeIn {
    let nodes = 10_000;
    let mut rng = XorShift::new(seed);
    let ticks = (0..12)
        .map(|_| TickIn {
            arrivals: (0..5)
                .map(|_| {
                    let work = rng.secs_in(60, 140);
                    arrival(&mut rng, work)
                })
                .collect(),
            capacities: Vec::new(),
        })
        .collect();
    EpisodeIn::Ticks(LoopIn {
        nodes: vec![STREAM_NODE; nodes as usize],
        initial: base_load(nodes),
        ticks,
        node_limit: 500,
        max_iterations: 0,
    })
}

/// `drain_switch`: 3 000 nodes of which 600 are fully packed and drained
/// onto the 2 400 receivers (3 spare units each); the drained nodes whose
/// VMs are small are backfilled at once by a waiting 10-VM vjob, so every
/// backfill boot depends on the migrations that free its node (6 000
/// migrations and about 4 000 boots).  The seed draws each drained node's
/// memory class.  The executor's time grows faster than the action count
/// (2 500 nodes: 0.26 s per switch, 3 000: 0.5 s, 5 000: 2.1 s), so this is
/// the largest size at which a run still holds twenty switches.
fn drain_switch(seed: u64) -> EpisodeIn {
    const UNITS: u32 = 10;
    const RECEIVER_LOAD: u32 = 7;
    const RECEIVER_FREE: u32 = UNITS - RECEIVER_LOAD;
    const WORK_SECS: f64 = 3_600.0;
    let node_count = 3_000;
    let drained = node_count / 5;
    let mut rng = XorShift::new(seed);
    // The largest class sets the length of the switch (its migrations are the
    // slowest), so it is drawn too: 1.5 – 2 GiB.
    let drained_mem_mib = [1_536 + 64 * rng.below(9), 512, 1024];
    let uniform = |count: u32, mem_mib: u64, host: Option<u32>| VjobIn {
        vms: (0..count)
            .map(|_| VmIn {
                mem_mib,
                cpu_pct: 100,
                net_mbps: 0,
                phases: vec![PhaseIn {
                    cpu_pct: 100,
                    net_mbps: 0,
                    secs: WORK_SECS,
                }],
            })
            .collect(),
        host,
    };

    let classes: Vec<usize> = (0..drained).map(|_| rng.below(3) as usize).collect();
    let mut vjobs: Vec<VjobIn> = Vec::new();
    for (node, &class) in classes.iter().enumerate() {
        vjobs.push(uniform(UNITS, drained_mem_mib[class], Some(node as u32)));
    }
    for node in drained..node_count {
        vjobs.push(uniform(RECEIVER_LOAD, 1024, Some(node)));
    }
    // The big-memory nodes (class 0) stay empty, as if drained for maintenance.
    let backfilled: Vec<u32> = (0..drained).filter(|&n| classes[n as usize] != 0).collect();
    for _ in &backfilled {
        vjobs.push(uniform(UNITS, 1024, None));
    }

    let mut target: Vec<(u32, u32)> = Vec::new();
    for vm in 0..drained * UNITS {
        target.push((vm, drained + vm / RECEIVER_FREE));
    }
    let first_backfill_vm = drained * UNITS + (node_count - drained) * RECEIVER_LOAD;
    for (offset, &node) in backfilled.iter().enumerate() {
        for p in 0..UNITS {
            target.push((first_backfill_vm + offset as u32 * UNITS + p, node));
        }
    }
    EpisodeIn::Switch(SwitchIn {
        nodes: vec![
            NodeIn {
                cpu_pct: UNITS * 100,
                mem_mib: 24 * 1024,
                net_mbps: 0,
            };
            node_count as usize
        ],
        vjobs,
        target,
    })
}

/// The CPU shape of one NAS-Grid-like vjob of 9 VMs: `kind` 0 = ED
/// (independent tasks), 1 = HC (chain), 2 = MB (mixed bag), 3 = VP
/// (pipeline); `task` is the class's task length.  Every duration carries
/// ±10 % jitter, like two runs of the real benchmark.
fn nas_grid_vjob(rng: &mut XorShift, kind: usize, task: f64, mem_mib: u64) -> VjobIn {
    const VMS: usize = 9;
    let mut jitter = |secs: f64| secs * rng.f64_in(0.9, 1.1);
    let compute = |secs: f64| PhaseIn {
        cpu_pct: 100,
        net_mbps: 0,
        secs,
    };
    let idle = |secs: f64| PhaseIn {
        cpu_pct: 10,
        net_mbps: 0,
        secs,
    };
    let vms = (0..VMS)
        .map(|i| {
            let phases = match kind {
                0 => vec![compute(jitter(task))],
                1 => {
                    let mut phases = Vec::new();
                    if i > 0 {
                        phases.push(idle(task * i as f64));
                    }
                    phases.push(compute(jitter(task)));
                    phases
                }
                2 => {
                    if i % 2 == 0 {
                        vec![compute(jitter(task * 1.5))]
                    } else {
                        vec![
                            compute(jitter(task * 0.5)),
                            idle(task * 0.3),
                            compute(jitter(task * 0.5)),
                        ]
                    }
                }
                _ => {
                    let stage = i % 3;
                    let mut phases = Vec::new();
                    if stage > 0 {
                        phases.push(idle(task * stage as f64 * 0.5));
                    }
                    for _ in 0..VMS / 3 {
                        phases.push(compute(jitter(task * 0.5)));
                        phases.push(idle(task * 0.1));
                    }
                    phases
                }
            };
            VmIn {
                mem_mib,
                cpu_pct: 0,
                net_mbps: 0,
                phases,
            }
        })
        .collect();
    VjobIn { vms, host: None }
}

/// `paper_batch`: the paper's §5.2 cluster — 11 nodes of 2 processing units /
/// 3.5 GiB — and its vjobs of 9 NAS-Grid-like VMs (512 MiB – 2 GiB per VM)
/// submitted at once, for 24 instances drawn from the seed, each run to
/// completion.
///
/// The paper submits 8 vjobs; this workload submits 5 (45 VMs for 22
/// processing units, 40.5 GiB for 38.5: still overloaded on both, so vjobs
/// are suspended and resumed; with 4 nothing is ever suspended).  From 6
/// vjobs up the repair optimizer keeps falling back to a full repack, which
/// today makes about one run in twelve end in `NoViablePlacement` and, on
/// about one seed in eight, sends `Planner::plan` into a bypass-migration
/// loop that never returns — and a benchmark workload should be one on which
/// no operation fails.  With 5 vjobs, 100 seeds × 48 runs gave no hang, two
/// fallbacks and three seeds with one failing run each (`failed` counts it).
fn paper_batch(seed: u64) -> EpisodeIn {
    const TASK_SECS: [f64; 4] = [420.0, 120.0, 420.0, 120.0];
    const MEM_MIB: [u64; 4] = [512, 1024, 512, 2048];
    const VJOBS: usize = 5;
    const INSTANCES: usize = 24;
    let mut rng = XorShift::new(seed);
    let loops = (0..INSTANCES)
        .map(|_| LoopIn {
            nodes: vec![
                NodeIn {
                    cpu_pct: 200,
                    mem_mib: 4096 - 512,
                    net_mbps: 0,
                };
                11
            ],
            initial: (0..VJOBS)
                .map(|j| nas_grid_vjob(&mut rng, j % 4, TASK_SECS[j % 4], MEM_MIB[j % 4]))
                .collect(),
            ticks: Vec::new(),
            node_limit: 5_000,
            max_iterations: 1_000,
        })
        .collect();
    EpisodeIn::Runs(loops)
}

/// Generate the episode of `workload` for `seed`.
pub fn generate(workload: &str, seed: u64) -> Option<EpisodeIn> {
    Some(match workload {
        "stream_arrivals" => stream_arrivals(seed),
        "node_failures" => node_failures(seed),
        "quiet_trickle" => quiet_trickle(seed),
        "drain_switch" => drain_switch(seed),
        "paper_batch" => paper_batch(seed),
        _ => return None,
    })
}

/// FNV-1a over every generated number: equal digests ⇔ equal inputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn node(&mut self, node: &NodeIn) {
        self.word(node.cpu_pct as u64);
        self.word(node.mem_mib);
        self.word(node.net_mbps);
    }

    fn vjob(&mut self, vjob: &VjobIn) {
        self.word(vjob.host.map(|h| h as u64 + 1).unwrap_or(0));
        self.word(vjob.vms.len() as u64);
        for vm in &vjob.vms {
            self.word(vm.mem_mib);
            self.word(vm.cpu_pct as u64);
            self.word(vm.net_mbps);
            for phase in &vm.phases {
                self.word(phase.cpu_pct as u64);
                self.word(phase.net_mbps);
                self.word(phase.secs.to_bits());
            }
        }
    }

    fn control_loop(&mut self, input: &LoopIn) {
        input.nodes.iter().for_each(|n| self.node(n));
        input.initial.iter().for_each(|j| self.vjob(j));
        for tick in &input.ticks {
            tick.arrivals.iter().for_each(|j| self.vjob(j));
            for (node, capacity) in &tick.capacities {
                self.word(*node as u64);
                self.node(capacity);
            }
        }
        self.word(input.node_limit);
        self.word(input.max_iterations as u64);
    }
}

impl EpisodeIn {
    /// A digest of every generated value.
    pub fn digest(&self) -> u64 {
        let mut digest = Digest::new();
        match self {
            EpisodeIn::Ticks(input) => digest.control_loop(input),
            EpisodeIn::Runs(loops) => loops.iter().for_each(|l| digest.control_loop(l)),
            EpisodeIn::Switch(input) => {
                input.nodes.iter().for_each(|n| digest.node(n));
                input.vjobs.iter().for_each(|j| digest.vjob(j));
                for (vm, node) in &input.target {
                    digest.word(*vm as u64);
                    digest.word(*node as u64);
                }
            }
        }
        digest.0
    }

    /// Number of VMs the episode ever creates, per loop (one entry for a
    /// switch) — what VM-record conservation is checked against.
    pub fn vm_counts(&self) -> Vec<usize> {
        let count = |vjobs: &[VjobIn]| vjobs.iter().map(|j| j.vms.len()).sum::<usize>();
        let of_loop = |input: &LoopIn| {
            count(&input.initial)
                + input
                    .ticks
                    .iter()
                    .map(|t| count(&t.arrivals))
                    .sum::<usize>()
        };
        match self {
            EpisodeIn::Ticks(input) => vec![of_loop(input)],
            EpisodeIn::Runs(loops) => loops.iter().map(of_loop).collect(),
            EpisodeIn::Switch(input) => vec![count(&input.vjobs)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in WORKLOADS {
            let a = generate(workload, 42).expect("known workload");
            let b = generate(workload, 42).expect("known workload");
            let c = generate(workload, 43).expect("known workload");
            assert_eq!(a.digest(), b.digest(), "{workload}: same seed");
            assert_eq!(a, b, "{workload}: same seed");
            assert_ne!(a.digest(), c.digest(), "{workload}: other seed");
        }
        assert!(generate("no_such_workload", 42).is_none());
    }

    #[test]
    fn drain_switch_has_the_advertised_shape() {
        let EpisodeIn::Switch(input) = drain_switch(42) else {
            panic!("drain_switch is a switch");
        };
        assert_eq!(input.nodes.len(), 3_000);
        let vms: usize = input.vjobs.iter().map(|j| j.vms.len()).sum();
        let backfill_vms = input.vjobs.iter().filter(|j| j.host.is_none()).count() * 10;
        assert_eq!(vms, 6_000 + 16_800 + backfill_vms);
        // 6 000 migrations plus one boot per backfill VM.
        assert_eq!(input.target.len(), 6_000 + backfill_vms);
        // No receiver absorbs more than its three spare units.
        let mut landed = vec![0u32; 3_000];
        for &(vm, node) in &input.target {
            if vm < 6_000 {
                landed[node as usize] += 1;
            }
        }
        assert!(landed[..600].iter().all(|&n| n == 0));
        assert!(landed[600..].iter().all(|&n| n <= 3));
    }

    #[test]
    fn node_failures_restore_what_they_degrade() {
        let EpisodeIn::Ticks(input) = node_failures(7) else {
            panic!("node_failures is a tick loop");
        };
        let mut degraded: Vec<u32> = Vec::new();
        for tick in &input.ticks {
            let restored: Vec<u32> = tick
                .capacities
                .iter()
                .filter(|(_, c)| *c == STREAM_NODE)
                .map(|(n, _)| *n)
                .collect();
            assert_eq!(
                restored, degraded,
                "each tick restores the previous failures"
            );
            degraded = tick
                .capacities
                .iter()
                .filter(|(_, c)| *c == DEGRADED_NODE)
                .map(|(n, _)| *n)
                .collect();
        }
        assert!(degraded.is_empty(), "the episode ends healthy");
    }
}
