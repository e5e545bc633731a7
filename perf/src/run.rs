//! One run of one workload: repeat the workload's episode until the time
//! budget is spent, check its outputs, and reduce the samples to metrics.
//!
//! An untraced run (`--trace 0`) drives the production `ControlLoop` and
//! reports the end-to-end metrics.  A traced run (`--trace 1`) alternates
//! untraced and traced episodes of the same inputs: the traced ones give the
//! per-layer metrics, the untraced ones are the reference the traced replay's
//! deterministic outputs must equal and the base of `trace.overhead_pct`.

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{
    prepare_loop, prepare_switch, run_switch, EndState, LayerCounters, LoopDriver, PlainLoop,
    PreparedTick, SolverTimings, StagedLoop, TickFacts, Trace,
};
use crate::stats::{median, tail};
use crate::trace::{attributed_pct, chrome_trace, durations_ms, Span};
use crate::workloads::{generate, EpisodeIn};

/// A metric as printed: name, value, unit, and how many samples it reduces.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics, in report order: `(name, unit)`.  Every one is
/// defined and non-zero on every workload (the benchmark contract compares
/// each as a share of its median).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("decide_ms_p50", "ms"),
    ("switch_virtual_s_total", "s"),
    ("peak_rss_mb", "MB"),
];

/// The timed layer calls: `(metric prefix, span name)`.  Each yields a
/// `_p50` and a `_total` (per episode) metric in milliseconds.
const TIMED_LAYERS: [(&str, &str); 13] = [
    ("sim.monitor.observe_ms", "sim.monitor.observe"),
    ("sim.monitor.apply_ms", "sim.monitor.apply"),
    ("core.consolidation.decide_ms", "core.consolidation.decide"),
    ("core.optimizer.sync_ms", "core.optimizer.sync"),
    ("core.optimizer.optimize_ms", "core.optimizer.optimize"),
    ("plan.planner.plan_ms", "plan.planner.plan"),
    ("plan.dependencies.derive_ms", "plan.dependencies.derive"),
    ("sim.executor.execute_ms", "sim.executor.execute"),
    ("sim.cluster.admit_ms", "sim.cluster.admit"),
    ("sim.cluster.advance_ms", "sim.cluster.advance"),
    ("sim.cluster.utilization_ms", "sim.cluster.utilization"),
    ("core.control_loop.commit_ms", "core.control_loop.commit"),
    ("plan.validate_ms", "plan.validate"),
];

/// Spans that only group layer calls: their self time is what the trace
/// leaves unattributed.
const GROUPING_SPANS: [&str; 3] = ["tick", "observe", "decide"];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// The result of a run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs (same seed ⇒ same digest).
    pub input_digest: u64,
    /// Failed correctness checks, one line each (`correct` ⇔ none).
    pub check_failures: Vec<String>,
    /// Failed operations, one line each.
    pub op_failures: Vec<String>,
}

/// The deterministic outputs of one episode: equal for equal inputs, on any
/// machine, traced or not.
#[derive(Debug, Clone, Default, PartialEq)]
struct EpisodeFacts {
    plan_cost_total: u64,
    switch_virtual_s_total: f64,
    actions_total: u64,
    search_nodes_total: u64,
    failed_actions: u64,
    terminated_vjobs: u64,
    turnaround_virtual_s: f64,
    vm_records_end: u64,
}

impl EpisodeFacts {
    fn add(&mut self, tick: &TickFacts) {
        self.plan_cost_total += tick.plan_cost;
        self.switch_virtual_s_total += tick.switch_virtual_s;
        self.actions_total += tick.actions;
        self.search_nodes_total += tick.search_nodes;
        self.failed_actions += tick.failed_actions;
        self.terminated_vjobs += tick.terminated;
        self.turnaround_virtual_s += tick.turnaround_s;
    }
}

/// Everything one episode produced.
#[derive(Default)]
struct Episode {
    input_digest: u64,
    setup_s: f64,
    /// Wall of every successful operation / decide latency of every tick of
    /// a successful operation, milliseconds.
    op_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    build_ms: Vec<f64>,
    attempted: u64,
    failed_ops: u64,
    facts: EpisodeFacts,
    /// Failed correctness checks / failed operations, one line each.
    check_failures: Vec<String>,
    op_failures: Vec<String>,
    trace: Trace,
}

impl Episode {
    /// Record the end-of-loop checks: nothing overloaded, every VM record
    /// accounted for, the configuration consistent.
    fn check_end(&mut self, what: &str, end: &EndState, expected_vms: usize) {
        self.facts.vm_records_end += end.vm_records as u64;
        if end.vm_records != expected_vms {
            self.check_failures.push(format!(
                "{what}: {} VM records, the generator made {expected_vms}",
                end.vm_records
            ));
        }
        if !end.viable {
            self.check_failures
                .push(format!("{what}: ends with an overloaded node"));
        }
        if !end.consistent {
            self.check_failures
                .push(format!("{what}: ends in an inconsistent configuration"));
        }
    }

    fn op_failed(&mut self, what: &str, error: &str) {
        self.failed_ops += 1;
        self.op_failures.push(format!("{what} failed: {error}"));
    }
}

fn new_driver(
    input: &crate::workloads::LoopIn,
    traced: bool,
) -> (Box<dyn LoopDriver>, Vec<PreparedTick>, f64) {
    let mut prepared = prepare_loop(input);
    let ticks = std::mem::take(&mut prepared.ticks);
    let build_ms = prepared.build_ms;
    let driver: Box<dyn LoopDriver> = if traced {
        Box::new(StagedLoop::new(prepared))
    } else {
        Box::new(PlainLoop::new(prepared))
    };
    (driver, ticks, build_ms)
}

/// Generate, set up and run one episode.
fn run_episode(workload: &str, seed: u64, traced: bool, validate_plans: bool) -> Episode {
    let mut episode = Episode::default();
    episode.trace.validate_plans = validate_plans;
    let started = Instant::now();
    let input = generate(workload, seed).expect("the workload name was checked");
    let expected_vms = input.vm_counts();
    episode.input_digest = input.digest();
    match &input {
        EpisodeIn::Ticks(loop_in) => {
            let (mut driver, ticks, build_ms) = new_driver(loop_in, traced);
            episode.build_ms.push(build_ms);
            episode.setup_s = started.elapsed().as_secs_f64();
            for (index, tick) in ticks.iter().enumerate() {
                episode.attempted += 1;
                match driver.tick(tick, &mut episode.trace) {
                    Ok(facts) => {
                        episode.op_ms.push(facts.wall_ms);
                        episode.decide_ms.push(facts.decide_ms);
                        episode.facts.add(&facts);
                    }
                    Err(error) => {
                        // The loop's state after an error is unknown: the
                        // rest of the episode counts as failed.
                        episode.op_failed(&format!("tick {index}"), &error);
                        episode.failed_ops += (ticks.len() - index - 1) as u64;
                        episode.attempted += (ticks.len() - index - 1) as u64;
                        break;
                    }
                }
            }
            driver.finish(&mut episode.trace);
            if episode.failed_ops == 0 {
                episode.check_end("the loop", &driver.end_state(), expected_vms[0]);
            }
        }
        EpisodeIn::Runs(loops) => {
            let mut drivers: Vec<Box<dyn LoopDriver>> = Vec::with_capacity(loops.len());
            for loop_in in loops {
                let (driver, _, build_ms) = new_driver(loop_in, traced);
                episode.build_ms.push(build_ms);
                drivers.push(driver);
            }
            episode.setup_s = started.elapsed().as_secs_f64();
            let idle_tick = PreparedTick::default();
            for (index, (mut driver, loop_in)) in drivers.into_iter().zip(loops).enumerate() {
                episode.attempted += 1;
                // A failed run contributes no sample and no fact: remember
                // where it started and roll back.
                let facts_before = episode.facts.clone();
                let decides_before = episode.decide_ms.len();
                let mut wall_ms = 0.0;
                let mut outcome = Err("the iteration bound was hit first".to_string());
                for _ in 0..loop_in.max_iterations {
                    match driver.tick(&idle_tick, &mut episode.trace) {
                        Ok(tick) => {
                            wall_ms += tick.wall_ms;
                            episode.decide_ms.push(tick.decide_ms);
                            episode.facts.add(&tick);
                        }
                        Err(error) => {
                            outcome = Err(error);
                            break;
                        }
                    }
                    if driver.all_terminated() {
                        outcome = Ok(());
                        break;
                    }
                }
                driver.finish(&mut episode.trace);
                match outcome {
                    Ok(()) => {
                        episode.op_ms.push(wall_ms);
                        episode.check_end(
                            &format!("run {index}"),
                            &driver.end_state(),
                            expected_vms[index],
                        );
                    }
                    Err(error) => {
                        episode.facts = facts_before;
                        episode.decide_ms.truncate(decides_before);
                        episode.op_failed(&format!("run {index}"), &error);
                    }
                }
            }
        }
        EpisodeIn::Switch(switch_in) => {
            let prepared = prepare_switch(switch_in);
            episode.build_ms.push(prepared.build_ms);
            episode.setup_s = started.elapsed().as_secs_f64();
            episode.attempted += 1;
            match run_switch(prepared, &mut episode.trace, traced) {
                Ok((facts, end)) => {
                    episode.op_ms.push(facts.wall_ms);
                    episode.decide_ms.push(facts.decide_ms);
                    episode.facts.add(&facts);
                    episode.check_end("the switch", &end, expected_vms[0]);
                }
                Err(error) => episode.op_failed("the switch", &error),
            }
        }
    }
    episode
}

/// Time set-up alone (generate, build, construct, drop): pads the set-up
/// samples of a run that held fewer than three episodes.
fn setup_only(workload: &str, seed: u64) -> f64 {
    let started = Instant::now();
    let input = generate(workload, seed).expect("the workload name was checked");
    match &input {
        EpisodeIn::Ticks(loop_in) => drop(new_driver(loop_in, false)),
        EpisodeIn::Runs(loops) => {
            let drivers: Vec<_> = loops.iter().map(|l| new_driver(l, false)).collect();
            drop(drivers);
        }
        EpisodeIn::Switch(switch_in) => drop(prepare_switch(switch_in)),
    }
    started.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Element-wise minimum of `fastest` and `repeat`: the fastest observation
/// of each operation over the episodes seen so far.  Every episode of a run
/// has the same inputs, so operation `i` does the same work each time and
/// whatever else the machine was doing can only have added to it; the
/// fastest repeat is the steadiest estimate of its cost.  Episodes of unequal
/// length (an operation failed in one and not the other — the outputs check
/// reports that) are pooled instead.
fn keep_fastest(fastest: &mut Vec<f64>, repeat: &[f64], first: bool) {
    if first {
        *fastest = repeat.to_vec();
    } else if fastest.len() == repeat.len() {
        for (best, &again) in fastest.iter_mut().zip(repeat) {
            *best = best.min(again);
        }
    } else {
        fastest.extend(repeat);
    }
}

/// Samples pooled over the episodes of one kind (untraced or traced).
#[derive(Default)]
struct Pool {
    episodes: usize,
    /// Every sample, for the tails.
    op_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    /// One sample per operation / tick of the episode: its fastest repeat.
    fastest_op_ms: Vec<f64>,
    fastest_decide_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    facts: Option<EpisodeFacts>,
    op_failures: Vec<String>,
}

impl Pool {
    /// Add an episode; reports its failed checks, and when its deterministic
    /// outputs differ from the first episode's.
    fn add(&mut self, episode: &Episode, problems: &mut Vec<String>, kind: &str) {
        keep_fastest(&mut self.fastest_op_ms, &episode.op_ms, self.episodes == 0);
        keep_fastest(
            &mut self.fastest_decide_ms,
            &episode.decide_ms,
            self.episodes == 0,
        );
        self.episodes += 1;
        self.op_ms.extend(&episode.op_ms);
        self.decide_ms.extend(&episode.decide_ms);
        self.attempted += episode.attempted;
        self.failed += episode.failed_ops + episode.facts.failed_actions;
        problems.extend(
            episode
                .check_failures
                .iter()
                .map(|p| format!("{kind} episode: {p}")),
        );
        self.op_failures.extend(
            episode
                .op_failures
                .iter()
                .map(|p| format!("{kind} episode: {p}")),
        );
        match &self.facts {
            None => self.facts = Some(episode.facts.clone()),
            Some(first) if *first != episode.facts => problems.push(format!(
                "{kind} episodes of the same inputs disagree: {first:?} vs {:?}",
                episode.facts
            )),
            Some(_) => {}
        }
    }
}

fn end_to_end_metrics(pool: &Pool, setups: &[f64]) -> Vec<Metric> {
    let facts = pool.facts.clone().unwrap_or_default();
    let ops = pool.fastest_op_ms.len();
    let busy_s = pool.fastest_op_ms.iter().sum::<f64>() / 1e3;
    vec![
        metric("setup_s", median(setups), "s", setups.len()),
        metric(
            "ops_per_s",
            if busy_s > 0.0 {
                ops as f64 / busy_s
            } else {
                0.0
            },
            "1/s",
            ops,
        ),
        metric("tick_ms_p50", median(&pool.fastest_op_ms), "ms", ops),
        metric(
            "decide_ms_p50",
            median(&pool.fastest_decide_ms),
            "ms",
            pool.fastest_decide_ms.len(),
        ),
        metric(
            "switch_virtual_s_total",
            facts.switch_virtual_s_total,
            "s",
            pool.episodes,
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
}

/// The per-layer metrics of a traced run.  `plain` is the pool of untraced
/// reference episodes, `traced` the pool of traced ones; `spans`, `counters`
/// and `overhead_ms` come from the traced episodes (counters of the first).
fn per_layer_metrics(
    plain: &Pool,
    traced: &Pool,
    spans: &[Span],
    counters: &LayerCounters,
    solver: &SolverTimings,
    overhead_ms: &[f64],
    build_ms: &[f64],
) -> Vec<Metric> {
    let episodes = traced.episodes.max(1) as f64;
    let facts = plain.facts.clone().unwrap_or_default();
    let c = counters;
    // The timing-dependent solver numbers are pooled over the traced
    // episodes; the counters are the first episode's.
    let search_ms = solver.search_ms as f64 / episodes;
    let mut out = Vec::new();
    let mut timed = |prefix: &str, samples: &[f64]| {
        out.push(metric(
            &format!("{prefix}_p50"),
            median(samples),
            "ms",
            samples.len(),
        ));
        out.push(metric(
            &format!("{prefix}_total"),
            // An empty sum is -0.0; print a layer that was never called as 0.
            samples.iter().sum::<f64>() / episodes + 0.0,
            "ms",
            samples.len(),
        ));
    };
    for (prefix, span_name) in TIMED_LAYERS {
        timed(prefix, &durations_ms(spans, span_name));
    }
    timed("core.optimizer.overhead_ms", overhead_ms);
    timed("sim.cluster.build_ms", build_ms);

    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let execute_s = durations_ms(spans, "sim.executor.execute")
        .iter()
        .sum::<f64>()
        / 1e3
        / episodes;
    let counts = [
        ("sim.monitor.delta_vms_total", c.delta_vms as f64, "count"),
        (
            "sim.monitor.delta_nodes_total",
            c.delta_nodes as f64,
            "count",
        ),
        (
            "sim.monitor.full_observations",
            c.full_observations as f64,
            "count",
        ),
        (
            "core.consolidation.vjobs_seen_total",
            c.vjobs_seen as f64,
            "count",
        ),
        (
            "core.optimizer.optimizations_total",
            c.optimizations as f64,
            "count",
        ),
        (
            "core.optimizer.movable_vms_mean",
            share(c.movable_vms, c.repair_solves),
            "count",
        ),
        (
            "core.optimizer.candidate_nodes_mean",
            share(c.candidate_nodes, c.repair_solves),
            "count",
        ),
        (
            "core.optimizer.widenings_total",
            c.widenings as f64,
            "count",
        ),
        (
            "core.optimizer.fell_back_to_full_total",
            c.fell_back_to_full as f64,
            "count",
        ),
        (
            "core.optimizer.model_patches",
            c.model_patches as f64,
            "count",
        ),
        (
            "core.optimizer.model_set_diff_patches",
            c.model_set_diff_patches as f64,
            "count",
        ),
        (
            "core.optimizer.model_rebuilds",
            c.model_rebuilds as f64,
            "count",
        ),
        ("solver.search_ms_total", search_ms, "ms"),
        ("solver.nodes_total", c.nodes as f64, "count"),
        ("solver.failures_total", c.failures as f64, "count"),
        ("solver.solutions_total", c.solutions as f64, "count"),
        ("solver.restarts_total", c.restarts as f64, "count"),
        (
            "solver.nodes_per_s",
            if search_ms > 0.0 {
                c.nodes as f64 * 1e3 / search_ms
            } else {
                0.0
            },
            "1/s",
        ),
        (
            "solver.proved_optimal_share",
            share(c.proved_optimal, c.searches),
            "share",
        ),
        (
            "solver.incumbent_kept_share",
            share(c.incumbent_kept, c.searches),
            "share",
        ),
        (
            "solver.steals_total",
            solver.steals as f64 / episodes,
            "count",
        ),
        (
            "solver.worker_nodes_imbalance",
            if solver.portfolio_solves == 0 {
                0.0
            } else {
                solver.worker_imbalance / solver.portfolio_solves as f64
            },
            "ratio",
        ),
        ("plan.planner.actions_total", c.actions as f64, "count"),
        ("plan.planner.pools_total", c.pools as f64, "count"),
        (
            "plan.planner.migrations_total",
            c.migrations as f64,
            "count",
        ),
        ("plan.planner.suspends_total", c.suspends as f64, "count"),
        ("plan.planner.resumes_total", c.resumes as f64, "count"),
        ("plan.dependencies.edges_total", c.edges as f64, "count"),
        (
            "sim.executor.actions_per_s",
            if execute_s > 0.0 {
                c.actions as f64 / execute_s
            } else {
                0.0
            },
            "1/s",
        ),
        (
            "sim.executor.failed_actions_total",
            c.failed_actions as f64,
            "count",
        ),
        (
            "sim.executor.max_concurrency",
            c.max_concurrency as f64,
            "count",
        ),
        ("plan.validated_total", c.validated_plans as f64, "count"),
    ];
    out.extend(
        counts
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit, 1)),
    );
    out.push(metric(
        "model.configuration.vm_records_end",
        c.vm_records_end as f64,
        "count",
        1,
    ));

    // The end-to-end quantities that cannot be end-to-end metrics of the
    // contract (zero or undefined on some workload), from the untraced
    // reference episodes.
    out.push(metric(
        "plan_cost_total",
        facts.plan_cost_total as f64,
        "cost",
        plain.episodes,
    ));
    out.push(metric(
        "vjob_turnaround_virtual_s_mean",
        if facts.terminated_vjobs == 0 {
            0.0
        } else {
            facts.turnaround_virtual_s / facts.terminated_vjobs as f64
        },
        "s",
        facts.terminated_vjobs as usize,
    ));
    out.push(metric(
        "failed_ops_share",
        share(
            plain.failed + traced.failed,
            plain.attempted + traced.attempted,
        ),
        "share",
        (plain.attempted + traced.attempted) as usize,
    ));
    let (tick_pct, tick_tail) = tail(&plain.op_ms);
    out.push(metric("tick_ms_tail", tick_tail, "ms", plain.op_ms.len()));
    out.push(metric(
        "tick_tail_pct",
        tick_pct as f64,
        "%",
        plain.op_ms.len(),
    ));
    let (decide_pct, decide_tail) = tail(&plain.decide_ms);
    out.push(metric(
        "decide_ms_tail",
        decide_tail,
        "ms",
        plain.decide_ms.len(),
    ));
    out.push(metric(
        "decide_tail_pct",
        decide_pct as f64,
        "%",
        plain.decide_ms.len(),
    ));

    let plain_p50 = median(&plain.fastest_op_ms);
    out.push(metric(
        "trace.overhead_pct",
        if plain_p50 > 0.0 {
            100.0 * (median(&traced.fastest_op_ms) / plain_p50 - 1.0)
        } else {
            0.0
        },
        "%",
        traced.op_ms.len(),
    ));
    out.push(metric(
        "trace.attributed_pct",
        attributed_pct(spans, &GROUPING_SPANS),
        "%",
        spans.len(),
    ));
    out.push(metric(
        "trace.spans_total",
        spans.len() as f64 / episodes,
        "count",
        1,
    ));
    out
}

/// The names `--trace 1` prints, in order (what `BENCHMARK.json` lists under
/// `per_layer`).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    per_layer_metrics(
        &Pool::default(),
        &Pool::default(),
        &[],
        &LayerCounters::default(),
        &SolverTimings::default(),
        &[],
        &[],
    )
    .into_iter()
    .map(|m| (m.name, m.unit))
    .collect()
}

/// Run one workload for `args.seconds` and reduce it to a result.
pub fn run(args: &RunArgs) -> RunResult {
    let started = Instant::now();
    let mut problems: Vec<String> = Vec::new();
    let mut plain = Pool::default();
    let mut traced = Pool::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut build_ms: Vec<f64> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut overhead_ms: Vec<f64> = Vec::new();
    let mut counters: Option<LayerCounters> = None;
    let mut solver = SolverTimings::default();

    // One round is an untraced episode, plus a traced one in a traced run.
    // A new round starts while at least half of it still fits the budget.
    let mut rounds = 0u32;
    let input_digest = loop {
        let episode = run_episode(&args.workload, args.seed, false, false);
        let input_digest = episode.input_digest;
        setups.push(episode.setup_s);
        build_ms.extend(&episode.build_ms);
        plain.add(&episode, &mut problems, "untraced");
        if args.trace {
            let episode = run_episode(&args.workload, args.seed, true, rounds == 0);
            traced.add(&episode, &mut problems, "traced");
            let Trace {
                tracer,
                counters: mut episode_counters,
                solver: episode_solver,
                optimizer_overhead_ms,
                ..
            } = episode.trace;
            solver.search_ms += episode_solver.search_ms;
            solver.steals += episode_solver.steals;
            solver.portfolio_solves += episode_solver.portfolio_solves;
            solver.worker_imbalance += episode_solver.worker_imbalance;
            // Spans of later episodes keep their own parent indices valid by
            // being offset past the spans already collected.
            let offset = spans.len();
            spans.extend(tracer.spans().iter().cloned().map(|mut span| {
                span.parent = span.parent.map(|p| p + offset);
                span
            }));
            overhead_ms.extend(optimizer_overhead_ms);
            match &counters {
                None => counters = Some(episode_counters),
                Some(first) => {
                    // Only the first traced episode validates its plans.
                    episode_counters.validated_plans = first.validated_plans;
                    if *first != episode_counters {
                        problems.push(format!(
                            "traced episodes of the same inputs count differently: \
                             {first:?} vs {episode_counters:?}"
                        ));
                    }
                }
            }
        }
        rounds += 1;
        let mean_round_s = started.elapsed().as_secs_f64() / rounds as f64;
        if started.elapsed().as_secs_f64() + mean_round_s / 2.0 > args.seconds {
            break input_digest;
        }
    };
    while setups.len() < 3 {
        setups.push(setup_only(&args.workload, args.seed));
    }

    let metrics = if args.trace {
        let counters = counters.unwrap_or_default();
        if plain.facts != traced.facts {
            problems.push(format!(
                "the staged replay drifted from ControlLoop::iterate: untraced {:?} vs traced {:?}",
                plain.facts, traced.facts
            ));
        }
        if counters.invalid_plans > 0 {
            problems.push(format!(
                "{} executed plans fail ReconfigurationPlan::validate",
                counters.invalid_plans
            ));
        }
        if counters.replay_mismatches > 0 {
            problems.push(format!(
                "{} planner replays differ from the executed plan",
                counters.replay_mismatches
            ));
        }
        if let Err(error) = write_trace(args, &spans) {
            problems.push(format!("cannot write the trace: {error}"));
        }
        per_layer_metrics(
            &plain,
            &traced,
            &spans,
            &counters,
            &solver,
            &overhead_ms,
            &build_ms,
        )
    } else {
        end_to_end_metrics(&plain, &setups)
    };

    let mut op_failures = plain.op_failures;
    op_failures.append(&mut traced.op_failures);
    // Every episode repeats the same inputs, so a failing operation repeats.
    op_failures.dedup();
    RunResult {
        // A failed operation is counted, not a wrong output: only failed
        // checks make the run incorrect.
        correct: problems.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        input_digest,
        check_failures: problems,
        op_failures,
    }
}

fn write_trace(args: &RunArgs, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(path, chrome_trace(&args.workload, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn episode(op_ms: &[f64], attempted: u64, failed_ops: u64) -> Episode {
        Episode {
            op_ms: op_ms.to_vec(),
            decide_ms: op_ms.iter().map(|ms| ms / 2.0).collect(),
            attempted,
            failed_ops,
            ..Episode::default()
        }
    }

    #[test]
    fn timings_are_taken_over_successful_operations() {
        // 5 attempted, 2 failed: the 3 successful ones alone set every
        // timing, so fixing the failures cannot read as a slowdown.
        let mut problems = Vec::new();
        let mut pool = Pool::default();
        pool.add(
            &episode(&[100.0, 200.0, 300.0], 5, 2),
            &mut problems,
            "untraced",
        );
        assert!(problems.is_empty());
        assert_eq!((pool.attempted, pool.failed), (5, 2));
        let metrics = end_to_end_metrics(&pool, &[0.5, 0.1, 0.3]);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.value, m.samples))
                .expect("metric present")
        };
        assert_eq!(value("tick_ms_p50"), (200.0, 3));
        assert_eq!(value("decide_ms_p50"), (100.0, 3));
        assert_eq!(
            value("ops_per_s"),
            (5.0, 3),
            "3 ops in 0.6 s of successful work"
        );
        assert_eq!(value("setup_s"), (0.3, 3));
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn each_operation_is_timed_by_its_fastest_repeat() {
        let mut problems = Vec::new();
        let mut pool = Pool::default();
        pool.add(
            &episode(&[10.0, 50.0, 30.0], 3, 0),
            &mut problems,
            "untraced",
        );
        pool.add(
            &episode(&[12.0, 20.0, 90.0], 3, 0),
            &mut problems,
            "untraced",
        );
        assert_eq!(pool.fastest_op_ms, vec![10.0, 20.0, 30.0]);
        assert_eq!(pool.fastest_decide_ms, vec![5.0, 10.0, 15.0]);
        assert_eq!(pool.op_ms.len(), 6, "the tails see every sample");
        let metrics = end_to_end_metrics(&pool, &[0.1]);
        assert_eq!((metrics[2].value, metrics[2].samples), (20.0, 3));
        assert_eq!(metrics[1].value, 50.0, "3 ops in 0.06 s");
        // An episode of another length cannot be aligned: it is pooled.
        pool.add(&episode(&[1.0], 3, 2), &mut problems, "untraced");
        assert_eq!(pool.fastest_op_ms, vec![10.0, 20.0, 30.0, 1.0]);
    }

    #[test]
    fn episodes_of_the_same_inputs_must_agree() {
        let mut problems = Vec::new();
        let mut pool = Pool::default();
        pool.add(&episode(&[1.0], 1, 0), &mut problems, "untraced");
        let mut other = episode(&[1.0], 1, 0);
        other.facts.plan_cost_total = 7;
        pool.add(&other, &mut problems, "untraced");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("disagree"));
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let names = per_layer_names();
        assert!(names.len() <= 128);
        let unique: std::collections::BTreeSet<&str> =
            names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(unique.len(), names.len());
        for (name, unit) in &names {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
