//! Sets of runs: every workload, each run its own process (so `peak_rss_mb`
//! is that run's high-water mark), reduced to medians — plus the two checks
//! built on sets, `--aa` and `--spread`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::run::{per_layer_names, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use crate::Cli;

/// The benchmark contract, relative to the root of the repo (`run.sh` runs
/// the program from there).
const CONTRACT_FILE: &str = "BENCHMARK.json";
/// Run length when neither `--seconds` nor `BENCHMARK.json` gives one.
pub const DEFAULT_RUN_SECONDS: f64 = 20.0;
/// Untraced runs per workload in a set; each metric is their median.
const RUNS_PER_SET: usize = 3;
/// End-to-end metrics that are a function of the seed alone: two runs of the
/// same build must agree on them exactly.
const DETERMINISTIC: [&str; 1] = ["switch_virtual_s_total"];
/// Two medians of `setup_s` closer than this are not told apart, whatever
/// the relative bound says (seconds).
const SETUP_FLOOR_S: f64 = 0.05;

/// Direction and regression bound of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` fixes: the run length, each metric's bound, and why
/// each workload exists.
#[derive(Debug, Clone, PartialEq)]
struct Contract {
    run_seconds: f64,
    bounds: BTreeMap<String, Bound>,
    whys: BTreeMap<String, String>,
}

fn parse_contract(text: &str) -> Result<Contract, String> {
    let json = Json::parse(text)?;
    let run_seconds = json
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("no run_seconds")?;
    let mut bounds = BTreeMap::new();
    for entry in json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?
    {
        let field = |key: &str| entry.get(key).ok_or(format!("a metric lacks {key}"));
        let name = field("name")?.as_str().ok_or("a name is not a string")?;
        let lower_is_better = match field("better")?.as_str() {
            Some("lower") => true,
            Some("higher") => false,
            _ => return Err(format!("{name}: better is neither lower nor higher")),
        };
        let bound = field("bound")?.as_f64().ok_or("a bound is not a number")?;
        bounds.insert(
            name.to_string(),
            Bound {
                lower_is_better,
                bound,
            },
        );
    }
    let mut whys = BTreeMap::new();
    for entry in json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no workloads list")?
    {
        let text = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("a workload lacks {key}"))
        };
        whys.insert(text("name")?.to_string(), text("why")?.to_string());
    }
    Ok(Contract {
        run_seconds,
        bounds,
        whys,
    })
}

fn load_contract(path: &Path) -> Result<Contract, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_contract(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The parsed result line of one child run.
#[derive(Debug, Clone)]
struct ChildRun {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, String)>,
}

fn parse_result_line(line: &str, order: &[String]) -> Result<ChildRun, String> {
    let json = Json::parse(line)?;
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or(format!("no {key}"))
    };
    let Some(Json::Object(values)) = json.get("metrics") else {
        return Err("no metrics object".into());
    };
    let mut metrics = Vec::with_capacity(values.len());
    // The JSON object is unordered; list the metrics in report order.
    for name in order {
        let entry = values.get(name).ok_or(format!("no metric {name}"))?;
        metrics.push((
            name.clone(),
            entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name} has no value"))?,
            entry
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name} has no unit"))?
                .to_string(),
        ));
    }
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run reports incorrect outputs".into());
    }
    Ok(ChildRun {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Run one workload once in a child process.
fn run_child(
    cli: &Cli,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir)
        .output()
        .map_err(|e| format!("cannot start the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let problems: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
    for line in &problems {
        println!("  {workload}: {}", line.trim());
    }
    let order: Vec<String> = if trace {
        per_layer_names()
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, _)| name.to_string())
            .collect()
    };
    let line = stdout.lines().last().unwrap_or_default();
    let run = parse_result_line(line, &order).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {}): {e}; {}",
            trace as u8,
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    if !output.status.success() {
        return Err(format!("{workload}: the run exited with {}", output.status));
    }
    Ok(run)
}

/// One workload's part of a set.
struct WorkloadSet {
    untraced: Vec<ChildRun>,
    traced: Option<ChildRun>,
}

impl WorkloadSet {
    /// The values of one end-to-end metric over the untraced runs.
    fn values(&self, name: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|run| run.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect()
    }
}

type Set = BTreeMap<&'static str, WorkloadSet>;

fn selected(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS
        .into_iter()
        .filter(|w| cli.only.as_deref().map_or(true, |only| only == *w))
        .collect()
}

/// Run one set: per workload, `RUNS_PER_SET` untraced runs (`seeds` gives
/// each run's seed) and, unless disabled, one traced run.
fn run_set(cli: &Cli, seconds: f64, seeds: &[u64], traced: bool) -> Result<Set, String> {
    let mut set = Set::new();
    for workload in selected(cli) {
        let mut untraced = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            untraced.push(run_child(cli, workload, seed, seconds, false)?);
        }
        let traced = if traced {
            Some(run_child(cli, workload, seeds[0], seconds, true)?)
        } else {
            None
        };
        set.insert(workload, WorkloadSet { untraced, traced });
    }
    Ok(set)
}

fn print_set(set: &Set, contract: &Contract) {
    for (workload, runs) in set {
        let attempted: u64 = runs.untraced.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.untraced.iter().map(|r| r.failed).sum();
        println!(
            "\n{workload} — {}\n  {} untraced runs, {attempted} operations attempted, {failed} failed",
            contract.whys.get(*workload).map_or("", String::as_str),
            runs.untraced.len(),
        );
        println!(
            "  {:<42} {:>16} {:<6} {:>9}",
            "end-to-end (median of runs)", "value", "unit", "spread"
        );
        for (name, unit) in END_TO_END {
            let values = runs.values(name);
            let mid = median(&values);
            let spread = values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - values.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "  {:<42} {:>16.4} {:<6} {:>8.2}%",
                name,
                mid,
                unit,
                if mid != 0.0 {
                    100.0 * spread / mid
                } else {
                    0.0
                }
            );
        }
        if let Some(traced) = &runs.traced {
            println!(
                "  {:<42} {:>16} {:<6}",
                "per-layer (one traced run)", "value", "unit"
            );
            for (name, value, unit) in &traced.metrics {
                println!("  {name:<42} {value:>16.4} {unit:<6}");
            }
        }
    }
}

/// One line of the A/A table: `first` and `second` are the two medians.
/// Returns whether the pair is within its bound.
fn aa_within(name: &str, first: f64, second: f64, bound: &Bound) -> bool {
    if DETERMINISTIC.contains(&name) {
        return first == second;
    }
    let floor = if name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let worse_by = if bound.lower_is_better {
        second - first
    } else {
        first - second
    };
    // Either order of the two sets must hold: an A/A pair has no parent.
    worse_by.abs() <= (bound.bound * first.abs().min(second.abs())).max(floor)
}

fn print_aa(first: &Set, second: &Set, contract: &Contract) -> bool {
    let mut all_within = true;
    println!(
        "\nA/A: two sets of the same build\n  {:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first median", "second median", "diff", "bound"
    );
    for (workload, a) in first {
        let b = &second[workload];
        for (name, _) in END_TO_END {
            let Some(bound) = contract.bounds.get(name) else {
                println!("  {workload:<16} {name:<24} has no bound in BENCHMARK.json");
                all_within = false;
                continue;
            };
            let (x, y) = (median(&a.values(name)), median(&b.values(name)));
            let within = aa_within(name, x, y, bound);
            all_within &= within;
            println!(
                "  {:<16} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                workload,
                name,
                x,
                y,
                if x != 0.0 { 100.0 * (y - x) / x } else { 0.0 },
                100.0 * bound.bound,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    all_within
}

/// Per workload and end-to-end metric: the interquartile range of `runs`
/// seeds as a share of their median, against a third of the bound.
fn print_spread(set: &Set, contract: &Contract) -> bool {
    let mut all_steady = true;
    println!(
        "\nspread over seeds (interquartile range / median)\n  {:<16} {:<24} {:>14} {:>9} {:>9}",
        "workload", "metric", "median", "spread", "bound/3"
    );
    for (workload, runs) in set {
        for (name, _) in END_TO_END {
            let values = runs.values(name);
            let spread = iqr_share(&values);
            let third = contract.bounds.get(name).map_or(0.0, |b| b.bound / 3.0);
            // The contract does not judge the spread of setup_s.
            let steady = name == "setup_s" || spread <= third;
            all_steady &= steady;
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<16} {:<24} {:>14.4} {:>8.2}% {:>8.2}%{}  [{}]",
                workload,
                name,
                median(&values),
                100.0 * spread,
                100.0 * third,
                if steady { "" } else { "  UNSTEADY" },
                listed.join(" ")
            );
        }
    }
    all_steady
}

/// Entry point of the set modes.
pub fn run_sets(cli: &Cli) -> ExitCode {
    let contract = match load_contract(Path::new(CONTRACT_FILE)) {
        Ok(contract) => contract,
        Err(error) => {
            eprintln!("cannot read the benchmark contract: {error}");
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(contract.run_seconds);
    let outcome = (|| -> Result<bool, String> {
        if let Some(runs) = cli.spread {
            let seeds: Vec<u64> = (0..runs as u64).map(|i| cli.seed + i).collect();
            let set = run_set(cli, seconds, &seeds, false)?;
            return Ok(print_spread(&set, &contract));
        }
        let seeds = [cli.seed; RUNS_PER_SET];
        let first = run_set(cli, seconds, &seeds, !cli.no_trace)?;
        print_set(&first, &contract);
        if !cli.aa {
            return Ok(true);
        }
        let second = run_set(cli, seconds, &seeds, false)?;
        Ok(print_aa(&first, &second, &contract))
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Metric, RunResult};

    /// `BENCHMARK.json` at the root of the repo is part of the benchmark.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let contract = parse_contract(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = contract.bounds.keys().map(String::as_str).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(listed, sorted);
        assert!(contract.bounds.values().all(|b| b.bound <= 0.25));
        assert!(contract.bounds["setup_s"].lower_is_better);
        assert!((1.0..=60.0).contains(&contract.run_seconds));

        let json = Json::parse(BENCHMARK_JSON).expect("parses");
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|e| {
                    let text = |f: &str| e.get(f).and_then(Json::as_str).expect("a string");
                    (text("name").to_string(), text(field).to_string())
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(names("per_layer", "unit"), per_layer);
        let units: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end", "unit"), units);
        let workloads: Vec<String> = names("workloads", "why").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn child_result_lines_round_trip() {
        let result = RunResult {
            correct: true,
            attempted: 9,
            failed: 1,
            metrics: vec![
                Metric {
                    name: "b_first".into(),
                    value: 2.5,
                    unit: "ms",
                    samples: 3,
                },
                Metric {
                    name: "a_second".into(),
                    value: 1e-9,
                    unit: "s",
                    samples: 3,
                },
            ],
            input_digest: 0,
            check_failures: Vec::new(),
            op_failures: Vec::new(),
        };
        let order = vec!["b_first".to_string(), "a_second".to_string()];
        let parsed = parse_result_line(&crate::result_line(&result), &order).expect("parses");
        assert_eq!((parsed.attempted, parsed.failed), (9, 1));
        assert_eq!(
            parsed.metrics,
            vec![
                ("b_first".to_string(), 2.5, "ms".to_string()),
                ("a_second".to_string(), 1e-9, "s".to_string())
            ]
        );
        let incorrect = RunResult {
            correct: false,
            ..result
        };
        assert!(parse_result_line(&crate::result_line(&incorrect), &order).is_err());
    }

    #[test]
    fn aa_holds_pairs_to_their_bounds() {
        let timing = Bound {
            lower_is_better: true,
            bound: 0.10,
        };
        assert!(aa_within("tick_ms_p50", 100.0, 109.0, &timing));
        assert!(aa_within("tick_ms_p50", 109.0, 100.0, &timing));
        assert!(!aa_within("tick_ms_p50", 100.0, 111.0, &timing));
        // Deterministic metrics must match exactly, whatever their bound.
        assert!(aa_within("switch_virtual_s_total", 812.5, 812.5, &timing));
        assert!(!aa_within(
            "switch_virtual_s_total",
            812.5,
            812.500_001,
            &timing
        ));
        // setup_s has a 50 ms floor under its relative bound.
        assert!(aa_within("setup_s", 0.010, 0.040, &timing));
        assert!(!aa_within("setup_s", 1.0, 1.2, &timing));
    }
}
