//! `cwcs-perf` — the repo benchmark (see `perf/README.md`).
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload once and prints, as the last line of standard output, one JSON
//!   object `{correct, attempted, failed, metrics}` — the end-to-end metrics
//!   with `--trace 0`, the per-layer metrics with `--trace 1`;
//! * without `--workload` it runs a *set*: every workload (or `--only` one),
//!   three untraced runs and one traced run each, every run its own process,
//!   and prints the medians.  `--aa` runs two sets and holds their
//!   difference to the bounds of `BENCHMARK.json`; `--spread <n>` runs `n`
//!   seeds and prints each metric's interquartile spread.

mod adapter;
mod json;
mod run;
mod set;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::json::{number, quote};
use crate::run::{RunArgs, RunResult};
use crate::workloads::WORKLOADS;

const USAGE: &str =
    "usage: cwcs-perf [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>]
                 [--only <workload>] [--aa] [--no-trace] [--spread <n>]
                 [--out <dir>]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub only: Option<String>,
    pub aa: bool,
    pub no_trace: bool,
    pub spread: Option<usize>,
    pub out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        only: None,
        aa: false,
        no_trace: false,
        spread: None,
        out_dir: PathBuf::from("perf/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--only" => cli.only = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--spread" => {
                let runs: usize = value("a run count")?
                    .parse()
                    .map_err(|_| "--spread needs a whole number".to_string())?;
                if !(2..=100).contains(&runs) {
                    return Err("--spread must be within 2..=100".into());
                }
                cli.spread = Some(runs);
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--aa" => cli.aa = true,
            "--no-trace" => cli.no_trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in cli.workload.iter().chain(&cli.only) {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; the workloads are {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The result line of the benchmark contract.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn single_run(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(set::DEFAULT_RUN_SECONDS),
        trace: cli.trace,
        out_dir: cli.out_dir.clone(),
    };
    // A run is bounded by its episodes, and an episode by the program under
    // test: `Planner::plan` is known not to return on some over-committed
    // clusters (see `paper_batch`).  The watchdog turns such a hang into a
    // prompt non-zero exit with no result line.  It is detached on purpose:
    // it ends with the process.
    let limit = Duration::from_secs_f64(args.seconds * 3.0 + 45.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("cwcs-perf: the run did not finish within {limit:?}; giving up");
        std::process::exit(3);
    });
    let result = run::run(&args);
    println!(
        "{workload}  seed {} (inputs {:016x})  {} s  {}  ({} solver workers, {} cores)",
        args.seed,
        result.input_digest,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        adapter::SOLVER_WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in &result.metrics {
        println!(
            "  {:<42} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for line in &result.op_failures {
        println!("  FAILED OPERATION: {line}");
    }
    for line in &result.check_failures {
        println!("  FAILED CHECK: {line}");
    }
    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => single_run(&cli, workload),
        None => set::run_sets(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::run::Metric;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "node_failures",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("node_failures"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(12.0), true));
        assert!(parse_cli(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&strings(&["--trace", "2"])).is_err());
        assert!(parse_cli(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&strings(&["--seed"])).is_err());
        assert!(parse_cli(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn the_result_line_is_the_contract_object() {
        let result = RunResult {
            correct: true,
            attempted: 30,
            failed: 0,
            metrics: vec![Metric {
                name: "tick_ms_p50".into(),
                value: 123.456_789_012_345,
                unit: "ms",
                samples: 30,
            }],
            input_digest: 0,
            check_failures: Vec::new(),
            op_failures: Vec::new(),
        };
        let line = result_line(&result);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("the result line is JSON");
        let Json::Object(keys) = &parsed else {
            panic!("an object");
        };
        let names: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(names, ["attempted", "correct", "failed", "metrics"]);
        let tick = parsed
            .get("metrics")
            .and_then(|m| m.get("tick_ms_p50"))
            .expect("metric");
        assert_eq!(
            tick.get("value").and_then(Json::as_f64),
            Some(123.456_789_012_345)
        );
        assert_eq!(tick.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
