//! Determinism of the benchmark binaries: two runs with the same seed and
//! `CWCS_DETERMINISTIC=1` must produce **byte-identical** JSON artifacts.
//!
//! Deterministic mode swaps the optimizer's wall-clock budget for a fixed
//! search-node budget and keeps wall-clock fields out of the artifacts, so
//! any residual difference would reveal a real nondeterminism bug (unseeded
//! randomness, hash-map iteration order leaking into results, …).
//!
//! The scenarios are downsized through the binaries' environment knobs to
//! keep the suite fast; the binaries themselves are exactly the ones CI
//! ships.
//!
//! Beyond run-to-run identity, the six deterministic artifacts must equal
//! their committed baselines (`benchmarks/baselines/`) byte for byte when
//! produced at their committed shapes.  That test is their only gate:
//! `bench_check` grades only the timed `BENCH_large_scale_switch.json`.

use std::path::PathBuf;
use std::process::Command;

/// Run `binary` once in deterministic mode with exactly `envs` among the
/// `CWCS_*` variables (none is inherited) and return its artifact.
fn run_once(binary: &str, envs: &[(&str, &str)], artifact_env: &str, tag: &str) -> Vec<u8> {
    let artifact: PathBuf = std::env::temp_dir().join(format!("cwcs_{tag}.json"));
    let _ = std::fs::remove_file(&artifact);
    let mut command = Command::new(binary);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("CWCS_") {
            command.env_remove(name);
        }
    }
    let output = command
        .envs(envs.iter().copied())
        .env("CWCS_DETERMINISTIC", "1")
        .env(artifact_env, &artifact)
        .output()
        .expect("bench binary runs");
    assert!(
        output.status.success(),
        "{binary} failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&artifact).expect("artifact written");
    let _ = std::fs::remove_file(&artifact);
    bytes
}

fn assert_deterministic(binary: &str, envs: &[(&str, &str)], artifact_env: &str, tag: &str) {
    let first = run_once(binary, envs, artifact_env, &format!("{tag}_a"));
    let second = run_once(binary, envs, artifact_env, &format!("{tag}_b"));
    assert!(!first.is_empty(), "artifact must not be empty");
    assert_eq!(
        first,
        second,
        "two runs of {binary} diverged:\n--- first ---\n{}\n--- second ---\n{}",
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
}

#[test]
fn headline_artifact_is_byte_identical_across_runs() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_headline_completion_time"),
        &[],
        "CWCS_BENCH_ARTIFACT",
        "headline",
    );
}

#[test]
fn large_scale_switch_artifact_is_byte_identical_across_runs() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_large_scale_switch"),
        &[("CWCS_LS_NODES", "60"), ("CWCS_LS_DRAINED", "12")],
        "CWCS_LS_ARTIFACT",
        "switch",
    );
}

#[test]
fn multi_worker_portfolio_artifact_is_byte_identical_across_runs() {
    // The portfolio's deterministic reduction mode: 4 diversified workers
    // race every solve independently under fixed node budgets and the
    // winner is the (cost, worker id) minimum — thread scheduling must not
    // leak into the artifact.  4 is also `large_scale_loop`'s default, so
    // this is the loop's own determinism test.
    assert_deterministic(
        env!("CARGO_BIN_EXE_large_scale_loop"),
        &[
            ("CWCS_LS_NODES", "60"),
            ("CWCS_LS_DRAINED", "12"),
            ("CWCS_SOLVER_WORKERS", "4"),
        ],
        "CWCS_LS_LOOP_ARTIFACT",
        "loop_portfolio",
    );
}

#[test]
fn netbound_artifact_is_byte_identical_across_runs() {
    // The network-bound loop: NIC-constrained boot placement, reserved
    // packing and the per-dimension solver model must all be deterministic.
    assert_deterministic(
        env!("CARGO_BIN_EXE_large_scale_netbound"),
        &[
            ("CWCS_NB_NODES", "60"),
            ("CWCS_NB_TRANSFER", "8"),
            ("CWCS_SOLVER_WORKERS", "4"),
        ],
        "CWCS_NB_ARTIFACT",
        "netbound",
    );
}

#[test]
fn streaming_artifact_is_byte_identical_across_runs() {
    // The incremental pipeline end-to-end: delta observation, view
    // patching, warm-started portfolio solves and node failures must all
    // reproduce byte for byte.  (Warm starts are fine here — both runs
    // warm-start identically; the lockstep suite is what isolates the
    // observation seam.)
    assert_deterministic(
        env!("CARGO_BIN_EXE_large_scale_streaming"),
        &[
            ("CWCS_STREAM_NODES", "400"),
            ("CWCS_STREAM_TICKS", "5"),
            ("CWCS_STREAM_VJOBS", "80"),
            ("CWCS_STREAM_FAILURES", "3"),
            ("CWCS_STREAM_SETTLE", "3"),
            ("CWCS_SOLVER_WORKERS", "4"),
            ("CWCS_SOLVER_NODE_LIMIT", "500"),
        ],
        "CWCS_STREAMING_ARTIFACT",
        "streaming",
    );
}

#[test]
fn fig10_artifact_is_byte_identical_across_runs() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig10_cost_reduction"),
        &[
            ("CWCS_FIG10_NODES", "40"),
            ("CWCS_FIG10_SAMPLES", "1"),
            ("CWCS_FIG10_MAX_VMS", "108"),
            ("CWCS_SOLVER_WORKERS", "2"),
        ],
        "CWCS_FIG10_ARTIFACT",
        "fig10",
    );
}

#[test]
fn fig11_artifact_is_byte_identical_across_runs() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig11_switch_durations"),
        &[],
        "CWCS_FIG11_ARTIFACT",
        "fig11",
    );
}

/// One of the six deterministic artifacts, at the shape its baseline was
/// committed at.
struct BaselineRun {
    binary: &'static str,
    /// The environment of that shape besides `CWCS_DETERMINISTIC`.
    envs: &'static [(&'static str, &'static str)],
    /// The variable naming the artifact's path.
    artifact_env: &'static str,
    /// The committed baseline in `benchmarks/baselines/` the artifact must
    /// equal.
    baseline: &'static str,
}

const BASELINE_RUNS: [BaselineRun; 6] = [
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_headline_completion_time"),
        envs: &[],
        artifact_env: "CWCS_BENCH_ARTIFACT",
        baseline: "BENCH_headline.json",
    },
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_large_scale_loop"),
        envs: &[("CWCS_SOLVER_WORKERS", "4")],
        artifact_env: "CWCS_LS_LOOP_ARTIFACT",
        baseline: "BENCH_large_scale.json",
    },
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_fig10_cost_reduction"),
        envs: &[
            ("CWCS_FIG10_NODES", "60"),
            ("CWCS_FIG10_SAMPLES", "2"),
            ("CWCS_FIG10_MAX_VMS", "216"),
            ("CWCS_SOLVER_WORKERS", "2"),
        ],
        artifact_env: "CWCS_FIG10_ARTIFACT",
        baseline: "BENCH_fig10.json",
    },
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_fig11_switch_durations"),
        envs: &[],
        artifact_env: "CWCS_FIG11_ARTIFACT",
        baseline: "BENCH_fig11.json",
    },
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_large_scale_netbound"),
        envs: &[("CWCS_SOLVER_WORKERS", "4")],
        artifact_env: "CWCS_NB_ARTIFACT",
        baseline: "BENCH_netbound.json",
    },
    BaselineRun {
        binary: env!("CARGO_BIN_EXE_large_scale_streaming"),
        envs: &[
            ("CWCS_STREAM_NODES", "2000"),
            ("CWCS_STREAM_TICKS", "8"),
            ("CWCS_STREAM_VJOBS", "400"),
            ("CWCS_STREAM_FAILURES", "4"),
            ("CWCS_STREAM_SETTLE", "4"),
            ("CWCS_SOLVER_WORKERS", "4"),
            ("CWCS_SOLVER_NODE_LIMIT", "500"),
        ],
        artifact_env: "CWCS_STREAMING_ARTIFACT",
        baseline: "BENCH_streaming.json",
    },
];

#[test]
fn deterministic_artifacts_equal_their_committed_baselines() {
    let baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/baselines");
    let mut differing = Vec::new();
    for BaselineRun {
        binary,
        envs,
        artifact_env,
        baseline,
    } in BASELINE_RUNS
    {
        let artifact = run_once(binary, envs, artifact_env, &format!("baseline_{baseline}"));
        let expected = std::fs::read(baselines.join(baseline)).expect("baseline is committed");
        if artifact != expected {
            let at = std::iter::zip(&artifact, &expected)
                .position(|(a, b)| a != b)
                .unwrap_or(artifact.len().min(expected.len()));
            eprintln!(
                "{baseline} differs from its baseline at byte {at}; this build writes:\n{}",
                String::from_utf8_lossy(&artifact)
            );
            differing.push(baseline);
        }
    }
    assert!(
        differing.is_empty(),
        "artifacts differ from benchmarks/baselines/: {differing:?}"
    );
}
