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

use std::path::PathBuf;
use std::process::Command;

fn run_once(binary: &str, envs: &[(&str, &str)], artifact_env: &str, tag: &str) -> Vec<u8> {
    let artifact: PathBuf = std::env::temp_dir().join(format!("cwcs_{tag}.json"));
    let _ = std::fs::remove_file(&artifact);
    let output = Command::new(binary)
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
fn large_scale_loop_artifact_is_byte_identical_across_runs() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_large_scale_loop"),
        &[("CWCS_LS_NODES", "60"), ("CWCS_LS_DRAINED", "12")],
        "CWCS_LS_LOOP_ARTIFACT",
        "loop",
    );
}

#[test]
fn multi_worker_portfolio_artifact_is_byte_identical_across_runs() {
    // The portfolio's deterministic reduction mode: 4 diversified workers
    // race every solve independently under fixed node budgets and the
    // winner is the (cost, worker id) minimum — thread scheduling must not
    // leak into the artifact.
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
