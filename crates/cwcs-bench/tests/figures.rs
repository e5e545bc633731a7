//! The figure binaries that write no artifact run to completion.
//!
//! `fig01_backfilling` asserts the makespan and utilization order of its
//! random job stream, `fig03_transitions` and `table1_cost_model` print the
//! duration and cost models.  The artifact-writing binaries run in
//! `determinism.rs`, `headline_completion_time` (Figures 11–13) among them,
//! so with this test every figure binary runs under `cargo test`.

use std::process::Command;

#[test]
fn the_figure_binaries_without_an_artifact_exit_cleanly() {
    for binary in [
        env!("CARGO_BIN_EXE_fig01_backfilling"),
        env!("CARGO_BIN_EXE_fig03_transitions"),
        env!("CARGO_BIN_EXE_table1_cost_model"),
    ] {
        let output = Command::new(binary).output().expect("figure binary runs");
        assert!(
            output.status.success(),
            "{binary} failed:\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
