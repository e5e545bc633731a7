//! Bench-regression gate: compare the fresh, timed
//! `BENCH_large_scale_switch.json` against its committed baseline in
//! `benchmarks/baselines/`.
//!
//! ```sh
//! bench_check [--baseline-dir benchmarks/baselines] [--fresh-dir .]
//! ```
//!
//! The binary prints a diff table (baseline vs fresh vs tolerance), appends
//! the same table as Markdown to `$GITHUB_STEP_SUMMARY` when that variable
//! is set, and exits non-zero when any gated key is out of tolerance.  The
//! rules are [`cwcs_bench::check::LARGE_SCALE_SWITCH_RULES`]: the scenario
//! shape, the virtual switch durations and the engines' work counters must
//! match exactly, and the wall times have growth ceilings (×1.5 or an
//! absolute floor, whichever is larger).  It is the one artifact the tier-1
//! tests do not byte-compare: the six deterministic ones are held to their
//! baselines byte for byte by `cwcs-bench/tests/determinism.rs`.

use std::fmt::Write as _;
use std::path::Path;

use cwcs_bench::check::{compare, parse_flat_json, CheckRow, Verdict, LARGE_SCALE_SWITCH_RULES};

/// The artifact the gate reads.
const ARTIFACT: &str = "BENCH_large_scale_switch.json";

fn main() {
    let mut baseline_dir = "benchmarks/baselines".to_owned();
    let mut fresh_dir = ".".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline-dir" => baseline_dir = args.next().expect("--baseline-dir takes a path"),
            "--fresh-dir" => fresh_dir = args.next().expect("--fresh-dir takes a path"),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: bench_check [--baseline-dir DIR] [--fresh-dir DIR]");
                std::process::exit(2);
            }
        }
    }

    let baseline = read_artifact(&Path::new(&baseline_dir).join(ARTIFACT));
    let fresh = read_artifact(&Path::new(&fresh_dir).join(ARTIFACT));
    let rows = compare(&baseline, &fresh, LARGE_SCALE_SWITCH_RULES);
    let failures = rows.iter().filter(|r| r.verdict == Verdict::Fail).count();
    print_table(ARTIFACT, &rows);

    let mut summary = String::from("## Bench regression gate\n\n");
    summary.push_str(&markdown_table(ARTIFACT, &rows));
    if failures > 0 {
        let _ = writeln!(
            summary,
            "\n**{failures} gated metric(s) out of tolerance.** Update the \
             baseline in `benchmarks/baselines/` only for intentional changes."
        );
    } else {
        let _ = writeln!(summary, "\nAll gated metrics within tolerance.");
    }
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Err(e) = append_to(&path, &summary) {
            eprintln!("could not write $GITHUB_STEP_SUMMARY: {e}");
        }
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} gated metric(s) regressed");
        std::process::exit(1);
    }
    println!("bench_check: all gated metrics within tolerance");
}

fn read_artifact(path: &Path) -> std::collections::BTreeMap<String, cwcs_bench::check::JsonValue> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    match parse_flat_json(&text) {
        Ok(fields) => fields,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn verdict_label(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Pass => "ok",
        Verdict::Fail => "FAIL",
        Verdict::Info => "info",
    }
}

fn print_table(artifact: &str, rows: &[CheckRow]) {
    println!("\n== {artifact} ==");
    let key_w = rows.iter().map(|r| r.key.len()).max().unwrap_or(3).max(3);
    let base_w = rows
        .iter()
        .map(|r| r.baseline.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let fresh_w = rows.iter().map(|r| r.fresh.len()).max().unwrap_or(5).max(5);
    println!(
        "{:<key_w$}  {:>base_w$}  {:>fresh_w$}  {:<4}  tolerance",
        "key", "baseline", "fresh", ""
    );
    for row in rows {
        println!(
            "{:<key_w$}  {:>base_w$}  {:>fresh_w$}  {:<4}  {}",
            row.key,
            row.baseline,
            row.fresh,
            verdict_label(row.verdict),
            row.detail
        );
    }
}

fn markdown_table(artifact: &str, rows: &[CheckRow]) -> String {
    let mut out = format!("### `{artifact}`\n\n");
    out.push_str("| key | baseline | fresh | verdict | tolerance |\n");
    out.push_str("| --- | ---: | ---: | --- | --- |\n");
    for row in rows {
        let verdict = match row.verdict {
            Verdict::Pass => "✅ ok",
            Verdict::Fail => "❌ fail",
            Verdict::Info => "ℹ️ info",
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            row.key, row.baseline, row.fresh, verdict, row.detail
        );
    }
    out.push('\n');
    out
}

fn append_to(path: &str, content: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(content.as_bytes())
}
