//! Bench-regression gating: compare freshly produced `BENCH_*.json`
//! artifacts against committed baselines with per-key tolerance rules.
//!
//! The container this workspace builds in has no crates.io access, so the
//! artifacts are flat JSON objects written by [`crate::JsonObject`] and read
//! back by the equally flat [`parse_flat_json`] parser below.  The
//! `bench_check` binary drives [`compare`] over the three artifacts the CI
//! pipeline produces and fails the job when any gated metric regresses:
//!
//! * **quality floors** — e.g. the headline `completion_reduction_percent`
//!   may not drop more than 1 point below the committed baseline;
//! * **growth ceilings** — e.g. `planning_ms` may not grow more than 50%
//!   (with an absolute floor so machine noise on tiny values cannot flake
//!   the job);
//! * **exact matches** — scenario shape (node/VM counts) and deterministic
//!   simulation outputs (virtual switch durations) must not drift at all.

use std::collections::BTreeMap;
use std::fmt;

/// A value of a flat benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    String(String),
    /// Any JSON number.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null` (non-finite numbers are emitted as null).
    Null,
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::String(s) => write!(f, "{s}"),
            JsonValue::Number(n) => write!(f, "{n}"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Null => write!(f, "null"),
        }
    }
}

/// Parse a flat JSON object (`{"key": value, ...}` with string / number /
/// bool / null values — exactly what [`crate::JsonObject`] renders).
pub fn parse_flat_json(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut fields = BTreeMap::new();
    let mut chars = text.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key or '}}', found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = parse_value(&mut chars)?;
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('}') => {}
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after the object".into());
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad unicode escape \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or("invalid unicode scalar")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn parse_value(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<JsonValue, String> {
    match chars.peek() {
        Some('"') => Ok(JsonValue::String(parse_string(chars)?)),
        Some('t') | Some('f') | Some('n') => {
            let mut word = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                word.push(chars.next().unwrap());
            }
            match word.as_str() {
                "true" => Ok(JsonValue::Bool(true)),
                "false" => Ok(JsonValue::Bool(false)),
                "null" => Ok(JsonValue::Null),
                other => Err(format!("unexpected literal {other:?}")),
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let mut number = String::new();
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
            {
                number.push(chars.next().unwrap());
            }
            number
                .parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("bad number {number:?}"))
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

/// Tolerance rule of one gated key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Fresh must equal the baseline (numbers within 1e-9).
    Exact,
    /// Quality floor: `fresh >= baseline - drop`.
    MinAbsoluteDrop(f64),
    /// Growth ceiling for "bigger is worse" metrics, typically timings:
    /// `fresh <= max(baseline * ratio, baseline + floor)`.  The absolute
    /// floor keeps machine noise on tiny baselines from flaking the gate.
    MaxGrowth {
        /// Allowed multiplicative growth.
        ratio: f64,
        /// Allowed absolute growth, whichever is larger.
        floor: f64,
    },
    /// Reported in the table but never fails the gate.
    Info,
}

/// The rule applied to one artifact key.
#[derive(Debug, Clone, Copy)]
pub struct KeyRule {
    /// Artifact key.
    pub key: &'static str,
    /// Tolerance.
    pub rule: Rule,
}

const fn exact(key: &'static str) -> KeyRule {
    KeyRule {
        key,
        rule: Rule::Exact,
    }
}

const fn growth(key: &'static str, ratio: f64, floor: f64) -> KeyRule {
    KeyRule {
        key,
        rule: Rule::MaxGrowth { ratio, floor },
    }
}

const fn info(key: &'static str) -> KeyRule {
    KeyRule {
        key,
        rule: Rule::Info,
    }
}

static HEADLINE_RULES: &[KeyRule] = &[
    exact("nodes"),
    exact("vjobs"),
    exact("vms"),
    exact("optimizer_timeout_ms"),
    exact("fcfs_completion_min"),
    KeyRule {
        key: "completion_reduction_percent",
        rule: Rule::MinAbsoluteDrop(1.0),
    },
    growth("entropy_completion_min", 1.05, 1.0),
    growth("mean_switch_duration_secs", 1.25, 5.0),
    info("context_switches"),
    info("local_resumes"),
    info("total_resumes"),
];

static LARGE_SCALE_LOOP_RULES: &[KeyRule] = &[
    exact("optimizer_mode"),
    exact("nodes"),
    exact("vms"),
    exact("vjobs"),
    exact("solver_timeout_ms"),
    exact("solver_workers"),
    exact("boot_subproblem_vms"),
    exact("boot_pinned_vms"),
    exact("boot_plan_actions"),
    exact("boot_solve_proven"),
    // Shape of the partitioned race.
    exact("portfolio_partition_workers"),
    // The headline anytime-gap gate: the plan cost the race settles on per
    // switch may never grow past the committed baseline (ratio 1.0, floor
    // 0).  switch1 is the costed rebalance; the others pin the zero-cost
    // switches at zero.
    growth("switch0_plan_cost", 1.0, 0.0),
    growth("switch1_plan_cost", 1.0, 0.0),
    growth("switch2_plan_cost", 1.0, 0.0),
    growth("switch3_plan_cost", 1.0, 0.0),
    // Per-switch solver wall time (timed runs only — the deterministic
    // artifact omits these, and `compare` skips keys absent on both
    // sides): a regression past 1.5× the baseline fails the gate.
    growth("switch0_solve_ms", 1.5, 1_000.0),
    growth("switch1_solve_ms", 1.5, 1_000.0),
    growth("switch2_solve_ms", 1.5, 1_000.0),
    growth("switch3_solve_ms", 1.5, 1_000.0),
    // Proof status per switch is a quality claim: a solve the baseline
    // proved optimal may not silently become anytime-only.
    exact("switch0_solve_proven"),
    exact("switch1_solve_proven"),
    exact("switch2_solve_proven"),
    exact("switch3_solve_proven"),
    // Node spend per switch: deterministic budgets make these stable; a
    // >25% growth means a budget or partition regression.
    growth("switch0_solve_nodes", 1.25, 1_000.0),
    growth("switch1_solve_nodes", 1.25, 1_000.0),
    growth("switch2_solve_nodes", 1.25, 1_000.0),
    growth("switch3_solve_nodes", 1.25, 1_000.0),
    growth("completion_time_secs", 1.15, 60.0),
    growth("plan_actions_total", 1.25, 100.0),
    growth("boot_switch_secs", 1.25, 5.0),
    growth("boot_solve_ms", 1.5, 250.0),
    growth("max_solve_ms", 1.5, 1_000.0),
    growth("solver_wall_ms_total", 1.5, 2_000.0),
    growth("loop_wall_ms", 1.5, 4_000.0),
    info("boot_candidate_nodes"),
    info("iterations"),
    info("context_switches"),
];

static NETBOUND_RULES: &[KeyRule] = &[
    exact("optimizer_mode"),
    exact("nodes"),
    exact("vms"),
    exact("vjobs"),
    exact("transfer_vjobs"),
    exact("nic_mbps_per_node"),
    exact("solver_timeout_ms"),
    exact("solver_workers"),
    exact("boot_subproblem_vms"),
    exact("boot_pinned_vms"),
    exact("boot_plan_actions"),
    exact("boot_solve_proven"),
    // The FFD baseline is deterministic (no solver involved): its cost must
    // not drift at all.
    exact("ffd_boot_cost"),
    // The headline quality of the scenario: the repair pipeline's plan-cost
    // reduction over FFD on the network-scarce boot may not drop more than
    // 2 points below the committed baseline.
    KeyRule {
        key: "net_cost_reduction_percent",
        rule: Rule::MinAbsoluteDrop(2.0),
    },
    growth("entropy_boot_cost", 1.1, 1_000.0),
    growth("completion_time_secs", 1.15, 60.0),
    growth("plan_actions_total", 1.25, 100.0),
    growth("max_solve_ms", 1.5, 1_000.0),
    growth("loop_wall_ms", 1.5, 4_000.0),
    info("boot_candidate_nodes"),
    info("iterations"),
    info("context_switches"),
    info("peak_net_percent"),
];

static FIG10_RULES: &[KeyRule] = &[
    exact("nodes"),
    exact("samples"),
    exact("optimizer_timeout_ms"),
    exact("solver_workers"),
    exact("sweep_points"),
    // The headline quality of the sweep: the average FFD→Entropy cost
    // reduction may not drop more than 2 points below the baseline (the
    // per-point reductions are reported but ungated — individual generated
    // instances are noisier than the average).
    KeyRule {
        key: "avg_reduction_percent",
        rule: Rule::MinAbsoluteDrop(2.0),
    },
];

static FIG11_RULES: &[KeyRule] = &[
    exact("nodes"),
    exact("vjobs"),
    exact("vms"),
    exact("optimizer_timeout_ms"),
    exact("solver_workers"),
    growth("completion_time_secs", 1.1, 120.0),
    growth("mean_switch_duration_secs", 1.25, 10.0),
    info("context_switches"),
    info("local_resumes"),
    info("total_resumes"),
];

static LARGE_SCALE_SWITCH_RULES: &[KeyRule] = &[
    exact("nodes"),
    exact("vms"),
    exact("plan_actions"),
    exact("event_max_concurrency"),
    exact("barrier_switch_secs"),
    exact("event_switch_secs"),
    // The execute layer's work counters: what the engines did, not how fast.
    // A change that makes a switch cheaper must keep them; one that changes
    // how much work a switch is must say so with a new baseline.
    exact("event_vm_touches"),
    exact("barrier_vm_touches"),
    exact("event_events"),
    growth("planning_ms", 1.5, 100.0),
    growth("barrier_wall_ms", 2.0, 50.0),
    // Guards the event engine's O(changes) event processing (lazy per-VM
    // progress, incremental decelerations): its wall time regressing back
    // toward events × cluster work fails CI.
    growth("event_wall_ms", 1.5, 75.0),
];

static STREAMING_RULES: &[KeyRule] = &[
    // Shape of the streaming scenario: any drift here means the benchmark
    // is no longer measuring the committed configuration.
    exact("optimizer_mode"),
    exact("warm_start"),
    exact("nodes"),
    exact("initial_vms"),
    exact("total_vms"),
    exact("ticks"),
    exact("vjobs_per_tick"),
    exact("failed_nodes"),
    exact("solver_workers"),
    exact("iterations"),
    // The incremental-observation contract, byte-stable in deterministic
    // mode: the delta volumes and the repair sub-problem size are decided
    // by the snapshot diff and the halo reduction, not by machine speed.
    exact("delta_vms_total"),
    exact("delta_nodes_total"),
    exact("repair_movable_max"),
    // Decisions: the deterministic node budget pins the search, so the
    // switch count is exact; plan size and completions get headroom for
    // legitimate tie-break-level drift.
    exact("context_switches"),
    growth("plan_actions_total", 1.25, 100.0),
    info("completed_vjobs"),
    // Timed runs only (`compare` skips keys absent on both sides): the
    // sub-second decide ceiling, also asserted in-binary by the benchmark.
    exact("decides_under_1s"),
    growth("max_decide_ms", 1.5, 200.0),
    growth("mean_decide_ms", 1.5, 150.0),
    growth("loop_wall_ms", 1.5, 4_000.0),
];

/// The gating rules of one benchmark artifact, selected by its `benchmark`
/// field.
pub fn artifact_rules(benchmark: &str) -> &'static [KeyRule] {
    match benchmark {
        "headline_completion_time" => HEADLINE_RULES,
        "large_scale_loop" => LARGE_SCALE_LOOP_RULES,
        "large_scale_netbound" => NETBOUND_RULES,
        "large_scale_switch" => LARGE_SCALE_SWITCH_RULES,
        "large_scale_streaming" => STREAMING_RULES,
        "fig10_cost_reduction" => FIG10_RULES,
        "fig11_switch_durations" => FIG11_RULES,
        _ => &[],
    }
}

/// Verdict of one compared key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Pass,
    /// Out of tolerance: the gate fails.
    Fail,
    /// Informational only.
    Info,
}

/// One row of the diff table.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Artifact key.
    pub key: String,
    /// Baseline value (`-` when absent).
    pub baseline: String,
    /// Fresh value (`-` when absent).
    pub fresh: String,
    /// Pass / fail / info.
    pub verdict: Verdict,
    /// Human-readable tolerance description.
    pub detail: String,
}

/// Compare a fresh artifact against its baseline under `rules`.  Keys
/// without a rule are reported as [`Verdict::Info`]; a gated key missing
/// from the fresh artifact fails.
pub fn compare(
    baseline: &BTreeMap<String, JsonValue>,
    fresh: &BTreeMap<String, JsonValue>,
    rules: &[KeyRule],
) -> Vec<CheckRow> {
    let mut rows = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for KeyRule { key, rule } in rules {
        seen.push(key);
        let base = baseline.get(*key);
        let new = fresh.get(*key);
        let row = match (base, new) {
            (None, None) => continue,
            (Some(b), None) => CheckRow {
                key: (*key).into(),
                baseline: b.to_string(),
                fresh: "-".into(),
                verdict: if *rule == Rule::Info {
                    Verdict::Info
                } else {
                    Verdict::Fail
                },
                detail: "missing from the fresh artifact".into(),
            },
            (None, Some(n)) => CheckRow {
                key: (*key).into(),
                baseline: "-".into(),
                fresh: n.to_string(),
                verdict: Verdict::Info,
                detail: "new key (not in the baseline)".into(),
            },
            (Some(b), Some(n)) => check_rule(key, *rule, b, n),
        };
        rows.push(row);
    }
    // Ungated keys: report so the diff table is complete.
    for (key, n) in fresh {
        if !seen.contains(&key.as_str()) {
            rows.push(CheckRow {
                key: key.clone(),
                baseline: baseline
                    .get(key)
                    .map(|b| b.to_string())
                    .unwrap_or("-".into()),
                fresh: n.to_string(),
                verdict: Verdict::Info,
                detail: "ungated".into(),
            });
        }
    }
    rows
}

fn check_rule(key: &str, rule: Rule, baseline: &JsonValue, fresh: &JsonValue) -> CheckRow {
    let row = |verdict, detail: String| CheckRow {
        key: key.into(),
        baseline: baseline.to_string(),
        fresh: fresh.to_string(),
        verdict,
        detail,
    };
    match rule {
        Rule::Info => row(Verdict::Info, "informational".into()),
        Rule::Exact => {
            let equal = match (baseline, fresh) {
                (JsonValue::Number(b), JsonValue::Number(f)) => (b - f).abs() <= 1e-9,
                (b, f) => b == f,
            };
            if equal {
                row(Verdict::Pass, "exact match".into())
            } else {
                row(Verdict::Fail, "must match the baseline exactly".into())
            }
        }
        Rule::MinAbsoluteDrop(drop) => match (baseline, fresh) {
            (JsonValue::Number(b), JsonValue::Number(f)) => {
                let limit = b - drop;
                if *f >= limit {
                    row(Verdict::Pass, format!("≥ {limit:.3} required"))
                } else {
                    row(
                        Verdict::Fail,
                        format!("dropped below {limit:.3} (baseline − {drop})"),
                    )
                }
            }
            _ => row(Verdict::Fail, "both values must be numbers".into()),
        },
        Rule::MaxGrowth { ratio, floor } => match (baseline, fresh) {
            (JsonValue::Number(b), JsonValue::Number(f)) => {
                let limit = (b * ratio).max(b + floor);
                if *f <= limit {
                    row(Verdict::Pass, format!("≤ {limit:.3} allowed"))
                } else {
                    row(
                        Verdict::Fail,
                        format!("grew past {limit:.3} (×{ratio} or +{floor})"),
                    )
                }
            }
            _ => row(Verdict::Fail, "both values must be numbers".into()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, JsonValue)]) -> BTreeMap<String, JsonValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn parses_the_json_object_output() {
        let text = crate::JsonObject::new()
            .string("benchmark", "headline_completion_time")
            .number("reduction", 22.5)
            .integer("nodes", 11)
            .boolean("proven", true)
            .number("nan", f64::NAN)
            .render();
        let parsed = parse_flat_json(&text).unwrap();
        assert_eq!(
            parsed["benchmark"],
            JsonValue::String("headline_completion_time".into())
        );
        assert_eq!(parsed["reduction"], JsonValue::Number(22.5));
        assert_eq!(parsed["nodes"], JsonValue::Number(11.0));
        assert_eq!(parsed["proven"], JsonValue::Bool(true));
        assert_eq!(parsed["nan"], JsonValue::Null);
    }

    #[test]
    fn parses_escapes_and_rejects_garbage() {
        let parsed = parse_flat_json("{\"a\\n\": \"x\\\"y\"}").unwrap();
        assert_eq!(parsed["a\n"], JsonValue::String("x\"y".into()));
        assert!(parse_flat_json("{").is_err());
        assert!(parse_flat_json("{\"a\": [1]}").is_err());
        assert!(parse_flat_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn exact_rule_gates_drift() {
        let rules = [exact("nodes")];
        let ok = compare(
            &obj(&[("nodes", JsonValue::Number(11.0))]),
            &obj(&[("nodes", JsonValue::Number(11.0))]),
            &rules,
        );
        assert_eq!(ok[0].verdict, Verdict::Pass);
        let bad = compare(
            &obj(&[("nodes", JsonValue::Number(11.0))]),
            &obj(&[("nodes", JsonValue::Number(12.0))]),
            &rules,
        );
        assert_eq!(bad[0].verdict, Verdict::Fail);
    }

    #[test]
    fn quality_floor_allows_one_point() {
        let rules = [KeyRule {
            key: "completion_reduction_percent",
            rule: Rule::MinAbsoluteDrop(1.0),
        }];
        let base = obj(&[("completion_reduction_percent", JsonValue::Number(22.7))]);
        let small_drop = obj(&[("completion_reduction_percent", JsonValue::Number(21.8))]);
        assert_eq!(
            compare(&base, &small_drop, &rules)[0].verdict,
            Verdict::Pass
        );
        let big_drop = obj(&[("completion_reduction_percent", JsonValue::Number(21.5))]);
        assert_eq!(compare(&base, &big_drop, &rules)[0].verdict, Verdict::Fail);
        let improvement = obj(&[("completion_reduction_percent", JsonValue::Number(30.0))]);
        assert_eq!(
            compare(&base, &improvement, &rules)[0].verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn growth_ceiling_uses_ratio_or_floor() {
        let rules = [growth("planning_ms", 1.5, 100.0)];
        let base = obj(&[("planning_ms", JsonValue::Number(20.0))]);
        // 20 → 110 is > 1.5× but within the +100 absolute floor.
        let noisy = obj(&[("planning_ms", JsonValue::Number(110.0))]);
        assert_eq!(compare(&base, &noisy, &rules)[0].verdict, Verdict::Pass);
        let slow = obj(&[("planning_ms", JsonValue::Number(121.0))]);
        assert_eq!(compare(&base, &slow, &rules)[0].verdict, Verdict::Fail);

        let big_base = obj(&[("planning_ms", JsonValue::Number(1_000.0))]);
        let regressed = obj(&[("planning_ms", JsonValue::Number(1_600.0))]);
        assert_eq!(
            compare(&big_base, &regressed, &rules)[0].verdict,
            Verdict::Fail
        );
    }

    #[test]
    fn gated_keys_missing_from_fresh_fail() {
        let rules = [exact("vms")];
        let rows = compare(
            &obj(&[("vms", JsonValue::Number(4460.0))]),
            &obj(&[]),
            &rules,
        );
        assert_eq!(rows[0].verdict, Verdict::Fail);
        // The other direction is informational (a new key appears).
        let rows = compare(
            &obj(&[]),
            &obj(&[("vms", JsonValue::Number(4460.0))]),
            &rules,
        );
        assert_eq!(rows[0].verdict, Verdict::Info);
    }

    #[test]
    fn every_artifact_has_rules() {
        for name in [
            "headline_completion_time",
            "large_scale_loop",
            "large_scale_netbound",
            "large_scale_switch",
            "large_scale_streaming",
            "fig10_cost_reduction",
            "fig11_switch_durations",
        ] {
            assert!(!artifact_rules(name).is_empty(), "{name} must be gated");
        }
        assert!(artifact_rules("unknown").is_empty());
    }
}
