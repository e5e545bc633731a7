//! Bench-regression gating: compare a freshly produced `BENCH_*.json`
//! artifact against its committed baseline with per-key tolerance rules.
//!
//! The container this workspace builds in has no crates.io access, so the
//! artifacts are flat JSON objects written by [`crate::JsonObject`] and read
//! back by the equally flat [`parse_flat_json`] parser below.  The
//! `bench_check` binary drives [`compare`] over the one artifact the tier-1
//! tests do not byte-compare with its baseline, the timed
//! `BENCH_large_scale_switch.json`, under [`LARGE_SCALE_SWITCH_RULES`], and
//! fails the job when a gated key regresses:
//!
//! * **exact matches** — scenario shape (node/VM counts), deterministic
//!   simulation outputs (virtual switch durations) and the engines' work
//!   counters must not drift at all;
//! * **growth ceilings** — e.g. `planning_ms` may not grow more than 50%
//!   (with an absolute floor so machine noise on tiny values cannot flake
//!   the job).
//!
//! The five deterministic artifacts need no tolerance: the `determinism`
//! test suite holds them byte-identical to their baselines.

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
    /// Growth ceiling for "bigger is worse" metrics, typically timings:
    /// `fresh <= max(baseline * ratio, baseline + floor)`.  The absolute
    /// floor keeps machine noise on tiny baselines from flaking the gate.
    MaxGrowth {
        /// Allowed multiplicative growth.
        ratio: f64,
        /// Allowed absolute growth, whichever is larger.
        floor: f64,
    },
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

/// The gating rules of `BENCH_large_scale_switch.json`.
pub static LARGE_SCALE_SWITCH_RULES: &[KeyRule] = &[
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
                verdict: Verdict::Fail,
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
    fn the_switch_rules_hold_its_work_counters_exactly() {
        for key in ["event_vm_touches", "barrier_vm_touches", "event_events"] {
            let rule = LARGE_SCALE_SWITCH_RULES.iter().find(|r| r.key == key);
            assert_eq!(rule.map(|r| r.rule), Some(Rule::Exact), "{key}");
        }
    }
}
