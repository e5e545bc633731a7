//! Small reporting helpers shared by the experiment binaries.

use std::fmt::Write as _;
use std::time::Duration;

use cwcs_core::SolverConfig;

/// A flat JSON object builder for benchmark artifacts.
///
/// The container this workspace builds in has no crates.io access, so
/// `serde_json` is unavailable; benchmark binaries only need flat
/// string/number/bool objects, which this covers.  Keys are emitted in
/// insertion order.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field (escaped).
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_owned(), json_escape(value)));
        self
    }

    /// Add a finite float field (non-finite values are emitted as `null`).
    pub fn number(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_owned()
        };
        self.fields.push((key.to_owned(), rendered));
        self
    }

    /// Add an integer field.
    pub fn integer(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Add a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Add a finite float field unless `skip` is set (used to keep
    /// wall-clock fields out of deterministic-mode artifacts).
    pub fn number_unless(self, key: &str, value: f64, skip: bool) -> Self {
        if skip {
            self
        } else {
            self.number(key, value)
        }
    }

    /// Add a boolean field unless `skip` is set (used to keep wall-clock
    /// verdicts out of deterministic-mode artifacts).
    pub fn boolean_unless(self, key: &str, value: bool, skip: bool) -> Self {
        if skip {
            self
        } else {
            self.boolean(key, value)
        }
    }

    /// Render the object as a pretty-printed JSON string.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let comma = if i + 1 < self.fields.len() { "," } else { "" };
            let _ = writeln!(out, "  {}: {value}{comma}", json_escape(key));
        }
        out.push('}');
        out.push('\n');
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// True when the `CWCS_DETERMINISTIC` environment variable asks the bench
/// binaries for byte-identical artifacts: the optimizer runs under a fixed
/// search-node budget instead of a wall-clock timeout, and wall-clock fields
/// are left out of the JSON.
pub fn deterministic_mode() -> bool {
    matches!(
        std::env::var("CWCS_DETERMINISTIC").ok().as_deref(),
        Some("1") | Some("true") | Some("yes")
    )
}

/// The integer value of the environment variable `name`, or `default` when
/// it is unset.  A set value that is not a number exits with status 2.
pub fn env_usize(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref(), default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// `value` of the knob `name`: `default` when unset, an error naming the
/// variable when set but not a number.
fn parse_knob(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    value.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name}={v:?} is not a number"))
    })
}

/// The solve budget of a solver-driven bench binary, as a [`SolverConfig`]
/// to refine (mode, workers, …) and build.  A timed run gets the wall-clock
/// `timeout_ms`.  In [`deterministic_mode`] a budget of `node_limit` search
/// nodes (per worker) replaces the wall clock, under a timeout generous
/// enough never to fire: the outcome no longer depends on machine speed, the
/// portfolio races in its deterministic reduction mode, and the artifact can
/// be gated byte for byte.
pub fn solve_budget(timeout_ms: u64, node_limit: u64) -> SolverConfig {
    if deterministic_mode() {
        SolverConfig::default()
            .with_timeout(Duration::from_secs(3_600))
            .with_node_limit(node_limit)
    } else {
        SolverConfig::default().with_timeout(Duration::from_millis(timeout_ms))
    }
}

/// Print a rendered benchmark artifact and write it to the path named by
/// `path_env` (falling back to `default_path`), printing the destination on
/// success and exiting with status 1 when the write fails — the shared tail
/// of every artifact-producing bench binary, and the only place their
/// artifact's values reach stdout.
pub fn write_artifact(path_env: &str, default_path: &str, json: &str) {
    print!("{json}");
    let path = std::env::var(path_env).unwrap_or_else(|_| default_path.to_owned());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentage reduction from `baseline` to `improved` (positive when
/// `improved` is smaller).
pub fn percent_reduction(baseline: f64, improved: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        100.0 * (baseline - improved) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn reduction_percentage() {
        assert_eq!(percent_reduction(250.0, 150.0), 40.0);
        assert_eq!(percent_reduction(0.0, 10.0), 0.0);
        assert!(percent_reduction(100.0, 120.0) < 0.0);
    }

    #[test]
    fn a_knob_is_its_default_only_when_unset() {
        assert_eq!(parse_knob("CWCS_LS_NODES", None, 500), Ok(500));
        assert_eq!(parse_knob("CWCS_LS_NODES", Some("60"), 500), Ok(60));
        let error = parse_knob("CWCS_LS_NODES", Some("5OO"), 500).unwrap_err();
        assert!(error.contains("CWCS_LS_NODES"), "{error}");
    }

    #[test]
    fn json_objects_render_flat_fields() {
        let json = JsonObject::new()
            .string("name", "headline")
            .number("minutes", 1.5)
            .integer("switches", 3)
            .render();
        assert_eq!(
            json,
            "{\n  \"name\": \"headline\",\n  \"minutes\": 1.5,\n  \"switches\": 3\n}\n"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let json = JsonObject::new().string("k", "a\"b\\c\nd").render();
        assert!(json.contains("\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let json = JsonObject::new().number("nan", f64::NAN).render();
        assert!(json.contains("\"nan\": null"));
    }
}
