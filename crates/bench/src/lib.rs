//! Experiment harness shared utilities.
//!
//! The `exp` binary regenerates every experiment table (E1–E16; run
//! `exp` with no arguments for the list, or see each module under
//! [`experiments`]); this library provides the plumbing: deterministic
//! seed management, aligned/markdown table rendering, and JSON result
//! records so tables can be diffed across runs. Environment knobs
//! (`RP_QUICK`, `RP_SEED`, `RP_SCALE`, `RP_TRACE`, `RP_ENFORCE_BENCH`)
//! are documented in the top-level README.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod history;

use std::fmt::{self, Write as _};

/// Master seed used by every experiment unless `RP_SEED` overrides it.
pub const DEFAULT_MASTER_SEED: u64 = 0x5EED_C0FF_EE00_2004;

/// Run-wide context handed to each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpContext {
    /// Master seed; per-component streams derive from it.
    pub seed: u64,
    /// Quick mode shrinks sweeps for CI-speed smoke runs.
    pub quick: bool,
    /// Ring size of the `e16-scale` arms; `None` runs the 10⁵ reference.
    pub scale: Option<usize>,
}

/// An environment variable set to a value `exp` cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable, e.g. `RP_SEED`.
    pub var: &'static str,
    /// The value it was set to.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

impl ExpContext {
    /// Context from the environment: `RP_SEED` (a decimal u64),
    /// `RP_QUICK` (`0` or `1`) and `RP_SCALE` (a ring size ≥ 20). An unset
    /// variable takes its default; a set one that does not parse is an
    /// error, never a silent default.
    pub fn from_env() -> Result<ExpContext, EnvError> {
        ExpContext::from_vars(|var| {
            std::env::var_os(var).map(|value| value.to_string_lossy().into_owned())
        })
    }

    /// [`ExpContext::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<ExpContext, EnvError> {
        let invalid = |name: &'static str, value: String, expected: &'static str| EnvError {
            var: name,
            value,
            expected,
        };
        let seed = match var("RP_SEED") {
            None => DEFAULT_MASTER_SEED,
            Some(v) => v
                .parse()
                .map_err(|_| invalid("RP_SEED", v, "a decimal u64"))?,
        };
        let quick = match var("RP_QUICK") {
            None => false,
            Some(v) if v == "0" => false,
            Some(v) if v == "1" => true,
            Some(v) => return Err(invalid("RP_QUICK", v, "0 or 1")),
        };
        let scale = match var("RP_SCALE") {
            None => None,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 20 => Some(n),
                _ => return Err(invalid("RP_SCALE", v, "a ring size >= 20")),
            },
        };
        Ok(ExpContext { seed, quick, scale })
    }

    /// Derives the seed for a named experiment stream.
    pub fn stream(&self, experiment: u64, stream: u64) -> u64 {
        simnet::rng::derive_seed(self.seed ^ experiment.wrapping_mul(0x9E37), stream)
    }
}

impl Default for ExpContext {
    fn default() -> ExpContext {
        ExpContext {
            seed: DEFAULT_MASTER_SEED,
            quick: false,
            scale: None,
        }
    }
}

/// A rendered experiment table: a title, a claim line, column headers and
/// string rows.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Table {
    /// Experiment id and name, e.g. `"E2: minimum arc scaling"`.
    pub title: String,
    /// The paper claim being checked.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// One-line verdict comparing measurement to claim.
    pub verdict: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            verdict: String::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Sets the verdict line.
    pub fn set_verdict(&mut self, verdict: impl Into<String>) {
        self.verdict = verdict.into();
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        if !self.verdict.is_empty() {
            let _ = writeln!(out, "verdict: {}", self.verdict);
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table (`exp --md`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "*Claim:* {}\n", self.claim);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.verdict.is_empty() {
            let _ = writeln!(out, "\n*Verdict:* {}", self.verdict);
        }
        out
    }
}

/// `exp`'s exit code: 2 when an experiment id was unknown, else 1 when
/// any printed table's verdict does not start with `HOLDS` (a `CHECK`,
/// `VIOLATED` or `PARTIAL`), else 0.
pub fn exit_code(unknown_id: bool, tables: &[Table]) -> i32 {
    if unknown_id {
        2
    } else if tables.iter().all(|t| t.verdict.starts_with("HOLDS")) {
        0
    } else {
        1
    }
}

/// Formats a float with a sensible default precision for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_markdown() {
        let mut t = Table::new("E0: demo", "x = y", &["n", "value"]);
        t.push_row(vec!["16".into(), "3.14".into()]);
        t.push_row(vec!["1024".into(), "2.72".into()]);
        t.set_verdict("holds");
        let text = t.render();
        assert!(text.contains("E0: demo"));
        assert!(text.contains("claim: x = y"));
        assert!(text.contains("verdict: holds"));
        let md = t.to_markdown();
        assert!(md.contains("| n | value |"));
        assert!(md.contains("| 1024 | 2.72 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("t", "c", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn context_streams_differ() {
        let ctx = ExpContext::default();
        assert_ne!(ctx.stream(1, 0), ctx.stream(1, 1));
        assert_ne!(ctx.stream(1, 0), ctx.stream(2, 0));
        assert_eq!(ctx.stream(3, 4), ctx.stream(3, 4));
    }

    #[test]
    fn context_parses_set_variables_and_defaults_unset_ones() {
        let unset = ExpContext::from_vars(|_| None).unwrap();
        assert_eq!(unset, ExpContext::default());
        let vars = |var: &str| {
            match var {
                "RP_SEED" => Some("42"),
                "RP_QUICK" => Some("1"),
                "RP_SCALE" => Some("1000000"),
                _ => None,
            }
            .map(String::from)
        };
        let ctx = ExpContext::from_vars(vars).unwrap();
        assert_eq!(
            ctx,
            ExpContext {
                seed: 42,
                quick: true,
                scale: Some(1_000_000),
            }
        );
        let full = ExpContext::from_vars(|var| (var == "RP_QUICK").then(|| "0".to_string()));
        assert!(!full.unwrap().quick);
    }

    #[test]
    fn context_rejects_bad_values_naming_variable_and_value() {
        for (var, value) in [
            ("RP_SEED", "0x2a"),
            ("RP_SEED", "-1"),
            ("RP_SEED", ""),
            ("RP_QUICK", "true"),
            ("RP_QUICK", "2"),
            ("RP_QUICK", ""),
            ("RP_SCALE", "1e6"),
            ("RP_SCALE", "19"),
            ("RP_SCALE", "-5"),
        ] {
            let err = ExpContext::from_vars(|v| (v == var).then(|| value.to_string())).unwrap_err();
            assert_eq!((err.var, err.value.as_str()), (var, value));
            let message = err.to_string();
            assert!(
                message.starts_with(&format!("{var}={value:?} is not ")),
                "{message}"
            );
        }
        // The smallest usable ring size parses.
        let ctx = ExpContext::from_vars(|v| (v == "RP_SCALE").then(|| "20".to_string()));
        assert_eq!(ctx.unwrap().scale, Some(20));
    }

    #[test]
    fn exit_code_fails_on_any_verdict_but_holds() {
        let table = |verdict: &str| {
            let mut t = Table::new("t", "c", &["a"]);
            t.set_verdict(verdict);
            t
        };
        let holds = [table("HOLDS: fine"), table("HOLDS EXACTLY: zero deviation")];
        assert_eq!(exit_code(false, &holds), 0);
        assert_eq!(exit_code(false, &[]), 0);
        for bad in [
            "CHECK: flagged",
            "VIOLATED: bound",
            "PARTIAL: some rings",
            "",
        ] {
            let tables = [table("HOLDS: fine"), table(bad)];
            assert_eq!(exit_code(false, &tables), 1, "{bad:?}");
        }
        // An unknown id is a usage error, whatever the verdicts say.
        assert_eq!(exit_code(true, &holds), 2);
        assert_eq!(exit_code(true, &[table("CHECK: flagged")]), 2);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(3.24159), "3.242");
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(0.000123), "1.230e-4");
    }
}
