//! Diagnostic codes and findings for the determinism analyzer.
//!
//! Mirrors the `cylint` UX (`cypher::diag`): every finding carries a
//! stable machine-readable code (`DL001`–`DL006`), a repo-relative
//! path, and a 1-based `line:col` span. The numeric ids never change
//! meaning; new checks append new codes.

use std::fmt;

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// DL001: iteration over `std::HashMap`/`HashSet` (or the `Fx`
    /// aliases) in non-test code without an order-insensitive sink —
    /// hash iteration order is not a contract.
    HashOrderIteration,
    /// DL002: an `unsafe` block or `unsafe fn` without an adjacent
    /// `// SAFETY:` comment (or `# Safety` doc section for fns).
    UnsafeWithoutContract,
    /// DL003: wall-clock reads (`Instant::now`, `SystemTime::now`)
    /// outside `crates/bench` — time must never influence results.
    WallClock,
    /// DL004: unseeded randomness (`thread_rng`, `from_entropy`,
    /// argless `rng()`) anywhere in the workspace.
    UnseededRandomness,
    /// DL005: a call to a `#[target_feature]` function where some
    /// feature it enables is neither named by an
    /// `is_x86_feature_detected!` check earlier in the caller nor
    /// enabled by the caller's own `#[target_feature]`.
    UngatedTargetFeature,
    /// DL006: `f32`/`f64` `+=` accumulation inside a `thread::scope` /
    /// `spawn` region — float addition is not associative, so the
    /// schedule becomes observable.
    ParallelFloatAccumulation,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 6] = [
        Code::HashOrderIteration,
        Code::UnsafeWithoutContract,
        Code::WallClock,
        Code::UnseededRandomness,
        Code::UngatedTargetFeature,
        Code::ParallelFloatAccumulation,
    ];

    /// The stable `DL00x` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Code::HashOrderIteration => "DL001",
            Code::UnsafeWithoutContract => "DL002",
            Code::WallClock => "DL003",
            Code::UnseededRandomness => "DL004",
            Code::UngatedTargetFeature => "DL005",
            Code::ParallelFloatAccumulation => "DL006",
        }
    }

    /// Kebab-case name for reports.
    pub fn slug(self) -> &'static str {
        match self {
            Code::HashOrderIteration => "hash-order-iteration",
            Code::UnsafeWithoutContract => "unsafe-without-safety-comment",
            Code::WallClock => "wall-clock-read",
            Code::UnseededRandomness => "unseeded-randomness",
            Code::UngatedTargetFeature => "ungated-target-feature-call",
            Code::ParallelFloatAccumulation => "parallel-float-accumulation",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.slug())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}:{}: {}",
            self.code.id(),
            self.path,
            self.line,
            self.col,
            self.message
        )
    }
}

/// Escape a string for inclusion in hand-rendered JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_numbered_in_code_order() {
        let ids: Vec<&str> = Code::ALL.iter().map(|c| c.id()).collect();
        assert_eq!(ids, ["DL001", "DL002", "DL003", "DL004", "DL005", "DL006"]);
    }

    #[test]
    fn display_format_matches_cylint_shape() {
        let d = Diagnostic {
            code: Code::HashOrderIteration,
            path: "crates/x/src/a.rs".into(),
            line: 12,
            col: 9,
            message: "iteration over HashMap `m`".into(),
        };
        assert_eq!(
            d.to_string(),
            "DL001 crates/x/src/a.rs:12:9: iteration over HashMap `m`"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
