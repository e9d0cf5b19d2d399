//! detlint — workspace determinism & unsafe-invariant analyzer.
//!
//! The reproduction's core contract is that every fast path (pruned,
//! quantized, batched, parallel) is *byte-identical* to the naive
//! reference oracle. That contract is enforced dynamically by the
//! property tests and the bench identity gates; detlint enforces its
//! preconditions *statically*, before a nondeterminism hazard ever
//! reaches a bench run. Six checks, `DL001`–`DL006` (see
//! [`diag::Code`]), each reported with a stable code and a
//! `file:line:col` span, mirroring the `cylint` CY-code UX.
//!
//! detlint is deliberately dependency-free (its own minimal Rust
//! lexer instead of `syn`), so the gate builds offline and instantly.
//!
//! There is no way to excuse a finding: every one fails the run, and
//! the only remedy is to fix the code (sort before emitting, collect
//! into a `BTree*`, write the `// SAFETY:` contract, gate the call).

pub mod analyze;
pub mod diag;
pub mod lexer;
pub mod workspace;

pub use analyze::{analyze, analyze_with, hash_field_names, FileClass};
pub use diag::{Code, Diagnostic};

use std::path::Path;

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted by (path, line, col); each fails the run.
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed.
    pub files: usize,
    /// Errors reading files (usage errors, exit 2).
    pub errors: Vec<String>,
}

impl Report {
    /// Per-code `(code, findings)` counts, in code order, omitting
    /// codes with none.
    pub fn counts(&self) -> Vec<(Code, usize)> {
        Code::ALL
            .into_iter()
            .map(|code| {
                let n = self.diagnostics.iter().filter(|d| d.code == code).count();
                (code, n)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Render the report as JSON (hand-rolled; detlint has no deps).
    pub fn to_json(&self) -> String {
        use diag::json_escape as esc;
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"code\": \"{}\", \"slug\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"col\": {}, \"message\": \"{}\"}}{}\n",
                d.code.id(),
                d.code.slug(),
                esc(&d.path),
                d.line,
                d.col,
                esc(&d.message),
                if i + 1 < self.diagnostics.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"files\": {}\n}}\n", self.files));
        out
    }
}

/// Lint every workspace member crate under `root`.
pub fn run_workspace(root: &Path) -> Report {
    match workspace::workspace_files(root) {
        Ok(files) => lint_files(root, &files),
        Err(e) => Report {
            errors: vec![format!(
                "cannot enumerate workspace at {}: {e}",
                root.display()
            )],
            ..Report::default()
        },
    }
}

/// Lint `files` (paths relative to `root`, or absolute), with findings
/// sorted by (path, line, col, code) whatever order the files come in.
pub fn lint_files(root: &Path, files: &[FileClass]) -> Report {
    let mut report = Report::default();
    // Two passes: first collect every identifier declared in any of the
    // files with a hash-ordered type (struct fields cross file
    // boundaries — `source.rs` declares `meta`, `stats.rs` iterates
    // it), then analyze each file with that union as extra context.
    let mut sources: Vec<(&FileClass, String)> = Vec::new();
    let mut field_names = std::collections::BTreeSet::new();
    for class in files {
        let full = root.join(&class.path);
        match std::fs::read_to_string(&full) {
            Ok(src) => {
                field_names.extend(hash_field_names(&src));
                sources.push((class, src));
            }
            Err(e) => report
                .errors
                .push(format!("cannot read {}: {e}", full.display())),
        }
    }
    for (class, src) in &sources {
        report.files += 1;
        report
            .diagnostics
            .extend(analyze_with(class, src, &field_names));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.code).cmp(&(&b.path, b.line, b.col, b.code)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_json() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic {
            code: Code::WallClock,
            path: "a.rs".into(),
            line: 1,
            col: 2,
            message: "m \"quoted\"".into(),
        });
        r.files = 1;
        assert_eq!(r.counts(), vec![(Code::WallClock, 1)]);
        let json = r.to_json();
        assert!(json.contains("\"code\": \"DL003\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"files\": 1"));
    }
}
