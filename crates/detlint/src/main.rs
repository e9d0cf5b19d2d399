//! The `detlint` binary: lint the workspace (or listed files) and exit
//! nonzero on any finding.
//!
//! ```text
//! cargo run -p detlint -- --workspace          # lint every member crate
//! cargo run -p detlint -- --json --workspace   # machine-readable report
//! cargo run -p detlint -- crates/semvec/src/quant.rs
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO errors. No comment,
//! file or flag excuses a finding.

use detlint::{workspace, FileClass, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut quiet = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {} // the default; kept for explicitness
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--root" => match args.next() {
                Some(r) => root_arg = Some(PathBuf::from(r)),
                None => return usage("--root requires a directory"),
            },
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown flag `{flag}`"));
            }
            path => paths.push(path.to_string()),
        }
    }

    let root = match root_arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace::find_root(&d))
    }) {
        Some(r) => r,
        None => return usage("no workspace root found (run inside the repo or pass --root)"),
    };

    let report = if paths.is_empty() {
        detlint::run_workspace(&root)
    } else {
        let files: Vec<FileClass> = paths
            .iter()
            .map(|p| FileClass::from_path(&p.replace('\\', "/")))
            .collect();
        detlint::lint_files(&root, &files)
    };

    for e in &report.errors {
        eprintln!("detlint: error: {e}");
    }
    if json {
        print!("{}", report.to_json());
    } else if !quiet {
        render_text(&report);
    }
    if !report.errors.is_empty() {
        ExitCode::from(2)
    } else if !report.diagnostics.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn render_text(report: &Report) {
    for d in &report.diagnostics {
        println!("{d}");
    }
    let n = report.diagnostics.len();
    if n == 0 {
        println!("detlint: clean — {} files, 0 findings", report.files);
    } else {
        println!("detlint: {n} finding(s) across {} files", report.files);
        for (code, k) in report.counts() {
            println!("  {code}: {k}");
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}\n\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
detlint — workspace determinism & unsafe-invariant analyzer (DL001-DL006)

USAGE:
    detlint [--workspace] [--json] [--quiet] [--root DIR] [FILES...]

With no FILES, lints every workspace member crate. Every finding fails
the run (exit 1); nothing suppresses one, so fix the code it names.

CODES:
    DL001 hash-order-iteration        DL004 unseeded-randomness
    DL002 unsafe-without-safety       DL005 ungated-target-feature-call
    DL003 wall-clock-read             DL006 parallel-float-accumulation";
