//! Fixture tests: each DL code demonstrated by a positive snippet (the
//! finding fires, with a real span) and refuted by a negative one.
//!
//! The snippets live under `tests/fixtures/` — a directory the
//! workspace walker deliberately skips, so the deliberate violations
//! never fail the repo's own gate.

use detlint::{analyze, Code, Diagnostic, FileClass};

/// Lint a fixture as if it were ordinary (non-test) crate code.
fn lint(src: &str) -> Vec<Diagnostic> {
    let class = FileClass::from_path("crates/fixture/src/lib.rs");
    analyze(&class, src)
}

fn active(src: &str, code: Code) -> Vec<Diagnostic> {
    lint(src).into_iter().filter(|d| d.code == code).collect()
}

fn assert_spanned(d: &Diagnostic, src: &str) {
    let lines = src.lines().count() as u32;
    assert!(d.line >= 1 && d.line <= lines, "line {} of {lines}", d.line);
    assert!(d.col >= 1, "column must be 1-based");
    assert!(!d.message.is_empty());
}

#[test]
fn dl001_fires_on_unsunk_hash_iteration() {
    let src = include_str!("fixtures/dl001_pos.rs");
    let hits = active(src, Code::HashOrderIteration);
    assert_eq!(hits.len(), 1, "exactly the report loop: {hits:?}");
    assert_spanned(&hits[0], src);
    assert!(hits[0].message.contains("counts"), "{}", hits[0].message);
}

#[test]
fn dl001_quiet_on_order_insensitive_sinks() {
    let src = include_str!("fixtures/dl001_neg.rs");
    assert_eq!(active(src, Code::HashOrderIteration), vec![]);
}

#[test]
fn dl001_allow_comment_excuses_nothing() {
    // `// detlint: allow(DL001) <reason>` is an ordinary comment: the
    // finding under it stays and fails the run.
    let src = include_str!("fixtures/dl001_allow.rs");
    let hits = active(src, Code::HashOrderIteration);
    assert_eq!(hits.len(), 1, "the for-loop under the comment: {hits:?}");
    assert_spanned(&hits[0], src);
    assert!(hits[0].message.contains("counts"), "{}", hits[0].message);
    assert_eq!(lint(src).len(), 1, "the comment itself is no finding");
}

#[test]
fn dl002_fires_on_uncontracted_unsafe() {
    let src = include_str!("fixtures/dl002_pos.rs");
    let hits = active(src, Code::UnsafeWithoutContract);
    assert_eq!(hits.len(), 2, "one block, one fn: {hits:?}");
    for d in &hits {
        assert_spanned(d, src);
    }
}

#[test]
fn dl002_quiet_on_safety_comments_and_doc_sections() {
    let src = include_str!("fixtures/dl002_neg.rs");
    assert_eq!(active(src, Code::UnsafeWithoutContract), vec![]);
}

#[test]
fn dl003_fires_on_wall_clock_reads() {
    let src = include_str!("fixtures/dl003_pos.rs");
    let hits = active(src, Code::WallClock);
    assert_eq!(hits.len(), 2, "Instant and SystemTime: {hits:?}");
    for d in &hits {
        assert_spanned(d, src);
    }
}

#[test]
fn dl003_quiet_inside_cfg_test_items() {
    let src = include_str!("fixtures/dl003_neg.rs");
    assert_eq!(active(src, Code::WallClock), vec![]);
}

#[test]
fn dl004_fires_on_unseeded_generators() {
    let src = include_str!("fixtures/dl004_pos.rs");
    let hits = active(src, Code::UnseededRandomness);
    assert_eq!(hits.len(), 2, "thread_rng and from_entropy: {hits:?}");
    for d in &hits {
        assert_spanned(d, src);
    }
}

#[test]
fn dl004_quiet_on_seeded_and_user_defined_rng() {
    let src = include_str!("fixtures/dl004_neg.rs");
    assert_eq!(active(src, Code::UnseededRandomness), vec![]);
}

#[test]
fn dl005_fires_on_ungated_target_feature_call() {
    let src = include_str!("fixtures/dl005_pos.rs");
    let hits = active(src, Code::UngatedTargetFeature);
    // One plain call, one turbofish call (`tile_avx2::<3>(…)`), and a
    // call behind checks that name avx2 and avx512bw but not avx512vnni.
    assert_eq!(hits.len(), 3, "{hits:?}");
    for (hit, name) in hits.iter().zip(["kernel_avx2", "tile_avx2", "kernel_vnni"]) {
        assert_spanned(hit, src);
        assert!(hit.message.contains(name), "{}", hit.message);
    }
    assert!(
        hits[2].message.contains("`avx512vnni`"),
        "{}",
        hits[2].message
    );
    assert!(!hits[2].message.contains("avx512bw"), "{}", hits[2].message);
    // The SAFETY comments keep DL002 quiet, so this fixture isolates DL005.
    assert_eq!(active(src, Code::UnsafeWithoutContract), vec![]);
}

#[test]
fn dl005_quiet_on_detected_dispatch() {
    let src = include_str!("fixtures/dl005_neg.rs");
    assert_eq!(active(src, Code::UngatedTargetFeature), vec![]);
}

#[test]
fn dl006_fires_on_float_accumulation_under_scope() {
    let src = include_str!("fixtures/dl006_pos.rs");
    let hits = active(src, Code::ParallelFloatAccumulation);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_spanned(&hits[0], src);
    assert!(hits[0].message.contains("total"), "{}", hits[0].message);
}

#[test]
fn dl006_quiet_on_per_worker_partials() {
    let src = include_str!("fixtures/dl006_neg.rs");
    assert_eq!(active(src, Code::ParallelFloatAccumulation), vec![]);
}

#[test]
fn fixtures_under_test_paths_skip_test_scoped_codes() {
    // The same DL001 source analyzed as a test file produces nothing:
    // hash order in tests cannot leak into published results.
    let src = include_str!("fixtures/dl001_pos.rs");
    let class = FileClass::from_path("crates/fixture/tests/it.rs");
    let diags = analyze(&class, src);
    assert!(
        !diags.iter().any(|d| d.code == Code::HashOrderIteration),
        "{diags:?}"
    );
}

/// `detlint FILES…` reports findings sorted by (path, line, col), as
/// `--workspace` does, whatever order the files are listed in.
#[test]
fn listed_files_report_findings_in_path_order() {
    let lint = |files: [&str; 2]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg("--root")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
            .args(files)
            .output()
            .expect("the detlint binary runs");
        assert_eq!(out.status.code(), Some(1), "both fixtures have findings");
        String::from_utf8(out.stdout).expect("a UTF-8 report")
    };
    let report = lint(["dl003_pos.rs", "dl001_pos.rs"]);
    let spans: Vec<(String, u32, u32)> = report
        .lines()
        .filter(|l| l.starts_with("DL"))
        .map(|l| {
            let span = l.split_whitespace().nth(1).expect("a span after the code");
            let mut parts = span.split(':');
            let path = parts.next().expect("a path").to_string();
            let mut num = || parts.next().and_then(|n| n.parse().ok()).expect("a number");
            (path, num(), num())
        })
        .collect();
    assert!(spans.iter().any(|s| s.0 == "dl001_pos.rs"), "{report}");
    assert!(spans.iter().any(|s| s.0 == "dl003_pos.rs"), "{report}");
    assert!(spans.windows(2).all(|w| w[0] <= w[1]), "{report}");
    assert_eq!(report, lint(["dl001_pos.rs", "dl003_pos.rs"]));
}
