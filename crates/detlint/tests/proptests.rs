//! Property tests: the analyzer is total. It must never panic — not on
//! arbitrary text (unterminated strings, stray quotes, non-ASCII), and
//! not on arbitrary well-formed items — and every diagnostic it emits
//! must carry an in-range 1-based span.

use detlint::{analyze, Diagnostic, FileClass};
use kgstore::rng::{check, StdRng};

fn class() -> FileClass {
    FileClass::from_path("crates/fixture/src/lib.rs")
}

fn check_spans(src: &str, diags: &[Diagnostic]) {
    let lines = src.lines().count().max(1) as u32;
    for d in diags {
        assert!(d.line >= 1 && d.line <= lines, "line {} of {lines}", d.line);
        assert!(d.col >= 1, "col must be 1-based, got {}", d.col);
        assert!(!d.message.is_empty());
        assert_ne!(d.path, "");
    }
}

/// Keywords break templates.
const KEYWORDS: [&str; 37] = [
    "fn", "let", "mut", "for", "in", "unsafe", "pub", "use", "as", "if", "else", "loop", "while",
    "match", "mod", "struct", "enum", "union", "impl", "trait", "true", "false", "const", "static",
    "ref", "move", "return", "where", "type", "dyn", "extern", "crate", "self", "super", "box",
    "async", "await",
];

/// An identifier the item templates below can splice anywhere.
fn ident(rng: &mut StdRng) -> String {
    loop {
        let s = rng.string("a-z", 1..=1) + &rng.string("a-z0-9_", 0..=7);
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

/// One syntactically well-formed item, spanning the shapes the checks
/// care about: hash decls + iteration, unsafe blocks/fns, clocks,
/// randomness, target features, threaded float accumulation, comments
/// (some shaped like `detlint: allow(…)` directives), strings.
fn item(rng: &mut StdRng) -> String {
    let (f, m) = (ident(rng), ident(rng));
    match rng.random_range(0..10) {
        0 => format!(
            "fn {f}() -> usize {{\n    let mut {m}: HashMap<u64, u64> = HashMap::new();\n    \
             {m}.insert(1, 2);\n    for (k, v) in {m}.iter() {{\n        \
             println!(\"{{k}} {{v}}\");\n    }}\n    {m}.len()\n}}\n"
        ),
        1 => format!(
            "fn {f}(xs: &FxHashMap<String, i32>) -> i32 {{\n    \
             let mut {m}: Vec<i32> = xs.values().copied().collect();\n    \
             {m}.sort_unstable();\n    {m}.first().copied().unwrap_or(0)\n}}\n"
        ),
        2 => {
            let s = rng.string(" -~", 0..=24).replace(['"', '\\'], "_");
            format!("fn {f}() -> &'static str {{\n    \"{s}\"\n}}\n")
        }
        3 => format!(
            "/// Docs with a stray detlint: allow(DL001) mention.\nfn {f}(p: *const u8) -> u8 {{\n    \
             // SAFETY: fixture pointer is valid by construction.\n    unsafe {{ *p }}\n}}\n"
        ),
        4 => format!("fn {f}() -> u128 {{\n    std::time::Instant::now().elapsed().as_nanos()\n}}\n"),
        5 => format!(
            "fn {f}() -> f64 {{\n    let mut rng = rand::thread_rng();\n    rng.r#gen()\n}}\n"
        ),
        6 => format!(
            "#[target_feature(enable = \"avx2\")]\nunsafe fn {m}_avx2() {{}}\n\n\
             fn {f}() {{\n    unsafe {{ {m}_avx2() }}\n}}\n"
        ),
        7 => format!(
            "fn {f}(xs: &[f32]) -> f32 {{\n    let mut {m}: f32 = 0.0;\n    \
             std::thread::scope(|s| {{\n        s.spawn(|| {{\n            \
             for x in xs {{\n                {m} += x;\n            }}\n        \
             }});\n    }});\n    {m}\n}}\n"
        ),
        8 => format!(
            "fn {f}(xs: &HashSet<u32>) -> u32 {{\n    \
             // detlint: allow(DL001) {m} fixture reason\n    \
             let mut acc = 0;\n    for x in xs.iter() {{\n        acc ^= x;\n    }}\n    acc\n}}\n"
        ),
        _ => format!(
            "#[cfg(test)]\nmod {m} {{\n    #[test]\n    fn t() {{\n        \
             let now = std::time::Instant::now();\n        let _ = now.elapsed();\n    }}\n}}\n"
        ),
    }
}

/// Total on arbitrary printable text — including unbalanced
/// delimiters and stray quotes.
#[test]
fn never_panics_on_arbitrary_text() {
    check(96, 1, |rng| {
        let src = rng.string(" -~\n", 0..=400);
        let diags = analyze(&class(), &src);
        check_spans(&src, &diags);
    });
}

/// Total on arbitrary Unicode.
#[test]
fn never_panics_on_arbitrary_unicode() {
    check(96, 2, |rng| {
        let src = rng.printable(0..=200);
        let diags = analyze(&class(), &src);
        check_spans(&src, &diags);
    });
}

/// On arbitrary sequences of well-formed items: no panic, valid
/// spans, deterministic output.
#[test]
fn spanned_and_deterministic_on_wellformed_items() {
    check(96, 3, |rng| {
        let src = rng.vec(0..6, item).concat();
        let diags = analyze(&class(), &src);
        check_spans(&src, &diags);
        let again = analyze(&class(), &src);
        assert_eq!(&diags, &again, "analysis must be deterministic");
    });
}
