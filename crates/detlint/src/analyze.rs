//! The determinism & unsafe-invariant checks (DL001–DL006).
//!
//! Every check is a *token-shape* invariant over the output of
//! [`crate::lexer`]: no type inference, no name resolution. That makes
//! the analyzer fast and dependency-free, at the price of
//! approximation — identifiers are classified as hash-ordered or
//! float-typed by local declaration patterns (`let m: FxHashMap<…>`,
//! `= HashMap::new()`, `sum: f64`, struct fields), so a map that
//! enters a file only through an untyped helper return can slip
//! through. The workspace gate treats the analyzer as a ratchet:
//! everything it *does* see must be fixed.
//!
//! Scoping rules:
//! - DL001 (hash-order iteration) and DL003 (wall-clock) skip test
//!   code — files under `tests/`, `benches/`, `examples/`, and
//!   `#[cfg(test)]` / `#[test]` items. DL003 additionally skips
//!   `crates/bench`, the only place wall-clock reads are legitimate.
//! - DL002 (SAFETY contracts), DL004 (unseeded randomness), DL005
//!   (ungated `#[target_feature]` calls) and DL006 (parallel float
//!   accumulation) apply everywhere, including tests: an undocumented
//!   unsafe block or an unseeded generator is just as wrong in a test.

use crate::diag::{Code, Diagnostic};
use crate::lexer::{lex, Comment, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Where a file sits in the workspace, which decides check scoping.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Repo-relative display path.
    pub path: String,
    /// Whole file is test/bench/example code (path-derived).
    pub test_scope: bool,
    /// File belongs to `crates/bench` (wall-clock allowed).
    pub bench_scope: bool,
}

impl FileClass {
    /// Classify a repo-relative path.
    pub fn from_path(path: &str) -> FileClass {
        let bench_scope = path.starts_with("crates/bench/");
        let test_scope = bench_scope
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/")
            || path.starts_with("tests/")
            || path.starts_with("examples/");
        FileClass {
            path: path.to_string(),
            test_scope,
            bench_scope,
        }
    }
}

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];
const FLOAT_TYPES: [&str; 2] = ["f32", "f64"];
/// Order-insensitive chain terminators: reductions whose result cannot
/// observe iteration order (on the integer/Ord element types they are
/// callable with).
const SINK_TERMINATORS: [&str; 5] = ["count", "max", "min", "all", "any"];
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Methods that pass a container through unchanged, so a dotted chain
/// like `self.cache.lock().iter()` still iterates the declared
/// collection. Any *other* call in the chain (`get`, `entry`, …)
/// changes the type, so classification stops there.
const PASSTHROUGH_CALLS: [&str; 10] = [
    "lock",
    "borrow",
    "borrow_mut",
    "read",
    "write",
    "as_ref",
    "as_mut",
    "unwrap",
    "expect",
    "clone",
];

/// Analyze one source file.
pub fn analyze(class: &FileClass, src: &str) -> Vec<Diagnostic> {
    analyze_with(class, src, &BTreeSet::new())
}

/// [`analyze`] with an extra set of identifiers known (from the rest
/// of the workspace) to name hash-ordered collections — typically
/// struct fields declared in other files. See [`hash_field_names`].
pub fn analyze_with(
    class: &FileClass,
    src: &str,
    workspace_hash_idents: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mut a = FileAnalysis::new(class, src, &lexed.tokens, &lexed.comments);
    a.global_hash_fields
        .extend(workspace_hash_idents.iter().cloned());
    a.run()
}

/// Identifiers declared with a hash-ordered type (`name: FxHashMap<…>`
/// and friends) in one file — the workspace pre-pass feeds the union
/// of these back into [`analyze_with`] so that a field declared in
/// `source.rs` is still recognized when `stats.rs` iterates it.
pub fn hash_field_names(src: &str) -> BTreeSet<String> {
    let lexed = lex(src);
    let class = FileClass::default();
    let a = FileAnalysis::new(&class, src, &lexed.tokens, &lexed.comments);
    a.hash_fields
}

struct FileAnalysis<'a> {
    class: &'a FileClass,
    /// The source the tokens index into (string literal contents).
    src: &'a str,
    toks: &'a [Tok],
    comments: &'a [Comment],
    /// Parens+brackets depth *before* each token.
    pb_depth: Vec<u32>,
    /// Matching close index for every `(`/`[`/`{` token.
    match_close: Vec<usize>,
    /// Token index ranges (inclusive) that belong to `#[cfg(test)]`,
    /// `#[test]`, … items.
    test_ranges: Vec<(usize, usize)>,
    /// Token index ranges covered by attributes (`#[…]` / `#![…]`).
    attr_ranges: Vec<(usize, usize)>,
    /// Function definitions in the file.
    fns: Vec<FnDef>,
    hash_idents: BTreeSet<String>,
    /// The subset of `hash_idents` declared as struct/enum fields —
    /// the only names worth exporting workspace-wide (local `let`s
    /// would pollute every other file).
    hash_fields: BTreeSet<String>,
    /// Field names imported from the rest of the workspace. These only
    /// match *field accesses* (`x.meta.iter()`), never bare locals — a
    /// local `Vec` that happens to share a field's name stays clean.
    global_hash_fields: BTreeSet<String>,
    float_idents: BTreeSet<String>,
    /// Token ranges `(open_brace, close_brace)` of struct/enum bodies.
    adt_bodies: Vec<(usize, usize)>,
}

struct FnDef {
    name: String,
    name_idx: usize,
    /// Body token range `(open_brace_idx, close_brace_idx)`, if any.
    body: Option<(usize, usize)>,
    target_feature: bool,
    /// The features its `#[target_feature(enable = "…")]` lists.
    features: BTreeSet<String>,
}

impl<'a> FileAnalysis<'a> {
    fn new(class: &'a FileClass, src: &'a str, toks: &'a [Tok], comments: &'a [Comment]) -> Self {
        let mut a = FileAnalysis {
            class,
            src,
            toks,
            comments,
            pb_depth: Vec::new(),
            match_close: Vec::new(),
            test_ranges: Vec::new(),
            attr_ranges: Vec::new(),
            fns: Vec::new(),
            hash_idents: BTreeSet::new(),
            hash_fields: BTreeSet::new(),
            global_hash_fields: BTreeSet::new(),
            float_idents: BTreeSet::new(),
            adt_bodies: Vec::new(),
        };
        a.compute_depths();
        a.collect_attr_ranges();
        a.collect_test_ranges();
        a.collect_fns();
        a.collect_adt_bodies();
        a.collect_typed_idents();
        a
    }

    fn run(self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        self.check_hash_iteration(&mut diags);
        self.check_unsafe_contracts(&mut diags);
        self.check_wall_clock(&mut diags);
        self.check_unseeded_randomness(&mut diags);
        self.check_target_feature_gating(&mut diags);
        self.check_parallel_float_accumulation(&mut diags);
        diags.sort_by_key(|x| (x.line, x.col, x.code));
        diags
    }

    // ---- shared structure -------------------------------------------------

    fn compute_depths(&mut self) {
        let n = self.toks.len();
        self.pb_depth = vec![0; n];
        self.match_close = vec![usize::MAX; n];
        let mut pb = 0u32;
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in self.toks.iter().enumerate() {
            self.pb_depth[i] = pb;
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => {
                    pb += 1;
                    stack.push(i);
                }
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    pb = pb.saturating_sub(1);
                    if let Some(open) = stack.pop() {
                        self.match_close[open] = i;
                    }
                }
                TokKind::Punct('{') => stack.push(i),
                TokKind::Punct('}') => {
                    if let Some(open) = stack.pop() {
                        self.match_close[open] = i;
                    }
                }
                _ => {}
            }
        }
    }

    /// True when `toks[i]` and `toks[i+1]` are the two halves of `::`.
    fn is_path_sep(&self, i: usize) -> bool {
        self.toks[i].is_punct(':')
            && self
                .toks
                .get(i + 1)
                .is_some_and(|t| t.is_punct(':') && t.off == self.toks[i].off + 1)
    }

    /// True when `toks[i]` is a lone type-ascription colon.
    fn is_single_colon(&self, i: usize) -> bool {
        self.toks[i].is_punct(':') && !self.is_path_sep(i) && !(i > 0 && self.is_path_sep(i - 1))
    }

    fn collect_attr_ranges(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if self.toks[i].is_punct('#') {
                let mut j = i + 1;
                if self.toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    let close = self.match_close[j];
                    if close != usize::MAX {
                        self.attr_ranges.push((i, close));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    fn in_attr(&self, idx: usize) -> bool {
        self.attr_ranges.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// The contents of the string literal at `toks[i]` (between its
    /// first two quotes, raw or not), if it is one without escapes.
    fn str_lit(&self, i: usize) -> Option<&'a str> {
        let tok = self.toks.get(i)?;
        if tok.kind != TokKind::Str {
            return None;
        }
        let rest = self.src.get(tok.off..)?;
        let open = rest.find('"')? + 1;
        let len = rest[open..].find('"')?;
        let body = &rest[open..open + len];
        (!body.contains('\\')).then_some(body)
    }

    /// Mark the token range of the item following each test-marking
    /// attribute (`#[cfg(test)]`, `#[test]`, `#[bench]`, …).
    fn collect_test_ranges(&mut self) {
        let mut ranges = Vec::new();
        for &(start, end) in &self.attr_ranges {
            let attr = &self.toks[start..=end];
            // `#[cfg(test)]`, `#[test]`, `#[bench]`, `#[cfg(any(test, …))]`
            // — but not `#[cfg(not(test))]`.
            let is_test_attr = (attr.iter().any(|t| t.is_ident("test"))
                || attr.iter().any(|t| t.is_ident("bench")))
                && !attr.iter().any(|t| t.is_ident("not"));
            if !is_test_attr {
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut item = end + 1;
            while item < self.toks.len() {
                if let Some(&(_, e)) = self.attr_ranges.iter().find(|&&(s, _)| s == item) {
                    item = e + 1;
                } else {
                    break;
                }
            }
            // The item ends at the first `;` at base depth, or at the
            // close of its first base-depth brace block.
            let base = self.pb_depth.get(item).copied().unwrap_or(0);
            let mut j = item;
            let mut item_end = self.toks.len().saturating_sub(1);
            while j < self.toks.len() {
                let t = &self.toks[j];
                if self.pb_depth[j] == base && t.is_punct(';') {
                    item_end = j;
                    break;
                }
                if self.pb_depth[j] == base && t.is_punct('{') {
                    let close = self.match_close[j];
                    item_end = if close == usize::MAX {
                        self.toks.len().saturating_sub(1)
                    } else {
                        close
                    };
                    break;
                }
                j += 1;
            }
            ranges.push((item, item_end));
        }
        self.test_ranges = ranges;
    }

    fn in_test_code(&self, idx: usize) -> bool {
        self.class.test_scope || self.test_ranges.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    fn collect_fns(&mut self) {
        let mut fns = Vec::new();
        for i in 0..self.toks.len() {
            if !self.toks[i].is_ident("fn") || self.in_attr(i) {
                continue;
            }
            let Some(name_tok) = self.toks.get(i + 1) else {
                continue;
            };
            let Some(name) = name_tok.ident() else {
                continue;
            };
            // Attributes directly above the `fn` (skipping qualifiers
            // such as `pub`, `unsafe`, `extern "C"`, `const`).
            let mut k = i;
            while k > 0 {
                let prev = &self.toks[k - 1];
                let qualifier = prev
                    .ident()
                    .is_some_and(|s| matches!(s, "pub" | "unsafe" | "const" | "extern" | "async"))
                    || prev.is_punct(')')
                    || prev.is_punct('(')
                    || prev.ident().is_some_and(|s| s == "crate")
                    || matches!(prev.kind, TokKind::Str);
                if qualifier {
                    k -= 1;
                } else {
                    break;
                }
            }
            let mut target_feature = false;
            let mut features = BTreeSet::new();
            // Walk attribute groups immediately above.
            let mut above = k;
            while above > 0 {
                let attr = self
                    .attr_ranges
                    .iter()
                    .find(|&&(_, e)| e == above - 1)
                    .copied();
                match attr {
                    Some((s, e)) => {
                        if self.toks[s..=e]
                            .iter()
                            .any(|t| t.is_ident("target_feature"))
                        {
                            target_feature = true;
                            // `enable = "a,b"`: every literal in the
                            // attribute names features.
                            for j in s..=e {
                                if let Some(list) = self.str_lit(j) {
                                    features.extend(
                                        list.split(',')
                                            .map(str::trim)
                                            .filter(|f| !f.is_empty())
                                            .map(str::to_string),
                                    );
                                }
                            }
                        }
                        above = s;
                    }
                    None => break,
                }
            }
            // Find the body: first base-depth `{` before a base-depth `;`.
            let base = self.pb_depth[i];
            let mut j = i + 2;
            let mut body = None;
            while j < self.toks.len() {
                let t = &self.toks[j];
                if self.pb_depth[j] == base && t.is_punct(';') {
                    break;
                }
                if self.pb_depth[j] == base && t.is_punct('{') {
                    let close = self.match_close[j];
                    if close != usize::MAX {
                        body = Some((j, close));
                    }
                    break;
                }
                j += 1;
            }
            fns.push(FnDef {
                name: name.to_string(),
                name_idx: i + 1,
                body,
                target_feature,
                features,
            });
        }
        self.fns = fns;
    }

    /// The function whose body most tightly encloses `idx`.
    fn enclosing_fn(&self, idx: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| idx > s && idx < e))
            .min_by_key(|f| {
                let (s, e) = f.body.unwrap();
                e - s
            })
    }

    /// Body brace ranges of `struct`/`enum`/`union` definitions, so
    /// field declarations can be told apart from `let`s and params.
    fn collect_adt_bodies(&mut self) {
        for i in 0..self.toks.len() {
            let is_adt = self.toks[i]
                .ident()
                .is_some_and(|s| matches!(s, "struct" | "enum" | "union"));
            if !is_adt || self.in_attr(i) {
                continue;
            }
            // Body = first `{` at this depth before a terminating `;`
            // (tuple/unit structs have no named fields).
            let base = self.pb_depth[i];
            let mut j = i + 1;
            while j < self.toks.len() {
                let t = &self.toks[j];
                if self.pb_depth[j] == base && t.is_punct(';') {
                    break;
                }
                if self.pb_depth[j] == base && t.is_punct('{') {
                    let close = self.match_close[j];
                    if close != usize::MAX {
                        self.adt_bodies.push((j, close));
                    }
                    break;
                }
                j += 1;
            }
        }
    }

    fn in_adt_body(&self, idx: usize) -> bool {
        self.adt_bodies.iter().any(|&(s, e)| idx > s && idx < e)
    }

    /// Track identifiers declared with hash-ordered or float types.
    fn collect_typed_idents(&mut self) {
        let toks = self.toks;
        for i in 0..toks.len() {
            // `name: <type>` — let bindings, params, struct fields.
            if i > 0 && self.is_single_colon(i) && !self.in_attr(i) {
                if let Some(name) = toks[i - 1].ident() {
                    let mut j = i + 1;
                    // Skip `&`, `&&`, `mut`, lifetimes.
                    while j < toks.len() {
                        let t = &toks[j];
                        if t.is_punct('&')
                            || t.is_ident("mut")
                            || matches!(t.kind, TokKind::Lifetime(_))
                        {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    // Walk a path `a::b::C`, keeping the last segment.
                    let mut last_seg: Option<&str> = None;
                    while j < toks.len() {
                        if let Some(seg) = toks[j].ident() {
                            last_seg = Some(seg);
                            if j + 2 < toks.len() && self.is_path_sep(j + 1) {
                                j += 3;
                                continue;
                            }
                        }
                        break;
                    }
                    if let Some(seg) = last_seg {
                        if HASH_TYPES.contains(&seg) {
                            self.hash_idents.insert(name.to_string());
                            if self.in_adt_body(i) {
                                self.hash_fields.insert(name.to_string());
                            }
                        } else if FLOAT_TYPES.contains(&seg) {
                            self.float_idents.insert(name.to_string());
                        }
                    }
                }
            }
            // `let [mut] name = <rhs>;` — classify by the initializer.
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let Some(name) = toks.get(j).and_then(|t| t.ident()) else {
                    continue;
                };
                if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    continue;
                }
                // Scan the initializer up to the terminating `;`.
                let base = self.pb_depth[i];
                let mut k = j + 2;
                let mut saw_hash = false;
                let mut first = true;
                while k < toks.len() {
                    let t = &toks[k];
                    if self.pb_depth[k] == base && (t.is_punct(';') || t.is_punct('{')) {
                        break;
                    }
                    if let Some(s) = t.ident() {
                        if HASH_TYPES.contains(&s) {
                            saw_hash = true;
                        }
                    }
                    if first {
                        if let TokKind::Num { float: true } = t.kind {
                            self.float_idents.insert(name.to_string());
                        }
                        first = false;
                    }
                    k += 1;
                }
                if saw_hash {
                    self.hash_idents.insert(name.to_string());
                }
            }
        }
    }

    // ---- DL001 ------------------------------------------------------------

    fn check_hash_iteration(&self, diags: &mut Vec<Diagnostic>) {
        let toks = self.toks;
        // Method-call form: `<chain>.iter()` where the chain mentions a
        // hash-typed identifier.
        for k in 0..toks.len() {
            let Some(m) = toks[k].ident() else { continue };
            let is_iter = ITER_METHODS.contains(&m)
                || (m == "into_iter" && k >= 1 && toks[k - 1].is_punct('.'));
            if !is_iter
                || k == 0
                || !toks[k - 1].is_punct('.')
                || !toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            {
                continue;
            }
            if self.in_test_code(k) {
                continue;
            }
            let chain = self.receiver_chain(k - 1);
            let local_hit = chain.iter().any(|n| self.hash_idents.contains(*n));
            // Everything but the outermost chain element is a field
            // projection — only those may match workspace field names.
            let field_hit = chain.len() > 1
                && chain[..chain.len() - 1]
                    .iter()
                    .any(|n| self.global_hash_fields.contains(*n));
            if !local_hit && !field_hit {
                continue;
            }
            if self.statement_has_sink(k) {
                continue;
            }
            let receiver = chain
                .iter()
                .find(|n| self.hash_idents.contains(**n) || self.global_hash_fields.contains(**n))
                .copied()
                .unwrap_or("<expr>");
            diags.push(Diagnostic {
                code: Code::HashOrderIteration,
                path: self.class.path.clone(),
                line: toks[k].line,
                col: toks[k].col,
                message: format!(
                    "iteration over hash-ordered collection `{receiver}` via `.{m}()` — order is \
                     not a contract; sort first or collect into a BTree*"
                ),
            });
        }
        // For-loop form: `for pat in [&][mut] <ident-chain>` where the
        // chain ends at a hash-typed identifier.
        for i in 0..toks.len() {
            if !toks[i].is_ident("for") || self.in_test_code(i) {
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
                continue; // `for<'a>` higher-ranked bound
            }
            let base = self.pb_depth[i];
            // Find `in` at the same depth before the body brace.
            let mut j = i + 1;
            let mut in_idx = None;
            while j < toks.len() {
                if self.pb_depth[j] == base && toks[j].is_punct('{') {
                    break;
                }
                if self.pb_depth[j] == base && toks[j].is_ident("in") {
                    in_idx = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_idx) = in_idx else { continue };
            let mut body_open = in_idx + 1;
            while body_open < toks.len() {
                if self.pb_depth[body_open] == base && toks[body_open].is_punct('{') {
                    break;
                }
                body_open += 1;
            }
            // Bare-chain iteration: every expr token is `&`/`mut`/ident/`.`/`::`.
            let expr = &toks[in_idx + 1..body_open.min(toks.len())];
            if expr.is_empty() {
                continue;
            }
            let mut bare = true;
            let mut last_ident: Option<&str> = None;
            for (e, t) in expr.iter().enumerate() {
                match &t.kind {
                    TokKind::Ident(s) if s != "mut" => last_ident = Some(s),
                    TokKind::Ident(_) => {}
                    TokKind::Punct('&') | TokKind::Punct('.') => {}
                    TokKind::Punct(':') => {
                        let global = in_idx + 1 + e;
                        if !(self.is_path_sep(global)
                            || (global > 0 && self.is_path_sep(global - 1)))
                        {
                            bare = false;
                            break;
                        }
                    }
                    _ => {
                        bare = false;
                        break;
                    }
                }
            }
            let Some(last) = last_ident else { continue };
            let dotted = expr.iter().any(|t| t.is_punct('.'));
            let hit = self.hash_idents.contains(last)
                || (dotted && self.global_hash_fields.contains(last));
            if bare && hit {
                diags.push(Diagnostic {
                    code: Code::HashOrderIteration,
                    path: self.class.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    message: format!(
                        "for-loop over hash-ordered collection `{last}` — order is not a \
                         contract; sort first or collect into a BTree*"
                    ),
                });
            }
        }
    }

    /// Identifiers of the dotted receiver chain ending at the `.` token
    /// `dot_idx` (e.g. `self.cache.map` → `["map", "cache", "self"]`,
    /// innermost first).
    fn receiver_chain(&self, dot_idx: usize) -> Vec<&str> {
        let toks = self.toks;
        let mut chain = Vec::new();
        let mut j = dot_idx as isize - 1;
        while j >= 0 {
            let i = j as usize;
            match &toks[i].kind {
                TokKind::Ident(name) => {
                    chain.push(name.as_str());
                    // Continue through `.` or `::` to the left.
                    if i >= 1 && toks[i - 1].is_punct('.') {
                        j = i as isize - 2;
                    } else if i >= 2 && self.is_path_sep(i - 2) {
                        j = i as isize - 3;
                    } else {
                        break;
                    }
                }
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    // A call or index in the chain. Only pass-through
                    // methods keep the receiver's type; anything else
                    // (`get`, `entry`, …) yields a new value, so the
                    // identifiers behind it are not what is iterated.
                    let open = (0..i).rev().find(|&o| self.match_close[o] == i);
                    match open {
                        Some(o)
                            if o >= 2
                                && self.toks[i].is_punct(')')
                                && self.toks[o - 1]
                                    .ident()
                                    .is_some_and(|m| PASSTHROUGH_CALLS.contains(&m))
                                && self.toks[o - 2].is_punct('.') =>
                        {
                            j = o as isize - 2; // continue behind `.lock(`
                        }
                        Some(o) if o >= 1 && self.toks[i].is_punct(']') => {
                            j = o as isize - 1; // indexing keeps the base
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        chain
    }

    /// Whether the statement containing token `idx` pipes the iterator
    /// into an order-insensitive sink, or binds a variable that the
    /// *next* statement immediately sorts.
    fn statement_has_sink(&self, idx: usize) -> bool {
        let toks = self.toks;
        let d0 = self.pb_depth[idx];
        // Statement bounds at depth <= d0.
        let mut start = idx;
        while start > 0 {
            let p = start - 1;
            if self.pb_depth[p] <= d0
                && (toks[p].is_punct(';') || toks[p].is_punct('{') || toks[p].is_punct('}'))
            {
                break;
            }
            start -= 1;
        }
        let mut end = idx;
        while end + 1 < toks.len() {
            let n = end + 1;
            if self.pb_depth[n] <= d0
                && (toks[n].is_punct(';') || toks[n].is_punct('{') || toks[n].is_punct('}'))
            {
                break;
            }
            end += 1;
        }
        let window = &toks[start..=end];
        if self.window_has_sink(start, window) {
            return true;
        }
        // `let [mut] v = …;` immediately followed by `v.sort…(…)`.
        let mut w = 0;
        if window.first().is_some_and(|t| t.is_ident("let")) {
            w += 1;
            if window.get(w).is_some_and(|t| t.is_ident("mut")) {
                w += 1;
            }
            if let Some(bound) = window.get(w).and_then(|t| t.ident()) {
                let after = end + 2; // token after the `;`
                if toks.get(after).is_some_and(|t| t.is_ident(bound))
                    && toks.get(after + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(after + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|m| m.starts_with("sort"))
                {
                    return true;
                }
            }
        }
        false
    }

    fn window_has_sink(&self, start: usize, window: &[Tok]) -> bool {
        for (w, t) in window.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            let global = start + w;
            let after_dot = global > 0 && self.toks[global - 1].is_punct('.');
            if name.starts_with("sort") {
                return true;
            }
            // Terminators must be *calls* (`.count()`, `.max::<_>(…)`)
            // — a field access like `c.count` is not a sink.
            if after_dot && SINK_TERMINATORS.contains(&name) {
                let callish = window
                    .get(w + 1)
                    .is_some_and(|t| t.is_punct('(') || t.is_punct(':'));
                if callish {
                    return true;
                }
            }
            // `.sum::<usize>()` / `.product::<u64>()` — integer
            // reductions are order-insensitive; float ones are not.
            if after_dot && (name == "sum" || name == "product") {
                let turbofish_int = window
                    .get(w + 1..w.saturating_add(6).min(window.len()))
                    .is_some_and(|peek| {
                        peek.iter()
                            .any(|t| t.ident().is_some_and(|s| INT_TYPES.contains(&s)))
                    });
                if turbofish_int {
                    return true;
                }
            }
            // `collect::<BTreeMap<…>>()`, `BTreeSet::from_iter(…)`.
            if name.starts_with("BTree") {
                return true;
            }
        }
        false
    }

    // ---- DL002 ------------------------------------------------------------

    fn check_unsafe_contracts(&self, diags: &mut Vec<Diagnostic>) {
        let toks = self.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("unsafe") || self.in_attr(i) {
                continue;
            }
            // What does this `unsafe` introduce?
            let next = toks.get(i + 1);
            let what = match next {
                Some(t) if t.is_punct('{') => "block",
                Some(t) if t.is_ident("fn") => "fn",
                Some(t) if t.is_ident("impl") => "impl",
                Some(t) if t.is_ident("trait") => "trait",
                // `unsafe extern "C" fn`, `pub unsafe fn` orderings land
                // on `fn` within a couple of tokens.
                Some(t) if t.is_ident("extern") => "fn",
                _ => continue, // `unsafe` in attr position or malformed
            };
            if self.has_safety_comment(toks[i].line) {
                continue;
            }
            let msg = match what {
                "block" => "`unsafe` block without an adjacent `// SAFETY:` comment".to_string(),
                "fn" => "`unsafe fn` without a `# Safety` doc section or `// SAFETY:` comment"
                    .to_string(),
                w => format!("`unsafe {w}` without an adjacent `// SAFETY:` comment"),
            };
            diags.push(Diagnostic {
                code: Code::UnsafeWithoutContract,
                path: self.class.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: msg,
            });
        }
    }

    /// A `SAFETY:` / `# Safety` comment counts when it is on the same
    /// line, or in the contiguous comment/attribute block directly
    /// above (doc comments included — `/// # Safety` sections pass).
    fn has_safety_comment(&self, line: u32) -> bool {
        let marker = |c: &Comment| c.text.contains("SAFETY") || c.text.contains("# Safety");
        if self
            .comments
            .iter()
            .any(|c| c.line <= line && c.end_line >= line && marker(c))
        {
            return true;
        }
        // Lines that contain at least one non-attribute token.
        let code_lines: BTreeSet<u32> = self
            .toks
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.in_attr(i))
            .map(|(_, t)| t.line)
            .collect();
        let mut l = line;
        while l > 1 {
            l -= 1;
            // A code line terminates the walk — even when it carries a
            // trailing comment, that comment annotates *that* line, so
            // it only counts if it is the SAFETY marker itself.
            if code_lines.contains(&l) {
                return self.comments.iter().any(|c| c.end_line == l && marker(c));
            }
            if let Some(c) = self.comments.iter().find(|c| c.end_line == l) {
                if marker(c) {
                    return true;
                }
                continue; // keep climbing through the comment block
            }
            // Attribute-only lines (`#[target_feature(…)]`) are
            // climbed through; a blank line terminates the walk.
            let has_attr = self
                .toks
                .iter()
                .enumerate()
                .any(|(i, t)| t.line == l && self.in_attr(i));
            if !has_attr {
                return false;
            }
        }
        false
    }

    // ---- DL003 ------------------------------------------------------------

    fn check_wall_clock(&self, diags: &mut Vec<Diagnostic>) {
        if self.class.bench_scope {
            return;
        }
        let toks = self.toks;
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if name != "Instant" && name != "SystemTime" {
                continue;
            }
            if !(i + 3 < toks.len() && self.is_path_sep(i + 1) && toks[i + 3].is_ident("now")) {
                continue;
            }
            if self.in_test_code(i) {
                continue;
            }
            diags.push(Diagnostic {
                code: Code::WallClock,
                path: self.class.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "wall-clock read `{name}::now()` outside crates/bench — time must never \
                     influence results"
                ),
            });
        }
    }

    // ---- DL004 ------------------------------------------------------------

    fn check_unseeded_randomness(&self, diags: &mut Vec<Diagnostic>) {
        let toks = self.toks;
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            let finding = match name {
                "thread_rng" if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                    Some("`thread_rng()` draws an unseeded OS-keyed generator")
                }
                "from_entropy" => Some("`from_entropy` seeds from the OS entropy pool"),
                "rng"
                    if toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
                        && !(i > 0 && toks[i - 1].is_ident("fn")) =>
                {
                    Some("argless `rng()` is the unseeded thread-local generator")
                }
                _ => None,
            };
            let Some(msg) = finding else { continue };
            diags.push(Diagnostic {
                code: Code::UnseededRandomness,
                path: self.class.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!("{msg} — derive state from an explicit seed instead"),
            });
        }
    }

    // ---- DL005 ------------------------------------------------------------

    /// True when the name at `toks[i]` is called: followed by `(`
    /// directly or after a turbofish (`name::<…>(`).
    fn is_call(&self, i: usize) -> bool {
        let toks = self.toks;
        let mut j = i + 1;
        if j < toks.len() && self.is_path_sep(j) && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut depth = 0usize;
            for (k, t) in toks.iter().enumerate().skip(j + 2) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j = k + 1;
                        break;
                    }
                }
            }
        }
        toks.get(j).is_some_and(|t| t.is_punct('('))
    }

    /// The features named by `is_x86_feature_detected!("…")` checks
    /// among `toks[from..to]`.
    fn detected_features(&self, from: usize, to: usize) -> BTreeSet<&'a str> {
        let toks = self.toks;
        (from..to)
            .filter(|&i| {
                toks[i].is_ident("is_x86_feature_detected")
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            })
            .filter_map(|i| self.str_lit(i + 3))
            .collect()
    }

    /// DL005: a call to a `#[target_feature]` fn is gated when every
    /// feature the callee enables is either named by an
    /// `is_x86_feature_detected!` check earlier in the calling fn's body
    /// or enabled by the caller's own `#[target_feature]`. A check of
    /// some other feature does not gate the call.
    fn check_target_feature_gating(&self, diags: &mut Vec<Diagnostic>) {
        let toks = self.toks;
        // Same-named definitions (methods of different impls) pool
        // their features: a call must be gated for all of them.
        let mut tf_features: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in self.fns.iter().filter(|f| f.target_feature) {
            tf_features
                .entry(f.name.as_str())
                .or_default()
                .extend(f.features.iter().map(String::as_str));
        }
        if tf_features.is_empty() {
            return;
        }
        let def_name_idxs: BTreeSet<usize> = self
            .fns
            .iter()
            .filter(|f| f.target_feature)
            .map(|f| f.name_idx)
            .collect();
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            let Some(needed) = tf_features.get(name) else {
                continue;
            };
            if def_name_idxs.contains(&i)
                || !self.is_call(i)
                || (i > 0 && toks[i - 1].is_ident("fn"))
                || self.in_attr(i)
            {
                continue;
            }
            let missing: Vec<&str> = match self.enclosing_fn(i) {
                Some(f) => {
                    let (open, _) = f.body.unwrap();
                    let detected = self.detected_features(open, i);
                    needed
                        .iter()
                        .filter(|feat| !detected.contains(*feat) && !f.features.contains(**feat))
                        .copied()
                        .collect()
                }
                None => needed.iter().copied().collect(),
            };
            if missing.is_empty() {
                continue;
            }
            diags.push(Diagnostic {
                code: Code::UngatedTargetFeature,
                path: self.class.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "call to `#[target_feature]` fn `{name}` without an \
                     `is_x86_feature_detected!` check (or caller \
                     `#[target_feature]`) for `{}`",
                    missing.join("`, `")
                ),
            });
        }
    }

    // ---- DL006 ------------------------------------------------------------

    fn check_parallel_float_accumulation(&self, diags: &mut Vec<Diagnostic>) {
        let toks = self.toks;
        // Argument ranges of `thread::scope(…)` / `<x>.spawn(…)` calls.
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for i in 0..toks.len() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            let open = i + 1;
            if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let spawnish = name == "spawn"
                || (name == "scope"
                    && i >= 2
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && i >= 3
                    && toks[i - 3].is_ident("thread"));
            if !spawnish {
                continue;
            }
            let close = self.match_close[open];
            if close != usize::MAX {
                regions.push((open, close));
            }
        }
        if regions.is_empty() {
            return;
        }
        for j in 1..toks.len() {
            if !(toks[j].is_punct('+')
                && toks
                    .get(j + 1)
                    .is_some_and(|t| t.is_punct('=') && t.off == toks[j].off + 1))
            {
                continue;
            }
            if !regions.iter().any(|&(s, e)| j > s && j < e) {
                continue;
            }
            // Walk the left-hand side back to its base identifiers.
            let mut k = j as isize - 1;
            let mut lhs: Vec<&str> = Vec::new();
            while k >= 0 {
                let i = k as usize;
                match &toks[i].kind {
                    TokKind::Ident(n) if n != "mut" => {
                        lhs.push(n.as_str());
                        if i >= 1 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct('*')) {
                            k = i as isize - if toks[i - 1].is_punct('.') { 2 } else { 1 };
                            if toks[i - 1].is_punct('*') {
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                    TokKind::Punct(']') => {
                        let open = (0..i).rev().find(|&o| self.match_close[o] == i);
                        match open {
                            Some(o) if o >= 1 => k = o as isize - 1,
                            _ => break,
                        }
                    }
                    TokKind::Punct('*') => k -= 1,
                    _ => break,
                }
            }
            if !lhs.iter().any(|n| self.float_idents.contains(*n)) {
                continue;
            }
            let target = lhs.first().copied().unwrap_or("<expr>");
            diags.push(Diagnostic {
                code: Code::ParallelFloatAccumulation,
                path: self.class.path.clone(),
                line: toks[j].line,
                col: toks[j].col,
                message: format!(
                    "float `+=` on `{target}` inside a thread::scope/spawn region — float \
                     addition is not associative, so the schedule becomes observable; accumulate \
                     per-worker and reduce in a fixed order"
                ),
            });
        }
    }
}
