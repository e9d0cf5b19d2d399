//! A minimal Rust lexer with `line:col` spans.
//!
//! detlint deliberately does not depend on `syn`: the checks it runs
//! (DL001–DL006, see [`crate::diag`]) are token-shape invariants, not
//! type-system facts, and a dependency-free lexer keeps the lint gate
//! hermetic — it builds offline, instantly, and can never be broken by
//! a proc-macro ecosystem bump. The lexer understands everything that
//! can hide a token from a naive scan: nested block comments, doc
//! comments, string/char/byte/raw-string literals, raw identifiers,
//! lifetimes vs. char literals, and numeric literals (including float
//! detection for DL006).
//!
//! Comments are lexed *out of band* into [`Lexed::comments`] — the
//! analyzer needs them for `// SAFETY:` adjacency (DL002).

/// What a token is. Only the distinctions the analyzer needs are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// A lifetime such as `'a` (name stored without the quote).
    Lifetime(String),
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal. `float` is true when the literal is a floating
    /// point number (has a fractional part, an exponent, or an
    /// `f32`/`f64` suffix).
    Num { float: bool },
    /// A single punctuation character. Multi-character operators are
    /// recognised by the analyzer via byte-offset adjacency.
    Punct(char),
}

/// One token with its position (1-based line and column, byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
    pub col: u32,
    pub off: usize,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(t) if t == s)
    }
}

/// A comment with its position. `text` excludes the comment markers'
/// trailing newline but keeps the leading `//`, `///`, `/*`, … so the
/// analyzer can distinguish doc comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    /// Line on which the comment ends (equal to `line` for `//`).
    pub end_line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lex a whole source file. Unterminated literals or comments never
/// panic: the lexer consumes to end of input and returns what it has,
/// which is the right behaviour for a linter that must survive
/// arbitrary (even syntactically broken) input.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advance one byte, maintaining line/col. Multi-byte UTF-8
    /// continuation bytes do not advance the column, so columns count
    /// characters for ASCII-heavy source (exact for the Rust syntax
    /// itself, approximate inside non-ASCII string contents — which
    /// never carry diagnostics).
    fn bump(&mut self) {
        if let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self) -> Lexed {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                b'r' | b'b' | b'c' => {
                    if !self.literal_prefix() {
                        self.ident();
                    }
                }
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => {
                    let (line, col, off) = (self.line, self.col, self.pos);
                    // Non-ASCII bytes outside literals can only start
                    // identifiers (handled above for XID starts we
                    // care about) — emit the lead byte as punct and
                    // skip the rest of the character.
                    self.out.tokens.push(Tok {
                        kind: TokKind::Punct(b as char),
                        line,
                        col,
                        off,
                    });
                    self.bump();
                    while matches!(self.peek(), Some(c) if c & 0xC0 == 0x80) {
                        self.bump();
                    }
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let (line, start) = (self.line, self.pos);
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment {
            text,
            line,
            end_line: line,
        });
    }

    fn block_comment(&mut self) {
        let (line, start) = (self.line, self.pos);
        self.bump_n(2); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment {
            text,
            line,
            end_line: self.line,
        });
    }

    /// Ordinary (escaped, non-raw) string body after the opening quote
    /// has been identified; `quote` is `"` or `'`.
    fn escaped_body(&mut self, quote: u8) {
        self.bump(); // opening quote
        while let Some(b) = self.peek() {
            match b {
                b'\\' => self.bump_n(2),
                _ if b == quote => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    fn string(&mut self) {
        let (line, col, off) = (self.line, self.col, self.pos);
        self.escaped_body(b'"');
        self.out.tokens.push(Tok {
            kind: TokKind::Str,
            line,
            col,
            off,
        });
    }

    /// `'` — either a char literal or a lifetime.
    fn quote(&mut self) {
        let (line, col, off) = (self.line, self.col, self.pos);
        match self.peek_at(1) {
            // `'\n'`, `'\''` … always a char literal.
            Some(b'\\') => {
                self.escaped_body(b'\'');
                self.out.tokens.push(Tok {
                    kind: TokKind::Char,
                    line,
                    col,
                    off,
                });
            }
            Some(b) if is_ident_start(b) || b.is_ascii_digit() => {
                // Scan the identifier-shaped run after the quote; if it
                // is terminated by another `'` this is a char literal
                // (`'a'`), otherwise a lifetime (`'a`).
                let mut end = self.pos + 2;
                while matches!(self.src.get(end), Some(&c) if is_ident_continue(c)) {
                    end += 1;
                }
                if self.src.get(end) == Some(&b'\'') {
                    self.bump(); // `'`
                    while self.pos < end + 1 {
                        self.bump();
                    }
                    self.out.tokens.push(Tok {
                        kind: TokKind::Char,
                        line,
                        col,
                        off,
                    });
                } else {
                    self.bump(); // `'`
                    let start = self.pos;
                    while self.pos < end {
                        self.bump();
                    }
                    let name = String::from_utf8_lossy(&self.src[start..end]).into_owned();
                    self.out.tokens.push(Tok {
                        kind: TokKind::Lifetime(name),
                        line,
                        col,
                        off,
                    });
                }
            }
            // `'('`-style single-char literal, or a stray quote.
            Some(_) if self.peek_at(2) == Some(b'\'') => {
                self.bump_n(3);
                self.out.tokens.push(Tok {
                    kind: TokKind::Char,
                    line,
                    col,
                    off,
                });
            }
            _ => {
                self.bump();
                self.out.tokens.push(Tok {
                    kind: TokKind::Punct('\''),
                    line,
                    col,
                    off,
                });
            }
        }
    }

    /// Try to lex a literal with an `r`/`b`/`c`-family prefix (raw
    /// strings, byte strings/chars, C strings, raw identifiers).
    /// Returns false when the current position is an ordinary
    /// identifier starting with one of those letters.
    fn literal_prefix(&mut self) -> bool {
        let (line, col, off) = (self.line, self.col, self.pos);
        // Longest prefix first: br / cr / b / c / r.
        let rest = &self.src[self.pos..];
        let (prefix_len, raw) = if rest.starts_with(b"br") || rest.starts_with(b"cr") {
            (2, true)
        } else if rest.starts_with(b"r") {
            (1, true)
        } else {
            // b"…" | b'…' | c"…"
            (1, false)
        };
        let after = self.pos + prefix_len;
        if raw {
            // r#ident (raw identifier) — only plain `r`.
            if prefix_len == 1 && self.src.get(after) == Some(&b'#') {
                if let Some(&b2) = self.src.get(after + 1) {
                    if is_ident_start(b2) {
                        self.bump_n(2); // r#
                        let start = self.pos;
                        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
                            self.bump();
                        }
                        let name = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        self.out.tokens.push(Tok {
                            kind: TokKind::Ident(name),
                            line,
                            col,
                            off,
                        });
                        return true;
                    }
                }
            }
            // raw string: prefix, zero+ `#`, then `"`.
            let mut hashes = 0;
            while self.src.get(after + hashes) == Some(&b'#') {
                hashes += 1;
            }
            if self.src.get(after + hashes) == Some(&b'"') {
                self.bump_n(prefix_len + hashes + 1);
                // Scan until `"` followed by `hashes` `#`s.
                'scan: while let Some(b) = self.peek() {
                    if b == b'"' {
                        for h in 0..hashes {
                            if self.peek_at(1 + h) != Some(b'#') {
                                self.bump();
                                continue 'scan;
                            }
                        }
                        self.bump_n(1 + hashes);
                        break;
                    }
                    self.bump();
                }
                self.out.tokens.push(Tok {
                    kind: TokKind::Str,
                    line,
                    col,
                    off,
                });
                return true;
            }
            return false;
        }
        // Non-raw prefixed literal: b"…" , b'…' , c"…".
        match self.src.get(after) {
            Some(&b'"') => {
                self.bump_n(prefix_len);
                self.string();
                // Fix up the span to include the prefix.
                if let Some(t) = self.out.tokens.last_mut() {
                    t.line = line;
                    t.col = col;
                    t.off = off;
                }
                true
            }
            Some(&b'\'') if rest.starts_with(b"b") => {
                self.bump_n(prefix_len);
                self.escaped_body(b'\'');
                self.out.tokens.push(Tok {
                    kind: TokKind::Char,
                    line,
                    col,
                    off,
                });
                true
            }
            _ => false,
        }
    }

    fn ident(&mut self) {
        let (line, col, off) = (self.line, self.col, self.pos);
        let start = self.pos;
        while let Some(b) = self.peek() {
            if is_ident_continue(b) || b & 0x80 != 0 {
                self.bump();
            } else {
                break;
            }
        }
        let name = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.tokens.push(Tok {
            kind: TokKind::Ident(name),
            line,
            col,
            off,
        });
    }

    fn number(&mut self) {
        let (line, col, off) = (self.line, self.col, self.pos);
        let start = self.pos;
        let hex_like = self.peek() == Some(b'0')
            && matches!(
                self.peek_at(1),
                Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
            );
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.bump(),
                b'.' => {
                    // Only part of the number when followed by a digit
                    // (`1.5`) — never consume `..` range syntax or a
                    // method call on a literal (`1.max(2)`).
                    if !float
                        && !hex_like
                        && matches!(self.peek_at(1), Some(c) if c.is_ascii_digit())
                    {
                        float = true;
                        self.bump();
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if !hex_like => {
                    // Exponent when followed by digit or sign+digit.
                    let next = self.peek_at(1);
                    let next2 = self.peek_at(2);
                    let exp = matches!(next, Some(c) if c.is_ascii_digit())
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && matches!(next2, Some(c) if c.is_ascii_digit()));
                    if exp {
                        float = true;
                        self.bump();
                        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                            self.bump();
                        }
                    } else {
                        break;
                    }
                }
                _ if b.is_ascii_alphanumeric() => self.bump(),
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !hex_like && (text.ends_with(b"f32") || text.ends_with(b"f64")) {
            float = true;
        }
        self.out.tokens.push(Tok {
            kind: TokKind::Num { float },
            line,
            col,
            off,
        });
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b & 0x80 != 0
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn basic_tokens_and_spans() {
        let l = lex("fn main() {}\nlet x = 1;");
        assert!(l.tokens[0].is_ident("fn"));
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        let let_tok = l.tokens.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!((let_tok.line, let_tok.col), (2, 1));
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("// SAFETY: fine\nunsafe {}\n/* block\n   more */ x");
        assert!(l.tokens.iter().any(|t| t.is_ident("unsafe")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("SAFETY")));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("SAFETY"));
        assert_eq!(l.comments[1].end_line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ ident");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ ident"), vec!["ident"]);
    }

    #[test]
    fn strings_hide_tokens() {
        assert_eq!(
            idents(r#"let s = "for x in map.iter()";"#),
            vec!["let", "s"]
        );
        assert_eq!(
            idents(r##"let s = r#"unsafe { "quoted" }"#;"##),
            vec!["let", "s"]
        );
        assert_eq!(idents(r#"let s = b"HashMap";"#), vec!["let", "s"]);
    }

    #[test]
    fn string_escapes() {
        let l = lex(r#""a\"b" x"#);
        assert_eq!(l.tokens.len(), 2);
        assert!(l.tokens[1].is_ident("x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'b'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Lifetime(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "fn"]);
    }

    #[test]
    fn numbers_and_floats() {
        let l =
            lex("let a = 1; let b = 1.5; let c = 0.0f32; let d = 1e-3; let e = 0xE; let r = 0..2;");
        let floats: Vec<bool> = l
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Num { float } => Some(float),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec![false, true, true, true, false, false, false]);
    }

    #[test]
    fn range_dots_not_swallowed() {
        let l = lex("0..n");
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
        assert!(l.tokens.iter().any(|t| t.is_ident("n")));
    }

    #[test]
    fn adjacency_offsets_for_compound_ops() {
        let l = lex("x += 1;");
        let plus = l.tokens.iter().find(|t| t.is_punct('+')).unwrap();
        let eq = l.tokens.iter().find(|t| t.is_punct('=')).unwrap();
        assert_eq!(plus.off + 1, eq.off);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* open", "r#\"open", "'", "b'", "let x = "] {
            let _ = lex(src);
        }
    }

    #[test]
    fn shebang_and_attrs() {
        let l = lex("#![allow(dead_code)]\n#[cfg(test)]\nmod t {}");
        assert!(l.tokens.iter().any(|t| t.is_ident("cfg")));
        assert!(l.tokens.iter().any(|t| t.is_ident("test")));
    }
}
