//! Error taxonomy for the Cypher engine.
//!
//! The taxonomy mirrors the paper's §4.6.1 error analysis: the dominant
//! LLM failure when generating pseudo-graph Cypher is emitting `MATCH`
//! (a query) where only `CREATE` (construction) is expected. That case
//! gets its own variant so the harness can count it separately.

use std::fmt;

/// Position of an error in the source text (byte offset + line + column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pos {
    /// Byte offset into the script.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in characters, not bytes). 0 when unknown, e.g.
    /// for positions attached to in-memory ASTs that never had source.
    pub col: u32,
}

impl Pos {
    /// Build a position.
    pub const fn new(offset: usize, line: u32, col: u32) -> Self {
        Pos { offset, line, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col == 0 {
            write!(f, "line {}", self.line)
        } else {
            write!(f, "line {}:{}", self.line, self.col)
        }
    }
}

/// Any error raised while lexing, parsing, or executing Cypher.
#[derive(Debug, Clone, PartialEq)]
pub enum CypherError {
    /// A character the lexer cannot start a token with.
    Lex {
        /// Where it happened.
        pos: Pos,
        /// Human-readable message.
        msg: String,
    },
    /// A structural parse failure.
    Parse {
        /// Where it happened.
        pos: Pos,
        /// What the parser expected.
        expected: String,
        /// What it found instead.
        found: String,
    },
    /// A `MATCH` clause appeared in a context where only graph
    /// construction is allowed (pseudo-graph generation). This is the
    /// paper's reported 0.6% GPT-3.5 failure mode.
    SpuriousMatch {
        /// Where the `MATCH` was found.
        pos: Pos,
    },
}

impl CypherError {
    /// Whether this error is the spurious-`MATCH` failure mode.
    pub fn is_spurious_match(&self) -> bool {
        matches!(self, CypherError::SpuriousMatch { .. })
    }

    /// Short machine-readable category name (for error-analysis tables).
    pub fn category(&self) -> &'static str {
        match self {
            CypherError::Lex { .. } => "lex",
            CypherError::Parse { .. } => "parse",
            CypherError::SpuriousMatch { .. } => "spurious-match",
        }
    }
}

impl fmt::Display for CypherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CypherError::Lex { pos, msg } => write!(f, "lex error at {pos}: {msg}"),
            CypherError::Parse {
                pos,
                expected,
                found,
            } => {
                write!(
                    f,
                    "parse error at {pos}: expected {expected}, found {found}"
                )
            }
            CypherError::SpuriousMatch { pos } => {
                write!(
                    f,
                    "spurious MATCH at {pos}: pseudo-graph scripts must only CREATE"
                )
            }
        }
    }
}

impl std::error::Error for CypherError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CypherError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        let p = Pos::new(0, 1, 1);
        assert_eq!(
            CypherError::SpuriousMatch { pos: p }.category(),
            "spurious-match"
        );
        assert!(CypherError::SpuriousMatch { pos: p }.is_spurious_match());
        assert!(!CypherError::Lex {
            pos: p,
            msg: "x".into()
        }
        .is_spurious_match());
    }

    #[test]
    fn display_contains_line_and_col() {
        let e = CypherError::Parse {
            pos: Pos::new(10, 3, 5),
            expected: "')'".into(),
            found: "','".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 3:5") && s.contains("')'"));
    }

    #[test]
    fn display_omits_unknown_col() {
        assert_eq!(
            Pos {
                offset: 7,
                line: 2,
                col: 0
            }
            .to_string(),
            "line 2"
        );
        assert_eq!(Pos::default().to_string(), "line 0");
    }
}
