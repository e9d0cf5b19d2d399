//! Non-fatal warning machinery for the bench reports.
//!
//! `soak` reports advisory regressions as `WARN:` lines on stderr and
//! carries them into its JSON report's `"warnings"` array; the
//! hand-formatted reports share [`json_escape`].

/// Collects non-fatal warnings for one bench report.
#[derive(Default)]
pub struct WarnLog {
    warnings: Vec<String>,
}

impl WarnLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (and print to stderr) one warning.
    pub fn warn(&mut self, msg: String) {
        eprintln!("WARN: {msg}");
        self.warnings.push(msg);
    }

    /// The report's `"warnings": [...]` element contents (escaped,
    /// comma-joined, no surrounding brackets).
    pub fn json_array(&self) -> String {
        self.warnings
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Minimal JSON string escaping for the hand-formatted bench reports:
/// warning texts are ASCII diagnostics, so quotes and backslashes are
/// the only characters that could break the encoding.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_render_as_a_json_array() {
        let mut log = WarnLog::new();
        assert_eq!(log.json_array(), "");
        log.warn("real".into());
        log.warn("a \"quoted\" one".into());
        assert_eq!(log.json_array(), r#""real", "a \"quoted\" one""#);
    }

    #[test]
    fn escaping_handles_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"a "b" \c"#), r#"a \"b\" \\c"#);
    }
}
