// Allow-comment fixture: a `detlint: allow` comment with a reason is
// an ordinary comment, so the DL001 finding under it stays active.
use std::collections::HashMap;

pub fn pinned(counts: &HashMap<String, usize>) -> Vec<String> {
    let mut out = Vec::new();
    // detlint: allow(DL001) output order is pinned by the golden file
    for (k, v) in counts.iter() {
        out.push(format!("{k}={v}"));
    }
    out
}
