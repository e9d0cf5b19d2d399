//! Tokenization and light normalisation for the semantic encoder.

/// Small English stopword list. Kept deliberately short: relation
/// verbalisations like "place of birth" lose "of" but keep the
/// content words that carry the semantics.
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "at", "to", "for", "by", "is", "are", "was", "were", "be",
    "been", "with", "and", "or", "that", "this", "it", "its", "as", "from", "which", "who", "whom",
    "what", "when", "where", "how", "does", "do", "did", "has", "have", "had",
];

/// Whether a token is a stopword.
pub fn is_stopword(tok: &str) -> bool {
    STOPWORDS.contains(&tok)
}

/// Conservative suffix-stripping stemmer.
///
/// Only high-precision transforms: plural `-s`/`-es`, `-ing`, `-ed`,
/// with guards against short stems ("born" must not become "bor").
pub fn stem(tok: &str) -> String {
    let t = tok;
    if t.len() > 4 && t.ends_with("ies") {
        return format!("{}y", &t[..t.len() - 3]);
    }
    if t.len() > 4 && t.ends_with("ing") {
        return t[..t.len() - 3].to_string();
    }
    if t.len() > 4 && t.ends_with("ed") && !t.ends_with("eed") {
        return t[..t.len() - 2].to_string();
    }
    // `-es` only after sibilants (boxes, watches, glasses); plain
    // `lakes` is handled by the general `-s` rule below.
    if t.len() > 4
        && (t.ends_with("xes")
            || t.ends_with("zes")
            || t.ends_with("ches")
            || t.ends_with("shes")
            || t.ends_with("sses"))
    {
        return t[..t.len() - 2].to_string();
    }
    if t.len() > 3 && t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") {
        return t[..t.len() - 1].to_string();
    }
    t.to_string()
}

/// Split text into lowercase word tokens. Handles the schema forms both
/// KG styles produce:
/// * Freebase paths: `/people/person/place_of_birth` → `people person
///   place birth` (after stopword removal);
/// * SCREAMING_SNAKE relationship types: `COMES_WITH` → `comes with`;
/// * camelCase identifiers: `MountainRange` → `mountain range`.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            // camelCase boundary: previous lowercase, current uppercase.
            if ch.is_uppercase() && prev_lower && !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            prev_lower = ch.is_lowercase() || ch.is_numeric();
            cur.extend(ch.to_lowercase());
        } else {
            prev_lower = false;
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Full normalisation pipeline: tokenize → drop stopwords → stem.
pub fn normalize(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| !is_stopword(t))
        .map(|t| stem(&t))
        .collect()
}

/// Feed `f` every character trigram of `tok` in order — or the whole
/// token when it has fewer than three characters — each as a slice of
/// the token cut at char boundaries (the encoder's sub-word features,
/// so near-miss spellings still overlap). A slice holds the same bytes
/// as the trigram collected into a `String`, so it hashes the same,
/// without allocating.
pub(crate) fn for_each_trigram(tok: &str, mut f: impl FnMut(&str)) {
    // `starts` holds the byte offsets of the last three chars seen; each
    // further char boundary (or the end) closes the trigram they start.
    let mut starts = [0usize; 3];
    let mut bounds = 0;
    for end in tok
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(tok.len()))
    {
        if bounds >= 3 {
            f(&tok[starts[0]..end]);
        }
        starts = [starts[1], starts[2], end];
        bounds += 1;
    }
    if bounds < 4 {
        f(tok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_freebase_path() {
        assert_eq!(
            tokenize("/people/person/place_of_birth"),
            ["people", "person", "place", "of", "birth"]
        );
    }

    #[test]
    fn tokenize_screaming_snake() {
        assert_eq!(tokenize("COMES_WITH"), ["comes", "with"]);
    }

    #[test]
    fn tokenize_camel_case() {
        assert_eq!(tokenize("MountainRange"), ["mountain", "range"]);
        assert_eq!(tokenize("placeOfBirth"), ["place", "of", "birth"]);
    }

    #[test]
    fn normalize_drops_stopwords_and_stems() {
        assert_eq!(normalize("the lakes of America"), ["lake", "america"]);
        assert_eq!(normalize("place of birth"), ["place", "birth"]);
    }

    #[test]
    fn stem_guards_short_words() {
        assert_eq!(stem("born"), "born");
        assert_eq!(stem("was"), "was"); // too short to strip
        assert_eq!(stem("glasses"), "glass");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("lakes"), "lake");
        assert_eq!(stem("countries"), "country");
        assert_eq!(stem("covering"), "cover");
        assert_eq!(stem("covered"), "cover");
        assert_eq!(stem("glass"), "glass");
        assert_eq!(stem("status"), "status");
    }

    #[test]
    fn trigrams_slice_at_char_boundaries() {
        let grams = |tok: &str| {
            let mut out = Vec::new();
            for_each_trigram(tok, |g| out.push(g.to_string()));
            out
        };
        assert_eq!(grams("abcd"), ["abc", "bcd"]);
        assert_eq!(grams("abc"), ["abc"]);
        assert_eq!(grams("ab"), ["ab"]);
        assert_eq!(grams(""), [""]);
        assert_eq!(grams("kovács"), ["kov", "ová", "vác", "ács"]);
        assert_eq!(grams("𝔘𝔫𝔦𝔠"), ["𝔘𝔫𝔦", "𝔫𝔦𝔠"]);
        assert_eq!(grams("😀😀"), ["😀😀"]);
    }

    #[test]
    fn unicode_tokens_survive() {
        assert_eq!(tokenize("Kovács Kati"), ["kovács", "kati"]);
    }
}
