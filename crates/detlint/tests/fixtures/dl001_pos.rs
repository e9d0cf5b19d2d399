// Positive DL001 fixture: hash iteration feeding an output path with
// no order-insensitive sink.
use std::collections::HashMap;

pub fn label_report(names: &[String]) -> Vec<String> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for n in names {
        *counts.entry(n.clone()).or_default() += 1;
    }
    let mut out = Vec::new();
    for (name, c) in counts.iter() {
        out.push(format!("{name}: {c}"));
    }
    out
}
