//! Positive: hash-ordered containers in a report-path library file.

#[expect(clippy::disallowed_types)]
use std::collections::HashMap;

#[expect(clippy::disallowed_types)]
pub fn histogram(names: &[String]) -> HashMap<String, usize> {
    let mut h = HashMap::new();
    for n in names {
        *h.entry(n.clone()).or_insert(0) += 1;
    }
    h
}

#[expect(clippy::disallowed_types)]
pub fn flagged() -> std::collections::HashSet<u32> {
    std::collections::HashSet::new()
}
