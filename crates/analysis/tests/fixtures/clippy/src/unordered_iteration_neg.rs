//! Negative: ordered containers in report code, and hash containers only
//! inside test regions (scratch state whose order never reaches a report).
use std::collections::{BTreeMap, BTreeSet};

pub fn histogram(names: &[String]) -> BTreeMap<String, usize> {
    let mut h = BTreeMap::new();
    for n in names {
        *h.entry(n.clone()).or_insert(0) += 1;
    }
    h
}

pub fn flagged() -> BTreeSet<u32> {
    BTreeSet::new()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn scratch_state_may_hash() {
        let mut seen: HashMap<u32, bool> = HashMap::new();
        seen.insert(1, true);
        assert!(seen[&1]);
    }
}
