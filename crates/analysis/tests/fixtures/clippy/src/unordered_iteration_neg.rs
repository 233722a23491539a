//! Negative: ordered containers, in library code and in tests alike.
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
    use std::collections::BTreeMap;

    #[test]
    fn scratch_state_is_ordered() {
        let mut seen: BTreeMap<u32, bool> = BTreeMap::new();
        seen.insert(1, true);
        assert!(seen[&1]);
    }
}
