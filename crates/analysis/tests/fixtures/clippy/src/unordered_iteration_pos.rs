//! Positive: hash-ordered containers. Banned in every crate, and even
//! inside the test module: a test that iterates in hash order encodes
//! nondeterminism as expected behavior.

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

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_types)]
    fn scratch_state_in_hash_order() {
        let seen: std::collections::HashSet<u32> = [1, 2].into_iter().collect();
        assert_eq!(seen.len(), 2);
    }
}
