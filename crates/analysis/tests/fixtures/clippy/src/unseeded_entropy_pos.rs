//! Positive: ambient entropy in non-test library code.

#[expect(clippy::disallowed_types)]
pub fn table() -> std::collections::hash_map::RandomState {
    Default::default()
}
