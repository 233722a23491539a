//! Positive: exact equality against a float operand in library code, with
//! an `as f64` cast on the left-hand side.

#[expect(clippy::float_cmp)]
pub fn drifted(n: usize, target: f64) -> bool {
    n as f64 != target
}
