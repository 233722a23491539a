//! Negative: sim-time arithmetic only; `Instant` appears solely inside a
//! string literal.

pub fn advance(now_nanos: u64, step_nanos: u64) -> u64 {
    now_nanos + step_nanos
}

pub fn label() -> &'static str {
    "wall-clock types like Instant are banned here"
}
