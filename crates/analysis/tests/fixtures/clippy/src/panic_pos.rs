//! Positive: panicking calls in non-test library code.

#[expect(clippy::unwrap_used)]
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn unreachable_branch(x: u32) -> u32 {
    match x {
        0 => 1,
        #[expect(clippy::panic)]
        _ => panic!("unhandled"),
    }
}

#[expect(clippy::todo)]
pub fn later() -> u32 {
    todo!()
}
