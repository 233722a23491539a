//! Negative: the sanctioned forms — Result returns, expect with an
//! invariant message, unwrap_or defaults — and unwrap inside tests.

pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}

pub fn head(xs: &[u32]) -> u32 {
    *xs.first().expect("caller guarantees a non-empty slice")
}

pub fn head_or_zero(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let xs = [1u32];
        assert_eq!(*xs.first().unwrap(), 1);
    }
}
