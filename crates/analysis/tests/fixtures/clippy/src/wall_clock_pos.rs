//! Positive: wall-clock time. Fires even inside the test module — timing
//! assertions must also be in sim time.

#[expect(clippy::disallowed_types)]
use std::time::Instant;

#[expect(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn measure() -> u128 {
    let t0 = Instant::now();
    t0.elapsed().as_nanos()
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_methods)]
    fn timing_with_wall_clock() {
        let t = std::time::SystemTime::now();
        assert!(t.elapsed().is_ok());
    }
}
