//! Positive: wall-clock time. Fires even inside the test module — timing
//! assertions must also be in sim time.

#[expect(clippy::disallowed_types)]
use std::time::Instant;

#[expect(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn measure() -> u128 {
    let t0 = Instant::now();
    t0.elapsed().as_nanos()
}

/// Reads the wall clock without naming `now` or the `SystemTime` type:
/// `UNIX_EPOCH` is a constant, so only the `elapsed` ban catches it.
#[expect(clippy::disallowed_methods)]
pub fn since_epoch() -> bool {
    std::time::UNIX_EPOCH.elapsed().is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    fn timing_with_wall_clock() {
        let t = std::time::SystemTime::now();
        assert!(t.elapsed().is_ok());
    }
}
