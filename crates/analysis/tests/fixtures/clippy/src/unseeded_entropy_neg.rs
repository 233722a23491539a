//! Negative: a seeded, named stream in library code.

pub fn jitter(seed: u64) -> f64 {
    let mut rng = idse_sim::RngStream::derive(seed, "traffic-jitter");
    rng.unit()
}
