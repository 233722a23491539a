//! Negative: integer equality, tolerance comparison, ordering operators,
//! and exact float compares inside tests (legitimate determinism
//! assertions).

pub fn counts_match(a: usize, b: usize) -> bool {
    a == b
}

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9
}

pub fn at_least(x: f64) -> bool {
    x >= 0.25
}

#[cfg(test)]
mod tests {
    use super::close;

    #[test]
    fn determinism_assertions_compare_exactly() {
        let run = 0.125_f64;
        assert!(run == 0.125);
        assert!(close(run, run));
    }
}
