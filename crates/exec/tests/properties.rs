//! Property tests for the executor's ordering guarantee.
//!
//! The invariant the whole crate rests on: a fan-out hands its outputs
//! back in job order, whatever order the workers finish them in. So a
//! fold over them — a float sum, whose result depends on the order of its
//! terms — gives the same bits at every worker count.

use idse_exec::Executor;
use proptest::prelude::*;

proptest! {
    /// `par_map` and `ordered_fan_out` return job `i`'s output at index `i`
    /// at every width, also when the outputs themselves collide.
    #[test]
    fn par_map_returns_input_order_at_any_width(
        outputs in prop::collection::vec(0u64..8, 1..64),
        workers in 2usize..5,
    ) {
        let exec = Executor::new(workers);
        let mapped = exec.par_map(&outputs, |i, &v| (i, v));
        let fanned: Vec<(usize, u64)> = exec.ordered_fan_out(
            outputs.iter().copied().enumerate(),
            |job| job,
            |done| done.collect(),
        );
        let expected: Vec<(usize, u64)> = outputs.iter().copied().enumerate().collect();
        prop_assert_eq!(&mapped, &expected);
        prop_assert_eq!(&fanned, &expected);
    }

    /// A float sum over fan-out output is bit-identical at 1 and N workers.
    #[test]
    fn float_sum_over_fan_out_is_width_invariant(
        terms in prop::collection::vec(-1.0e12f64..1.0e12, 1..128),
        workers in 2usize..5,
    ) {
        let sum_at = |exec: Executor| -> f64 {
            exec.ordered_fan_out(terms.iter().copied(), |t| t * 1.5, |done| done.sum())
        };
        prop_assert_eq!(sum_at(Executor::serial()).to_bits(), sum_at(Executor::new(workers)).to_bits());
    }
}
