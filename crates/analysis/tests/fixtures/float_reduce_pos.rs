//! Positive fixture for `unordered-float-reduce`: float accumulation over
//! `par_map` output without `reduce_in_order` — the total depends on
//! worker scheduling because float addition is not associative.

pub fn loop_accumulate(exec: &Executor, xs: &[f64]) -> f64 {
    let parts = exec.par_map(xs, |_, x| x * 2.0);
    let mut total = 0.0;
    for p in &parts {
        total += *p;
    }
    total
}

pub fn iterator_sum(exec: &Executor, cancel: &CancelToken, xs: &[f64]) -> f64 {
    let parts = exec.try_par_map(xs, cancel, |_, x| x * 2.0);
    parts.into_iter().flatten().flatten().sum::<f64>()
}

pub fn fold_accumulate(exec: &Executor, xs: &[f64]) -> f64 {
    let parts = exec.par_map(xs, |_, x| x * 2.0);
    parts.iter().fold(0.0, |acc, x| acc + x)
}
