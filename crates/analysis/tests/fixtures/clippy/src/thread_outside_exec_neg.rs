//! Negative: parallelism routed through the executor; thread tokens appear
//! only inside a string literal.

pub fn fan_out(exec: &idse_exec::Executor, items: &[u64]) -> Vec<u64> {
    exec.par_map(items, |_, item| item * 2)
}

pub fn label() -> &'static str {
    "raw thread::spawn and mpsc::channel calls are banned here"
}
