//! Positive: raw threading and channel primitives outside idse-exec.
//! Fires even inside the test module — scheduling-dependent tests encode
//! nondeterminism as "expected" behavior.
use std::sync::mpsc;
use std::thread;

pub fn fan_out(items: Vec<u64>) -> Vec<u64> {
    #[expect(clippy::disallowed_methods)]
    let (tx, rx) = mpsc::channel();
    for item in items {
        let tx = tx.clone();
        #[expect(clippy::disallowed_methods)]
        thread::spawn(move || tx.send(item * 2));
    }
    drop(tx);
    rx.iter().collect() // completion order, not input order!
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(clippy::disallowed_methods)]
    fn scoped_worker() {
        std::thread::scope(|s| {
            s.spawn(|| 1 + 1);
        });
    }
}
