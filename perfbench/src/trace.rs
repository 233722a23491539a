//! Wall-clock spans recorded around the benchmark's calls into each
//! layer. Spans live in memory and are written out once, when the run
//! ends, so recording costs a clock read and a push.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One layer-table row: span name, count, total seconds, self seconds.
pub type LayerRow = (String, usize, f64, f64);

/// One finished span: seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn interval(&self) -> (f64, f64) {
        (self.start, self.end)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder shared by the benchmark's worker threads.
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        let span = Span { id, parent, name: name.to_owned(), start, end };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Sum of the durations of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::duration).fold(0.0, |a, d| a + d)
    }

    /// Longest single span named `name` (0 when there is none).
    pub fn longest(&self, name: &str) -> f64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::duration).fold(0.0, f64::max)
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }

    /// Share of span `root` covered by the leaf spans beneath it — the
    /// check that the traced layers add up to the traced whole.
    pub fn leaf_coverage(&self, root: SpanId) -> f64 {
        let spans = self.spans();
        let Some(root_span) = spans.iter().find(|s| s.id == root) else { return 0.0 };
        let leaves: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| descends_from(&spans, s, root))
            .filter(|s| !spans.iter().any(|c| c.parent == Some(s.id)))
            .map(Span::interval)
            .collect();
        stats::coverage(root_span.interval(), &leaves)
    }

    /// Per span name: call count, total time and self time (total minus
    /// the time its children cover), in first-seen order.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let spans = self.spans();
        let mut rows: Vec<LayerRow> = Vec::new();
        for span in &spans {
            let children: Vec<(f64, f64)> =
                spans.iter().filter(|c| c.parent == Some(span.id)).map(Span::interval).collect();
            let own = stats::self_time(span.interval(), &children);
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration();
                    row.3 += own;
                }
                None => rows.push((span.name.clone(), 1, span.duration(), own)),
            }
        }
        rows
    }

    /// Every span as one JSON line: run id, span id, parent, name, start
    /// and end in seconds since the run's tracer started.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":{:?},\"id\":{},\"parent\":{},\"name\":{:?},\"start_s\":{},\"end_s\":{}}}\n",
                self.run_id, s.id, parent, s.name, s.start, s.end
            ));
        }
        out
    }
}

fn descends_from(spans: &[Span], span: &Span, root: SpanId) -> bool {
    let mut parent = span.parent;
    while let Some(p) = parent {
        if p == root {
            return true;
        }
        parent = spans.iter().find(|s| s.id == p).and_then(|s| s.parent);
    }
    false
}

/// Run `job` over every item on `workers` threads, each claiming the
/// next unclaimed item, and return the outputs in item order.
pub fn pool<T: Sync, O: Send>(workers: usize, items: &[T], job: impl Fn(&T) -> O + Sync) -> Vec<O> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = job(item);
                done.lock().expect("pool output lock").push((i, out));
            });
        }
    });
    let mut done = done.into_inner().expect("pool output lock");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover_their_root() {
        let tracer = Tracer::new("test".into());
        let root = tracer.span(None, "root", |root| {
            tracer.span(Some(root), "mid", |mid| {
                tracer.span(Some(mid), "leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
            root
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let coverage = tracer.leaf_coverage(root);
        assert!(coverage > 0.5 && coverage <= 1.0, "{coverage}");
        let table = tracer.layer_table();
        let mid = table.iter().find(|r| r.0 == "mid").unwrap();
        assert!(mid.3 < mid.2, "mid's self time excludes its leaf");
        assert!(tracer.to_jsonl().lines().all(|l| l.contains("\"run\":\"test\"")));
    }

    #[test]
    fn pool_returns_outputs_in_item_order() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(pool(2, &items, |&x| x * 2), items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }
}
