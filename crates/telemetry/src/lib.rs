//! Deterministic, sim-time-stamped telemetry for the evaluation pipeline.
//!
//! The paper's methodology lives or dies on *scientific repeatability*:
//! the same seed must produce the same run, whether or not anyone is
//! watching. This crate therefore provides observability that is
//!
//! * **sim-time native** — every event carries the simulation clock
//!   (nanoseconds), never the wall clock, so traces from two machines
//!   with the same seed are byte-identical;
//! * **zero-effect** — recording never influences the run. A disabled
//!   handle ([`Telemetry::disabled`]) is a single `Option` check per
//!   call site, and no instrumented code path branches on what was
//!   recorded;
//! * **bounded** — the in-memory sink is a fixed-capacity ring buffer
//!   that drops its oldest events (and counts the drops) instead of
//!   growing without limit during long sweeps.
//!
//! The crate sits below the simulation: it cannot depend on `idse-sim`
//! (which itself records into it), so timestamps are raw [`SimNanos`] —
//! the same `u64` nanosecond value `idse_sim::SimTime::as_nanos` yields.
//! Its only dependency is `serde`, so [`summary::TelemetrySummary`] can
//! be folded into persisted run headers.
//!
//! # Anatomy
//!
//! [`Telemetry`] is a cheaply cloneable handle shared by every layer of
//! a run (simulation kernel, IDS pipeline, evaluation harness). Events
//! flow into a swappable [`Sink`]:
//!
//! * [`NoopSink`] — discards everything (useful to measure the cost of
//!   the enabled path itself);
//! * [`MemorySink`] — bounded ring buffer, readable back for
//!   aggregation via [`summary::summarize`] (`evaluate --telemetry-out`
//!   writes its JSONL from this sink's snapshot);
//! * [`ChannelSink`] — bounded, drainable conveyor for live consumers (the
//!   daemon's `watch` feed).
//!
//! ```
//! use idse_telemetry::{MemorySink, Telemetry};
//!
//! let sink = MemorySink::new(1024);
//! let tel = Telemetry::new(sink.clone());
//! tel.span(500, 1_500, "stage.sense");
//! tel.counter(1_500, "pipeline.alert", 1);
//! tel.gauge(2_000, "queue.depth", 3.0);
//! assert_eq!(sink.events().len(), 4); // enter + exit + counter + gauge
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

use std::fmt;
use std::sync::{Arc, Mutex};

/// Simulation-clock nanoseconds (`idse_sim::SimTime::as_nanos`).
pub type SimNanos = u64;

/// What a single telemetry event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named region of sim-time began (`value` is 0).
    SpanEnter,
    /// The region ended; `value` is its duration in nanoseconds.
    SpanExit,
    /// A monotonic counter advanced; `value` is the (positive) delta.
    Counter,
    /// A sampled instantaneous level; `value` is the sample.
    Gauge,
}

impl EventKind {
    /// Stable lowercase name used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
        }
    }
}

/// One recorded telemetry event.
///
/// Names are `&'static str` by design: keys are a closed, compile-time
/// vocabulary (e.g. `"stage.sense"`), which keeps recording
/// allocation-free and makes aggregation a pointer-cheap group-by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub at: SimNanos,
    pub name: &'static str,
    /// Which stream the event belongs to (e.g. the product under
    /// evaluation when four evaluations share one sink). `""` when the
    /// recording handle was never scoped.
    pub scope: &'static str,
    pub kind: EventKind,
    pub value: f64,
}

impl Event {
    /// Render as a single JSON object (one JSONL line, no trailing
    /// newline). Field order is fixed, so output is deterministic.
    pub fn to_jsonl(&self) -> String {
        // Names and scopes are static identifiers (no quotes/control
        // characters), so they embed without escaping.
        format!(
            r#"{{"at":{},"kind":"{}","name":"{}","scope":"{}","value":{}}}"#,
            self.at,
            self.kind.label(),
            self.name,
            self.scope,
            fmt_value(self.value)
        )
    }
}

/// Format an f64 the way serde_json would: integral values keep `.0`.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Destination for recorded events.
pub trait Sink: Send {
    fn record(&mut self, event: &Event);

    /// A copy of the retained events, oldest first, when the sink keeps
    /// any (conveyors such as [`ChannelSink`] return `None`). Lets a run
    /// fold its own telemetry into a persisted summary without holding a
    /// second reference to the concrete sink.
    fn snapshot(&self) -> Option<Vec<Event>> {
        None
    }

    /// How many events this sink has evicted or discarded (`0` for
    /// sinks that never evict).
    fn dropped_count(&self) -> u64 {
        0
    }
}

/// Discards every event. Lets benchmarks measure the overhead of the
/// *enabled* telemetry path separate from sink costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&mut self, _event: &Event) {}
}

/// Bounded ring buffer of events, shared across clones.
///
/// When full, the oldest event is dropped and counted — a long sweep
/// can never exhaust memory through observability.
#[derive(Debug, Clone)]
pub struct MemorySink {
    shared: Arc<Mutex<MemoryBuffer>>,
}

#[derive(Debug)]
struct MemoryBuffer {
    events: std::collections::VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            shared: Arc::new(Mutex::new(MemoryBuffer {
                events: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let buf = self.shared.lock().expect("telemetry buffer lock");
        buf.events.iter().copied().collect()
    }

    /// How many events were evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.shared.lock().expect("telemetry buffer lock").dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("telemetry buffer lock").events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        let mut buf = self.shared.lock().expect("telemetry buffer lock");
        if buf.events.len() == buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(*event);
    }

    fn snapshot(&self) -> Option<Vec<Event>> {
        Some(self.events())
    }

    fn dropped_count(&self) -> u64 {
        self.dropped()
    }
}

/// A drainable event channel for *live* streaming to a consumer on
/// another thread (the evaluation daemon's `watch` feed).
///
/// Producers record through the [`Sink`] impl; a consumer periodically
/// calls [`ChannelSink::drain`], which *removes* the buffered events and
/// hands them over, oldest first. Unlike [`MemorySink`], this sink is a
/// conveyor, not a recorder: [`Sink::snapshot`] intentionally returns
/// `None`, because what a snapshot would see depends on how recently the
/// consumer drained — a wall-clock accident that must never leak into a
/// persisted run header. The buffer is bounded; when the consumer falls
/// behind, the oldest undelivered events are dropped and counted.
#[derive(Debug, Clone)]
pub struct ChannelSink {
    shared: Arc<Mutex<MemoryBuffer>>,
}

impl ChannelSink {
    /// A channel buffering at most `capacity` undelivered events (min 1).
    pub fn new(capacity: usize) -> Self {
        ChannelSink {
            shared: Arc::new(Mutex::new(MemoryBuffer {
                events: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// Take every buffered event, oldest first, leaving the channel
    /// empty. Returns an empty vector when nothing arrived since the
    /// last drain.
    pub fn drain(&self) -> Vec<Event> {
        let mut buf = self.shared.lock().expect("telemetry channel lock");
        buf.events.drain(..).collect()
    }

    /// Undelivered events currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("telemetry channel lock").events.len()
    }

    /// Whether the channel is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the consumer fell behind.
    pub fn dropped(&self) -> u64 {
        self.shared.lock().expect("telemetry channel lock").dropped
    }
}

impl Sink for ChannelSink {
    fn record(&mut self, event: &Event) {
        let mut buf = self.shared.lock().expect("telemetry channel lock");
        if buf.events.len() == buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(*event);
    }

    // snapshot() stays `None` (the trait default): a drained channel's
    // contents are timing-dependent, so nothing here may feed a
    // deterministic run summary.

    fn dropped_count(&self) -> u64 {
        self.dropped()
    }
}

/// Shared recording handle. Clone freely; all clones feed one sink.
///
/// The default handle is disabled: every record call reduces to one
/// `Option` discriminant check and the event is never constructed.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Box<dyn Sink>>>>,
    scope: &'static str,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("scope", &self.scope)
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing and costs (almost) nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None, scope: "" }
    }

    /// A handle recording into `sink`.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Telemetry { inner: Some(Arc::new(Mutex::new(Box::new(sink)))), scope: "" }
    }

    /// A clone of this handle whose events carry `scope` — used to keep
    /// concurrent streams (one per evaluated product) separable in a
    /// shared sink.
    pub fn with_scope(&self, scope: &'static str) -> Self {
        Telemetry { inner: self.inner.clone(), scope }
    }

    /// The scope attached to events from this handle (`""` = unscoped).
    pub fn scope(&self) -> &'static str {
        self.scope
    }

    /// Whether events are being recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn record(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("telemetry sink lock").record(&event);
        }
    }

    /// Mark entry into a named sim-time region.
    #[inline]
    pub fn span_enter(&self, at: SimNanos, name: &'static str) {
        if self.inner.is_none() {
            return;
        }
        self.record(Event { at, name, scope: self.scope, kind: EventKind::SpanEnter, value: 0.0 });
    }

    /// Mark exit from a named region entered at `entered`.
    #[inline]
    pub fn span_exit(&self, at: SimNanos, entered: SimNanos, name: &'static str) {
        if self.inner.is_none() {
            return;
        }
        self.record(Event {
            at,
            name,
            scope: self.scope,
            kind: EventKind::SpanExit,
            value: at.saturating_sub(entered) as f64,
        });
    }

    /// Record a completed region in one call (enter + exit pair).
    #[inline]
    pub fn span(&self, start: SimNanos, end: SimNanos, name: &'static str) {
        if self.inner.is_none() {
            return;
        }
        self.span_enter(start, name);
        self.span_exit(end, start, name);
    }

    /// Advance a monotonic counter by `delta`.
    #[inline]
    pub fn counter(&self, at: SimNanos, name: &'static str, delta: u64) {
        if self.inner.is_none() {
            return;
        }
        self.record(Event {
            at,
            name,
            scope: self.scope,
            kind: EventKind::Counter,
            value: delta as f64,
        });
    }

    /// Record an instantaneous sampled level (queue depth, utilization).
    #[inline]
    pub fn gauge(&self, at: SimNanos, name: &'static str, value: f64) {
        if self.inner.is_none() {
            return;
        }
        self.record(Event { at, name, scope: self.scope, kind: EventKind::Gauge, value });
    }

    /// A copy of the events the sink retains ([`Sink::snapshot`]):
    /// `None` when disabled or when the sink streams without retaining.
    pub fn snapshot_events(&self) -> Option<Vec<Event>> {
        self.inner.as_ref().and_then(|inner| inner.lock().expect("telemetry sink lock").snapshot())
    }

    /// How many events the sink has discarded ([`Sink::dropped_count`]).
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().expect("telemetry sink lock").dropped_count())
    }

    /// Record a pre-built event verbatim — scope and timestamp are taken
    /// from the event, not from this handle. This is the replay primitive
    /// behind [`JobRecorder::merge_into`]: buffered events keep the scope
    /// they were recorded under when they are merged into a shared sink.
    #[inline]
    pub fn emit(&self, event: Event) {
        self.record(event);
    }
}

/// A per-job buffered recorder for deterministic parallel execution.
///
/// Concurrent jobs recording straight into one shared sink interleave by
/// scheduling order, which would make the retained stream depend on the
/// worker count. A `JobRecorder` gives each job a private bounded buffer
/// instead: the job records through [`JobRecorder::handle`], and when the
/// executor merges results in canonical job order it calls
/// [`JobRecorder::merge_into`], replaying the buffered events into the
/// shared sink. The merged stream is therefore byte-identical for any
/// number of workers.
///
/// A recorder forked from a disabled parent is itself disabled and costs
/// nothing.
#[derive(Debug)]
pub struct JobRecorder {
    buffer: Option<MemorySink>,
    handle: Telemetry,
}

impl JobRecorder {
    /// Fork a buffered recorder from `parent`, tagging events with
    /// `scope` (pass `parent.scope()` to inherit). Holds at most
    /// `capacity` events; older events are evicted and counted.
    pub fn fork(parent: &Telemetry, scope: &'static str, capacity: usize) -> Self {
        if !parent.enabled() {
            return JobRecorder { buffer: None, handle: Telemetry::disabled() };
        }
        let buffer = MemorySink::new(capacity);
        let handle = Telemetry::new(buffer.clone()).with_scope(scope);
        JobRecorder { buffer: Some(buffer), handle }
    }

    /// The recording handle the job should use.
    pub fn handle(&self) -> Telemetry {
        self.handle.clone()
    }

    /// Events evicted from the job buffer because it was full.
    pub fn dropped(&self) -> u64 {
        self.buffer.as_ref().map_or(0, MemorySink::dropped)
    }

    /// Replay the buffered events, in recording order, into `target`.
    /// Returns how many events were merged.
    pub fn merge_into(self, target: &Telemetry) -> u64 {
        let Some(buffer) = self.buffer else { return 0 };
        let events = buffer.events();
        for event in &events {
            target.emit(*event);
        }
        events.len() as u64
    }
}

pub mod summary;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_is_cheap() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.counter(1, "x", 1);
        tel.gauge(2, "y", 3.0);
        tel.span(0, 5, "z");
        // Nothing to observe — the point is simply that none of the
        // calls panic or allocate a sink.
    }

    #[test]
    fn memory_sink_round_trip() {
        let sink = MemorySink::new(16);
        let tel = Telemetry::new(sink.clone());
        assert!(tel.enabled());
        tel.span(100, 250, "stage.sense");
        tel.counter(250, "pipeline.alert", 2);
        tel.gauge(300, "queue.depth", 7.0);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::SpanEnter);
        assert_eq!(events[1].kind, EventKind::SpanExit);
        assert_eq!(events[1].value, 150.0);
        assert_eq!(events[2].name, "pipeline.alert");
        assert_eq!(events[3].value, 7.0);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let sink = MemorySink::new(4);
        let tel = Telemetry::new(sink.clone());
        for i in 0..10u64 {
            tel.counter(i, "c", 1);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        // Oldest events were evicted: the survivors are the last four.
        assert_eq!(sink.events()[0].at, 6);
    }

    #[test]
    fn clones_share_one_sink() {
        let sink = MemorySink::new(64);
        let tel = Telemetry::new(sink.clone());
        let tel2 = tel.clone();
        tel.counter(1, "a", 1);
        tel2.counter(2, "b", 1);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn jsonl_lines_are_deterministic() {
        let ev = Event {
            at: 1_500,
            name: "stage.analyze",
            scope: "NidSentry NS-5",
            kind: EventKind::SpanExit,
            value: 250.0,
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"at":1500,"kind":"span_exit","name":"stage.analyze","scope":"NidSentry NS-5","value":250.0}"#
        );
    }

    #[test]
    fn scoped_clones_tag_events_and_share_the_sink() {
        let sink = MemorySink::new(16);
        let tel = Telemetry::new(sink.clone());
        let scoped = tel.with_scope("product-a");
        tel.counter(1, "c", 1);
        scoped.counter(2, "c", 1);
        let events = sink.events();
        assert_eq!(events[0].scope, "");
        assert_eq!(events[1].scope, "product-a");
        assert_eq!(scoped.scope(), "product-a");
        assert!(scoped.enabled());
    }

    #[test]
    fn job_recorder_buffers_and_merges_in_order() {
        let sink = MemorySink::new(64);
        let parent = Telemetry::new(sink.clone());
        let fork = JobRecorder::fork(&parent, "job-b", 16);
        let handle = fork.handle();
        handle.counter(5, "c", 1);
        handle.gauge(7, "g", 2.0);
        // Nothing reaches the parent until the merge.
        assert_eq!(sink.len(), 0);
        assert_eq!(fork.merge_into(&parent), 2);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "c");
        assert_eq!(events[0].scope, "job-b", "merged events keep their recorded scope");
        assert_eq!(events[1].name, "g");
    }

    #[test]
    fn job_recorder_from_disabled_parent_is_disabled() {
        let fork = JobRecorder::fork(&Telemetry::disabled(), "job", 16);
        assert!(!fork.handle().enabled());
        fork.handle().counter(1, "c", 1);
        assert_eq!(fork.dropped(), 0);
        assert_eq!(fork.merge_into(&Telemetry::disabled()), 0);
    }

    #[test]
    fn job_recorder_buffer_is_bounded() {
        let sink = MemorySink::new(64);
        let parent = Telemetry::new(sink.clone());
        let fork = JobRecorder::fork(&parent, "job", 2);
        let handle = fork.handle();
        for i in 0..5u64 {
            handle.counter(i, "c", 1);
        }
        assert_eq!(fork.dropped(), 3);
        assert_eq!(fork.merge_into(&parent), 2);
        assert_eq!(sink.events()[0].at, 3);
    }

    #[test]
    fn emit_preserves_event_scope() {
        let sink = MemorySink::new(8);
        let tel = Telemetry::new(sink.clone()).with_scope("mine");
        tel.emit(Event { at: 9, name: "x", scope: "theirs", kind: EventKind::Counter, value: 1.0 });
        assert_eq!(sink.events()[0].scope, "theirs");
    }

    #[test]
    fn snapshot_reaches_through_the_handle() {
        let sink = MemorySink::new(2);
        let tel = Telemetry::new(sink.clone());
        for i in 0..3u64 {
            tel.counter(i, "c", 1);
        }
        let events = tel.snapshot_events().expect("memory sink retains events");
        assert_eq!(events.len(), 2);
        assert_eq!(tel.dropped_events(), 1);
        assert!(Telemetry::disabled().snapshot_events().is_none());
        assert_eq!(Telemetry::disabled().dropped_events(), 0);
    }

    #[test]
    fn channel_sink_drains_in_order_and_then_is_empty() {
        let chan = ChannelSink::new(16);
        let tel = Telemetry::new(chan.clone()).with_scope("job-1");
        tel.counter(1, "a", 1);
        tel.gauge(2, "b", 0.5);
        assert_eq!(chan.len(), 2);
        let first = chan.drain();
        assert_eq!(first.len(), 2);
        assert_eq!((first[0].name, first[0].scope), ("a", "job-1"));
        assert_eq!(first[1].name, "b");
        assert!(chan.is_empty());
        assert!(chan.drain().is_empty(), "a second drain sees nothing new");
        tel.counter(3, "c", 1);
        assert_eq!(chan.drain().len(), 1, "later events arrive in the next drain");
    }

    #[test]
    fn channel_sink_never_snapshots_and_bounds_its_lag() {
        let chan = ChannelSink::new(2);
        let tel = Telemetry::new(chan.clone());
        for i in 0..5u64 {
            tel.counter(i, "c", 1);
        }
        assert!(tel.snapshot_events().is_none(), "a conveyor must not feed run summaries");
        assert_eq!(chan.dropped(), 3);
        assert_eq!(tel.dropped_events(), 3);
        let survivors = chan.drain();
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors[0].at, 3, "oldest undelivered events are the ones dropped");
    }
}
