//! Aggregation of recorded events into a per-stage report.
//!
//! [`summarize`] folds an event slice (typically a [`MemorySink`]
//! snapshot) into per-name statistics:
//!
//! * **spans** → count, total/mean/p50/p95/max duration, and occupancy
//!   (fraction of the observed sim-time window spent inside the span —
//!   the per-stage busy fraction that locates the throughput knee);
//! * **counters** → total plus first/last advance time (so e.g.
//!   time-to-first-alert falls out of the `pipeline.alert` counter);
//! * **gauges** → sample count, min/mean/p50/p95/max, last value.
//!
//! Everything is computed from sim-time stamps, so two summaries of the
//! same seeded run are identical.
//!
//! [`MemorySink`]: crate::MemorySink

use crate::{Event, EventKind, SimNanos};
use serde::Serialize;
use std::collections::BTreeMap;

/// Statistics for one named span (pipeline stage).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanStats {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub max_ns: u64,
    /// Fraction of the observed window spent inside this span. Can
    /// exceed 1.0 when the stage has parallel servers.
    pub occupancy: f64,
}

/// Statistics for one monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterStats {
    pub name: &'static str,
    pub total: f64,
    pub first_at: SimNanos,
    pub last_at: SimNanos,
}

/// Statistics for one sampled gauge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeStats {
    pub name: &'static str,
    pub samples: u64,
    pub min: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
    pub last: f64,
}

/// The aggregated view of one run's telemetry.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TelemetrySummary {
    /// Sim-time extent of the observed events (first..last stamp).
    pub window_ns: u64,
    /// Events the ring buffer evicted before this summary was taken —
    /// nonzero means the statistics below describe a truncated window
    /// and should be read with suspicion. [`summarize`] cannot see the
    /// sink and leaves it 0; the caller sets it from the sink's eviction
    /// count.
    pub dropped_events: u64,
    pub spans: Vec<SpanStats>,
    pub counters: Vec<CounterStats>,
    pub gauges: Vec<GaugeStats>,
}

impl TelemetrySummary {
    /// Look up a span by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<&CounterStats> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeStats> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Render a fixed-width text report (deterministic ordering).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry summary (window {:.3} ms sim-time)\n",
            self.window_ns as f64 / 1e6
        ));
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "  dropped_events {:>26} (ring buffer evicted; stats cover a truncated window)\n",
                self.dropped_events
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "  {:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>8}\n",
                "span", "count", "mean", "p50", "p95", "max", "occup"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<28} {:>8} {:>11} {:>11} {:>11} {:>11} {:>7.1}%\n",
                    s.name,
                    s.count,
                    fmt_ns(s.mean_ns),
                    fmt_ns(s.p50_ns as f64),
                    fmt_ns(s.p95_ns as f64),
                    fmt_ns(s.max_ns as f64),
                    s.occupancy * 100.0
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!(
                "  {:<28} {:>12} {:>14} {:>14}\n",
                "counter", "total", "first", "last"
            ));
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<28} {:>12} {:>14} {:>14}\n",
                    c.name,
                    c.total,
                    fmt_ns(c.first_at as f64),
                    fmt_ns(c.last_at as f64)
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!(
                "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "gauge", "samples", "min", "mean", "p50", "p95", "max"
            ));
            for g in &self.gauges {
                out.push_str(&format!(
                    "  {:<28} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}\n",
                    g.name, g.samples, g.min, g.mean, g.p50, g.p95, g.max
                ));
            }
        }
        out
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Fold raw events into a [`TelemetrySummary`].
pub fn summarize(events: &[Event]) -> TelemetrySummary {
    if events.is_empty() {
        return TelemetrySummary::default();
    }
    let mut lo = SimNanos::MAX;
    let mut hi = 0;
    // BTreeMap keyed by name gives deterministic, alphabetic report order.
    let mut span_durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, CounterStats> = BTreeMap::new();
    let mut gauges: BTreeMap<&'static str, Vec<(SimNanos, f64)>> = BTreeMap::new();

    for ev in events {
        lo = lo.min(ev.at);
        hi = hi.max(ev.at);
        match ev.kind {
            EventKind::SpanEnter => {}
            EventKind::SpanExit => {
                span_durations.entry(ev.name).or_default().push(ev.value as u64);
            }
            EventKind::Counter => {
                let entry = counters.entry(ev.name).or_insert(CounterStats {
                    name: ev.name,
                    total: 0.0,
                    first_at: ev.at,
                    last_at: ev.at,
                });
                entry.total += ev.value;
                entry.first_at = entry.first_at.min(ev.at);
                entry.last_at = entry.last_at.max(ev.at);
            }
            EventKind::Gauge => {
                gauges.entry(ev.name).or_default().push((ev.at, ev.value));
            }
        }
    }

    let window_ns = hi.saturating_sub(lo).max(1);

    let spans = span_durations
        .into_iter()
        .map(|(name, mut durations)| {
            let count = durations.len() as u64;
            let total_ns: u64 = durations.iter().sum();
            durations.sort_unstable();
            SpanStats {
                name,
                count,
                total_ns,
                mean_ns: total_ns as f64 / count as f64,
                p50_ns: percentile_u64(&durations, 0.50),
                p95_ns: percentile_u64(&durations, 0.95),
                max_ns: *durations.last().unwrap_or(&0),
                occupancy: total_ns as f64 / window_ns as f64,
            }
        })
        .collect();

    let gauges = gauges
        .into_iter()
        .map(|(name, samples)| {
            let last = samples.last().map(|&(_, v)| v).unwrap_or(0.0);
            let mut values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
            values.sort_unstable_by(|a, b| a.total_cmp(b));
            let n = values.len();
            GaugeStats {
                name,
                samples: n as u64,
                min: values.first().copied().unwrap_or(0.0),
                mean: values.iter().sum::<f64>() / n as f64,
                p50: percentile_f64(&values, 0.50),
                p95: percentile_f64(&values, 0.95),
                max: values.last().copied().unwrap_or(0.0),
                last,
            }
        })
        .collect();

    TelemetrySummary {
        window_ns,
        dropped_events: 0,
        spans,
        counters: counters.into_values().collect(),
        gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, Telemetry};

    fn sample_events() -> Vec<Event> {
        let sink = MemorySink::new(1024);
        let tel = Telemetry::new(sink.clone());
        // Two sense spans, one analyze span, alerts, queue-depth gauges.
        tel.span(0, 100, "stage.sense");
        tel.span(200, 500, "stage.sense");
        tel.span(100, 1_100, "stage.analyze");
        tel.counter(900, "pipeline.alert", 1);
        tel.counter(1_000, "pipeline.alert", 2);
        tel.gauge(50, "queue.depth", 1.0);
        tel.gauge(500, "queue.depth", 5.0);
        tel.gauge(1_000, "queue.depth", 3.0);
        sink.events()
    }

    #[test]
    fn spans_aggregate_durations_and_occupancy() {
        let s = summarize(&sample_events());
        let sense = s.span("stage.sense").expect("sense span");
        assert_eq!(sense.count, 2);
        assert_eq!(sense.total_ns, 400);
        assert_eq!(sense.max_ns, 300);
        let analyze = s.span("stage.analyze").expect("analyze span");
        assert_eq!(analyze.count, 1);
        assert_eq!(analyze.total_ns, 1_000);
        // Window is 0..1100; analyze occupies ~91% of it.
        assert!((analyze.occupancy - 1_000.0 / 1_100.0).abs() < 1e-9);
    }

    #[test]
    fn counters_track_total_and_first_last() {
        let s = summarize(&sample_events());
        let alerts = s.counter("pipeline.alert").expect("alert counter");
        assert_eq!(alerts.total, 3.0);
        assert_eq!(alerts.first_at, 900);
        assert_eq!(alerts.last_at, 1_000);
    }

    #[test]
    fn gauges_track_distribution() {
        let s = summarize(&sample_events());
        let depth = s.gauge("queue.depth").expect("depth gauge");
        assert_eq!(depth.samples, 3);
        assert_eq!(depth.min, 1.0);
        assert_eq!(depth.max, 5.0);
        assert_eq!(depth.last, 3.0);
        assert!((depth.mean - 3.0).abs() < 1e-9);
    }

    #[test]
    fn summary_is_deterministic_and_renders() {
        let a = summarize(&sample_events());
        let b = summarize(&sample_events());
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        let text = a.render_text();
        assert!(text.contains("stage.sense"));
        assert!(text.contains("pipeline.alert"));
        assert!(text.contains("queue.depth"));
    }

    #[test]
    fn sink_summary_surfaces_dropped_events() {
        let sink = MemorySink::new(4);
        let tel = Telemetry::new(sink.clone());
        for i in 0..10 {
            tel.counter(i, "pipeline.alert", 1);
        }
        let mut s = summarize(&sink.events());
        s.dropped_events = sink.dropped();
        assert_eq!(s.dropped_events, 6);
        assert!(s.render_text().contains("dropped_events"));

        // A sink that never overflowed reports 0 and stays silent.
        let quiet = MemorySink::new(64);
        Telemetry::new(quiet.clone()).counter(1, "pipeline.alert", 1);
        let mut q = summarize(&quiet.events());
        q.dropped_events = quiet.dropped();
        assert_eq!(q.dropped_events, 0);
        assert!(!q.render_text().contains("dropped_events"));
    }

    #[test]
    fn empty_input_yields_empty_summary() {
        let s = summarize(&[]);
        assert!(s.spans.is_empty() && s.counters.is_empty() && s.gauges.is_empty());
        assert_eq!(s.window_ns, 0);
    }
}
