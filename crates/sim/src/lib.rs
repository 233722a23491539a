//! # idse-sim — deterministic discrete-event simulation kernel
//!
//! The testbed substrate for the `idse` IDS-evaluation framework. The paper
//! (Fink et al., WPDRTS 2002) measured its performance metrics — system
//! throughput, maximal throughput with zero loss, network lethal dose,
//! induced traffic latency, timeliness, operational performance impact — on a
//! physical laboratory network. This crate provides the synthetic equivalent:
//! a deterministic discrete-event simulator with
//!
//! * a nanosecond-resolution virtual clock ([`SimTime`], [`SimDuration`]),
//! * a stable-ordered event queue ([`EventQueue`]) and run loop
//!   ([`Simulation`]),
//! * a host CPU resource model with utilization accounting
//!   ([`host::HostCpu`]),
//! * reproducible, independently-seeded random streams ([`rng::RngStream`]),
//! * online statistics ([`stats`]).
//!
//! The kernel holds no network model of its own. The Figure-1 components
//! (load balancer, sensors, analyzer, monitor) and their finite backlogs are
//! `ServiceStation`s in `idse_ids::components`, wired into the stage chain
//! by `idse_ids::pipeline` on top of this event queue.
//!
//! Determinism is load-bearing: the paper's methodology demands *scientific
//! repeatability* ("Using a standard as the basis for comparison gives us
//! scientific repeatability"), so every experiment in `idse-eval` must be a
//! pure function of its configuration and seed. The kernel therefore breaks
//! simultaneous-event ties by insertion sequence number, never by allocation
//! or hash order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod event;
pub mod host;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, Scheduled};
pub use host::{AuditLevel, HostCpu};
pub use rng::{derive_seed, RngStream};
pub use time::{SimDuration, SimTime};

/// A world that a [`Simulation`] can advance: it receives each event in
/// timestamp order together with a scheduler handle for enqueueing follow-up
/// events.
pub trait World {
    /// The application-defined event payload.
    type Event;

    /// Handle one event at virtual time `now`. New events may be scheduled
    /// through `queue`; they must not be scheduled in the past.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The simulation driver: owns the event queue and repeatedly dispatches the
/// earliest event to the [`World`].
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
    telemetry: idse_telemetry::Telemetry,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Create an empty simulation starting at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
            telemetry: idse_telemetry::Telemetry::disabled(),
        }
    }

    /// How often (in dispatched events) the kernel samples its own
    /// event-queue depth when telemetry is attached.
    pub const QUEUE_DEPTH_SAMPLE_EVERY: u64 = 1024;

    /// Attach a telemetry handle. The kernel samples the pending
    /// event-queue depth (gauge `sim.queue_depth`) every
    /// [`Self::QUEUE_DEPTH_SAMPLE_EVERY`] dispatched events. Recording is
    /// observation-only: it never changes event order or timing.
    pub fn set_telemetry(&mut self, telemetry: idse_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current virtual time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Access the event queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Run until the queue is exhausted or virtual time would exceed `until`.
    ///
    /// Events with timestamp exactly `until` are still dispatched; the first
    /// event strictly beyond it is left in the queue. Returns the number of
    /// events dispatched by this call.
    pub fn run_until<W>(&mut self, world: &mut W, until: SimTime) -> u64
    where
        W: World<Event = E>,
    {
        self.drain(world, until, true)
    }

    /// Run until the queue is exhausted or the next event's timestamp is at
    /// or beyond `before` — the strict counterpart of [`Self::run_until`].
    ///
    /// Chunked drivers need this: before scheduling the next chunk of input
    /// events starting at time `t`, they drain everything strictly earlier
    /// than `t` and leave events *at* `t` queued, so that the new inputs
    /// (which outrank same-time derived events, see
    /// [`EventQueue::schedule_input`]) still dispatch in the order a fully
    /// pre-scheduled run would have used. Returns the number of events
    /// dispatched by this call.
    pub fn run_before<W>(&mut self, world: &mut W, before: SimTime) -> u64
    where
        W: World<Event = E>,
    {
        self.drain(world, before, false)
    }

    fn drain<W>(&mut self, world: &mut W, limit: SimTime, inclusive: bool) -> u64
    where
        W: World<Event = E>,
    {
        let mut count = 0;
        // Per-event dispatch: everything here runs once per simulated
        // event, millions of times per run (`benches/hotpath.rs` guards
        // it as `bench.sim_events_s`).
        while let Some(&Scheduled { at, .. }) = self.queue.peek() {
            if at > limit || (!inclusive && at == limit) {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            debug_assert!(ev.at >= self.now, "event queue yielded an event in the past");
            self.now = ev.at;
            world.handle(self.now, ev.event, &mut self.queue);
            self.dispatched += 1;
            count += 1;
            if self.telemetry.enabled() && self.dispatched % Self::QUEUE_DEPTH_SAMPLE_EVERY == 0 {
                self.telemetry.gauge(
                    self.now.as_nanos(),
                    "sim.queue_depth",
                    self.queue.len() as f64,
                );
            }
        }
        count
    }

    /// Run until the queue is exhausted. Returns the number of events
    /// dispatched by this call.
    pub fn run_to_completion<W>(&mut self, world: &mut W) -> u64
    where
        W: World<Event = E>,
    {
        self.run_until(world, SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        fired: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl World for Counter {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
            self.fired.push((now, event));
            if self.respawn && event < 3 {
                queue.schedule(now + SimDuration::from_micros(10), event + 1);
            }
        }
    }

    #[test]
    fn dispatches_in_time_order() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_micros(30), 3);
        sim.queue_mut().schedule(SimTime::from_micros(10), 1);
        sim.queue_mut().schedule(SimTime::from_micros(20), 2);
        let mut w = Counter { fired: vec![], respawn: false };
        let n = sim.run_to_completion(&mut w);
        assert_eq!(n, 3);
        assert_eq!(
            w.fired,
            vec![
                (SimTime::from_micros(10), 1),
                (SimTime::from_micros(20), 2),
                (SimTime::from_micros(30), 3),
            ]
        );
    }

    #[test]
    fn respawned_events_run() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::ZERO, 0);
        let mut w = Counter { fired: vec![], respawn: true };
        sim.run_to_completion(&mut w);
        assert_eq!(w.fired.len(), 4);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_micros(10), 1);
        sim.queue_mut().schedule(SimTime::from_micros(20), 2);
        let mut w = Counter { fired: vec![], respawn: false };
        let n = sim.run_until(&mut w, SimTime::from_micros(15));
        assert_eq!(n, 1);
        assert_eq!(sim.queue_mut().len(), 1);
    }

    #[test]
    fn run_before_stops_short_of_the_boundary() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_micros(10), 1);
        sim.queue_mut().schedule(SimTime::from_micros(20), 2);
        sim.queue_mut().schedule(SimTime::from_micros(20), 3);
        let mut w = Counter { fired: vec![], respawn: false };
        // Strict: the events at exactly 20 µs stay queued.
        assert_eq!(sim.run_before(&mut w, SimTime::from_micros(20)), 1);
        assert_eq!(sim.queue_mut().len(), 2);
        // Inclusive run picks them up in insertion order.
        assert_eq!(sim.run_until(&mut w, SimTime::from_micros(20)), 2);
        let order: Vec<u32> = w.fired.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn telemetry_samples_queue_depth_without_changing_dispatch() {
        let sample_every = Simulation::<u32>::QUEUE_DEPTH_SAMPLE_EVERY;
        let sink = idse_telemetry::MemorySink::new(64);
        let mut sim = Simulation::new();
        sim.set_telemetry(idse_telemetry::Telemetry::new(sink.clone()));
        let mut plain = Simulation::new();
        for i in 0..2 * sample_every {
            sim.queue_mut().schedule(SimTime::from_micros(i), 1);
            plain.queue_mut().schedule(SimTime::from_micros(i), 1);
        }
        let mut w = Counter { fired: vec![], respawn: false };
        sim.run_to_completion(&mut w);
        let mut w2 = Counter { fired: vec![], respawn: false };
        plain.run_to_completion(&mut w2);
        assert_eq!(w.fired, w2.fired, "observation must not change dispatch");
        let events = sink.events();
        assert_eq!(events.len(), 2, "one sample per {sample_every} dispatches");
        assert!(events.iter().all(|e| e.name == "sim.queue_depth"));
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut sim = Simulation::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            sim.queue_mut().schedule(t, i);
        }
        let mut w = Counter { fired: vec![], respawn: false };
        sim.run_to_completion(&mut w);
        let order: Vec<u32> = w.fired.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
