//! The event queue: a binary heap plus a FIFO input lane, with
//! deterministic tie-breaking.
//!
//! Two events scheduled for the same virtual instant are dispatched in the
//! order they were scheduled. `BinaryHeap` alone does not guarantee that, so
//! every entry carries a monotonically increasing sequence number that breaks
//! ties. This is what makes whole-testbed runs bit-reproducible across
//! processes and platforms.
//!
//! Entries additionally carry a *dispatch class*: among events at the same
//! instant, lower classes dispatch first regardless of insertion order.
//! External inputs (scheduled with [`EventQueue::schedule_input`]) use class
//! 0; everything else class 1. A driver that feeds inputs incrementally —
//! chunk by chunk rather than all upfront — therefore dispatches in exactly
//! the order a fully pre-scheduled run would: in an upfront schedule every
//! input already outranks every derived event at the same instant by
//! sequence number, so the class bit changes nothing for monolithic runs
//! while making chunked runs order-identical to them.
//!
//! Drivers feed inputs in time order, so inputs need no heap: an input not
//! earlier than the input lane's tail is appended to that FIFO, which is
//! then sorted by `(time, class, seq)` by construction. Only an input that
//! arrives out of order goes to the heap with the derived events. `peek` and
//! `pop` take the earlier of the lane's front and the heap's top under that
//! same key, so the dispatch order is the one total order a single heap
//! gives; the heap holds only the events in flight, not every pending input.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Dispatch class of external-input events ([`EventQueue::schedule_input`]).
pub const CLASS_INPUT: u8 = 0;
/// Dispatch class of ordinary events ([`EventQueue::schedule`]).
pub const CLASS_DERIVED: u8 = 1;

/// An event payload together with its dispatch time.
#[derive(Debug)]
pub struct Scheduled<E> {
    /// Virtual time at which the event fires.
    pub at: SimTime,
    /// Dispatch class; among same-time events, lower classes fire first.
    pub class: u8,
    /// Insertion sequence number; unique per queue, used to break ties.
    pub seq: u64,
    /// The application event.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of future events ordered by `(time, class, insertion
/// seq)`: a heap for derived and out-of-order events, merged on the fly with
/// a FIFO lane for time-ordered inputs (see the module docs).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Inputs in `(at, class, seq)` order: each was scheduled no earlier
    /// than the one before it.
    inputs: VecDeque<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), inputs: VecDeque::new(), next_seq: 0 }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, CLASS_DERIVED, event);
        self.heap.push(entry);
    }

    /// Schedule an external-input event at `at`. Among events at the same
    /// instant, inputs dispatch before everything scheduled with
    /// [`EventQueue::schedule`], mirroring a run where all inputs were
    /// enqueued upfront (and therefore held the lowest sequence numbers).
    ///
    /// An input not earlier than the previous lane input costs O(1); one
    /// that arrives out of order is pushed on the heap instead.
    pub fn schedule_input(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, CLASS_INPUT, event);
        if self.inputs.back().is_none_or(|tail| tail.at <= at) {
            self.inputs.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    fn entry(&mut self, at: SimTime, class: u8, event: E) -> Scheduled<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled { at, class, seq, event }
    }

    /// The earliest pending event, if any.
    pub fn peek(&self) -> Option<&Scheduled<E>> {
        let top = self.heap.peek();
        match self.inputs.front() {
            // The `Ord` is reversed for the max-heap: "greater" is earlier.
            Some(lane) if top.is_none_or(|top| lane > top) => Some(lane),
            _ => top,
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        match (self.inputs.front(), self.heap.peek()) {
            (Some(lane), top) if top.is_none_or(|top| lane > top) => self.inputs.pop_front(),
            _ => self.heap.pop(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.inputs.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.inputs.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "c");
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn inputs_outrank_derived_events_at_the_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "derived-a");
        q.schedule_input(t, "input-late");
        q.schedule(t, "derived-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        // The input fires first despite being scheduled second; the derived
        // events keep their insertion order among themselves.
        assert_eq!(order, vec!["input-late", "derived-a", "derived-b"]);
    }

    #[test]
    fn input_ties_break_by_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule_input(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 10);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        q.schedule(SimTime::from_secs(2) + SimDuration::from_nanos(1), 3);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 10);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
    }
}
