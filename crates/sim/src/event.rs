//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are ordered by virtual time with a monotonically increasing
//! sequence number as a tiebreaker, so two events scheduled for the same
//! instant pop in scheduling (FIFO) order. This makes every simulation run
//! fully deterministic.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of domain events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute virtual time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current virtual time — scheduling
    /// into the past is always a simulation bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({} < {})",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Pop the earliest event, advancing the virtual clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "event queue went backwards");
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Advance the clock to `at`, the instant of an event kept outside the
    /// queue (the next entry of a sorted trace), and return it. Such an
    /// event runs before every queued one, so `at` is no later than the
    /// earliest of them.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current virtual time.
    pub fn advance(&mut self, at: SimTime) -> SimTime {
        assert!(
            at >= self.now,
            "cannot advance into the past ({} < {})",
            at,
            self.now
        );
        debug_assert!(self.peek_time().is_none_or(|t| at <= t), "skipped an event");
        self.now = at;
        at
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Scheduling relative to now works.
        q.schedule(q.now() + SimDuration::from_secs(1), ());
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn advance_moves_the_clock_for_outside_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.advance(SimTime::from_secs(2)), SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(2));
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }
}
