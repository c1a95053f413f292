//! A minimal discrete-event simulation engine: a time-ordered event
//! queue with deterministic FIFO tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event tagged with its firing time.
struct Timed<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Timed<E> {}

impl<E> Ord for Timed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; ties broken by insertion order so the
        // simulation is fully deterministic.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Timed<E>>,
    seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or in the past (before `now`), which would
    /// break causality.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time is NaN");
        assert!(
            time >= self.now - 1e-12,
            "scheduling into the past: {time} < {}",
            self.now
        );
        self.heap.push(Timed {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|t| {
            self.now = t.time;
            (t.time, t.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        q.push(1.0, ());
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        q.pop();
        q.push(1.0, ());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(2.0, 2);
        q.push(3.0, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(2.5, 4); // legal: 2.5 >= now (2.0)
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }
}
