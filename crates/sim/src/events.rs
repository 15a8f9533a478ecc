//! Deterministic discrete-event queue.
//!
//! A priority queue over `(VirtualTime, sequence)` keys. The sequence
//! number breaks timestamp ties in insertion order, which makes every
//! simulation run bit-for-bit reproducible.
//!
//! Most events are scheduled in time order: an open-loop run pushes its
//! whole arrival schedule up front, sorted, and feed commits and window
//! fires come sorted too. Such pushes append to a FIFO *lane* and never
//! enter the heap; only a push earlier than the lane's tail goes to the
//! heap. `pop` takes the smaller `(at, seq)` of the two heads, so the
//! order is exactly that of one heap over every event.

use crate::time::VirtualTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    at: VirtualTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (VirtualTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list ordered by virtual time, FIFO within equal times.
pub struct EventQueue<E> {
    /// Events pushed at or after the previous tail, in push order: sorted
    /// by `(at, seq)` by construction.
    lane: VecDeque<Entry<E>>,
    /// Everything pushed earlier than the lane's tail.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { lane: VecDeque::new(), heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: VirtualTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        if self.lane.back().is_none_or(|tail| at >= tail.at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// True if the lane holds the earliest event.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
            (lane, _) => lane.is_some(),
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let e = if self.lane_first() { self.lane.pop_front() } else { self.heap.pop() };
        e.map(|e| (e.at, e.payload))
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        if self.lane_first() {
            self.lane.front().map(|e| e.at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_nanos(30), "c");
        q.push(VirtualTime::from_nanos(10), "a");
        q.push(VirtualTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((VirtualTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((VirtualTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((VirtualTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = VirtualTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(VirtualTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Seeded random interleavings of `push` and `pop` pop in exactly the
    /// order of a reference sorted by `(at, seq)`. Times come from a narrow
    /// window that drifts forwards, so many are equal and many land behind
    /// the lane's tail (in the heap); now and then the queue is drained and
    /// filled again.
    #[test]
    fn random_interleavings_pop_in_at_seq_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let (mut heap_pushes, mut lane_pushes, mut drains) = (0, 0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut reference = BTreeSet::new();
            let (mut seq, mut base) = (0u64, 0u64);
            let pop = |q: &mut EventQueue<u64>, reference: &mut BTreeSet<(u64, u64)>| {
                let expected = reference.pop_first();
                let expected = expected.map(|(at, seq)| (VirtualTime::from_nanos(at), seq));
                assert_eq!(q.pop(), expected, "seed {seed}");
            };
            for _ in 0..400 {
                if rng.gen_bool(0.55) {
                    base += rng.gen_range(0..3u64);
                    let at = base + rng.gen_range(0..6u64);
                    let heap_before = q.heap.len();
                    q.push(VirtualTime::from_nanos(at), seq);
                    if q.heap.len() > heap_before {
                        heap_pushes += 1;
                    } else {
                        lane_pushes += 1;
                    }
                    reference.insert((at, seq));
                    seq += 1;
                } else {
                    pop(&mut q, &mut reference);
                }
                assert_eq!(q.len(), reference.len());
                let first = reference.first().map(|&(at, _)| VirtualTime::from_nanos(at));
                assert_eq!(q.peek_time(), first);
                if rng.gen_bool(0.02) {
                    while !reference.is_empty() {
                        pop(&mut q, &mut reference);
                    }
                    assert!(q.is_empty() && q.pop().is_none());
                    drains += 1;
                }
            }
            while !reference.is_empty() {
                pop(&mut q, &mut reference);
            }
            assert!(q.is_empty());
        }
        assert!(heap_pushes > 1_000 && lane_pushes > 1_000 && drains > 100);
    }

    #[test]
    fn in_order_pushes_never_enter_the_heap() {
        let mut q = EventQueue::new();
        for t in [1, 2, 2, 5, 9] {
            q.push(VirtualTime::from_nanos(t), t);
        }
        assert_eq!((q.lane.len(), q.heap.len()), (5, 0));
        // An earlier push goes to the heap and still pops first.
        q.push(VirtualTime::from_nanos(0), 0);
        assert_eq!(q.heap.len(), 1);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 1, 2, 2, 5, 9]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_nanos(10), 1);
        q.push(VirtualTime::from_nanos(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(VirtualTime::from_nanos(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
