//! Timestamped event queue with a total, reproducible order.
//!
//! `BinaryHeap` alone is not enough for a deterministic simulator: two
//! events at the same virtual instant would pop in an unspecified order.
//! Every pushed event therefore carries a monotonically increasing sequence
//! number, and the queue orders by `(time, seq)` — earliest time first,
//! insertion order among ties. This makes whole-simulation traces a pure
//! function of (program, seed).
//!
//! This is the *reference* queue: the property-tested baseline that the
//! radix queue in [`crate::radix`] is differentially checked against.

use crate::order::MinEntry;
use crate::time::VirtualTime;
use std::collections::BinaryHeap;

/// A deterministic priority queue of `(VirtualTime, E)` pairs.
pub struct EventQueue<E> {
    heap: BinaryHeap<MinEntry<VirtualTime, E>>,
    next_seq: u64,
    /// Undrained extra members of batch events ([`EventQueue::hold`]).
    held: usize,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            held: 0,
            peak: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed at equal times pop in
    /// push order.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(MinEntry::new(time, seq, event));
        self.peak = self.peak.max(self.heap.len() + self.held);
    }

    /// Count `k` more logical events as pending without queueing them:
    /// the extra members of a batch event that stands for `k + 1`
    /// same-instant events. `peak_len` sees them until each is
    /// [`release`](EventQueue::release)d, so one push plus `hold(k)`
    /// reaches the same peak as `k + 1` pushes.
    pub fn hold(&mut self, k: usize) {
        self.held += k;
        self.peak = self.peak.max(self.heap.len() + self.held);
    }

    /// Drain one held member (the counterpart of popping it).
    pub fn release(&mut self) {
        self.held = self
            .held
            .checked_sub(1)
            .expect("release without a held member");
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of queued events (held batch members not included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (a cheap activity metric).
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of events ever pending at once, held batch
    /// members included.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Drop all pending events (used to cut a simulation short once its
    /// result is known, e.g. after global termination is detected).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualDuration;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_us(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.total_scheduled(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.push(t(3), 2);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.push(t(4), 3);
        // Depth never exceeded 3 again.
        assert_eq!(q.peak_len(), 3);
        q.clear();
        assert_eq!(q.peak_len(), 3, "peak survives clear()");
    }
}
