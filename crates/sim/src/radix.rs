//! Monotone radix event queue: amortized O(1) push/pop over compact keys.
//!
//! The reference [`EventQueue`] pays `O(log n)` per operation on a
//! `BinaryHeap` of whole events. [`RadixQueue`] exploits two facts about
//! simulator workloads: the pop clock never runs backwards, and many
//! pushes land on an instant already in the queue (a message arrival
//! and the wake it triggers). The idle-node poll, which wakes dozens of
//! nodes at one instant, pushes one batch event for all of them and
//! [`hold`](RadixQueue::hold)s the rest, so `peak_len` still counts
//! every logical event.
//!
//! * **Keys and slab.** The buckets hold 24-byte `(time, seq, slot)`
//!   keys. Events sit still in a slab (`Vec<Option<E>>` plus a free
//!   list) from push to pop, so no bucket operation moves one.
//! * **Buckets.** `last` is a lower bound on every pending time. A key at
//!   `t` lives in bucket `bit_length(t ^ last)`: bucket `i > 0` holds the
//!   times that agree with `last` above bit `i - 1` and have that bit
//!   set, so every key in bucket `i` precedes every key in bucket `i + 1`.
//!   Bucket 0 holds the keys at exactly `last` in `seq` order and pops
//!   them FIFO from a head cursor.
//! * **Refill.** When bucket 0 runs dry, the lowest non-empty bucket
//!   (a bitmask plus `trailing_zeros`) is emptied: `last` moves to its
//!   minimum time and its keys land in strictly lower buckets, so a key
//!   moves at most once per bit of its distance from `last`. Bucket 0
//!   needs no sort: keys of equal time always share a bucket, every move
//!   keeps their relative order, and a direct push carries the newest
//!   `seq`, so equal-time keys stay in `seq` order wherever they are.
//! * **Pushes before `last`.** The runtime never makes one, but the
//!   `(time, seq)` contract allows it: a slow path rebases every pending
//!   key on the earlier time.
//!
//! Determinism: pops come out in ascending `(time, seq)`, exactly as from
//! the reference queue. The differential suite in `tests/queue_diff.rs`
//! checks pop-for-pop equality against [`EventQueue`] on adversarial
//! workloads, and the full-app suite checks byte-identical `RunReport`s.

use crate::queue::EventQueue;
use crate::time::VirtualTime;

/// A pending event's ordering key and the slab slot holding its event.
#[derive(Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

/// A deterministic monotone radix queue, pop-for-pop identical to
/// [`EventQueue`].
pub struct RadixQueue<E> {
    /// `buckets[i]` holds the keys with `bit_length(time ^ last) == i`:
    /// bucket 0 plus one per bit of a `u64` time. Boxed so the queue
    /// stays a few words wide inside `SimQueue`.
    buckets: Box<[Vec<Key>; 65]>,
    /// Next key of bucket 0 to pop.
    head: usize,
    /// Bit `i - 1` is set iff `buckets[i]` is non-empty, for `i >= 1`.
    mask: u64,
    /// Lower bound on every pending time; bucket 0's time.
    last: u64,
    /// Event storage indexed by `Key::slot`.
    slab: Vec<Option<E>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    /// Undrained extra members of batch events ([`RadixQueue::hold`]).
    held: usize,
    peak: usize,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RadixQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        RadixQueue {
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            head: 0,
            mask: 0,
            last: 0,
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
            held: 0,
            peak: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed at equal times pop in
    /// push order.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len + self.held);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let key = Key {
            time: time.as_ns(),
            seq,
            slot,
        };
        if key.time < self.last {
            self.rebase(key.time);
        }
        self.place(key);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        if self.head == self.buckets[0].len() {
            let (b, min) = self.lowest_bucket()?;
            self.refill(b, min);
        }
        let key = self.buckets[0][self.head];
        self.head += 1;
        if self.head == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head = 0;
        }
        self.len -= 1;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a queued key's slot holds its event");
        self.free.push(key.slot);
        Some((VirtualTime::from_ns(key.time), event))
    }

    /// Timestamp of the earliest event without removing it. Leaves
    /// `last` where the pops put it, so peeking never sends a later push
    /// down the rebase path.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        let time = if self.head < self.buckets[0].len() {
            self.last
        } else {
            self.lowest_bucket()?.1
        };
        Some(VirtualTime::from_ns(time))
    }

    /// Count `k` more logical events as pending without queueing them,
    /// exactly like [`EventQueue::hold`].
    pub fn hold(&mut self, k: usize) {
        self.held += k;
        self.peak = self.peak.max(self.len + self.held);
    }

    /// Drain one held member, exactly like [`EventQueue::release`].
    pub fn release(&mut self) {
        self.held = self
            .held
            .checked_sub(1)
            .expect("release without a held member");
    }

    /// Number of queued events (held batch members not included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of events ever pending at once, held batch
    /// members included.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Drop all pending events and held members; `total_scheduled` and
    /// `peak_len` keep counting across the clear, like the reference
    /// queue.
    pub fn clear(&mut self) {
        for b in self.buckets.iter_mut() {
            b.clear();
        }
        self.head = 0;
        self.mask = 0;
        self.last = 0;
        self.slab.clear();
        self.free.clear();
        self.len = 0;
        self.held = 0;
    }

    /// File `key` in its bucket relative to `last` (`key.time >= last`).
    fn place(&mut self, key: Key) {
        let b = (u64::BITS - (key.time ^ self.last).leading_zeros()) as usize;
        self.buckets[b].push(key);
        if b > 0 {
            self.mask |= 1 << (b - 1);
        }
    }

    /// The lowest non-empty bucket above 0 and its minimum time, or
    /// `None` when nothing is pending outside bucket 0.
    fn lowest_bucket(&self) -> Option<(usize, u64)> {
        if self.mask == 0 {
            return None;
        }
        let b = self.mask.trailing_zeros() as usize + 1;
        let min = self.buckets[b]
            .iter()
            .map(|k| k.time)
            .min()
            .expect("a masked bucket is non-empty");
        Some((b, min))
    }

    /// Refill the drained bucket 0: move `last` to `min`, the minimum
    /// time of bucket `b`, and redistribute that bucket.
    fn refill(&mut self, b: usize, min: u64) {
        self.mask &= !(1 << (b - 1));
        self.last = min;
        let mut keys = std::mem::take(&mut self.buckets[b]);
        // Every key agrees with the new `last` at bit `b - 1` and above,
        // so it lands in a bucket below `b`.
        for key in keys.drain(..) {
            self.place(key);
        }
        self.buckets[b] = keys;
        debug_assert!(self.buckets[0].is_sorted_by_key(|k| k.seq));
    }

    /// Slow path for a push before `last`: re-file every pending key
    /// relative to the earlier time.
    #[cold]
    fn rebase(&mut self, last: u64) {
        let mut pending = Vec::with_capacity(self.len);
        pending.extend_from_slice(&self.buckets[0][self.head..]);
        self.buckets[0].clear();
        self.head = 0;
        for b in &mut self.buckets[1..] {
            pending.append(b);
        }
        self.mask = 0;
        self.last = last;
        for key in pending {
            self.place(key);
        }
    }
}

/// Which event-queue implementation a simulation runs on.
///
/// `Heap` is the property-tested reference; `Radix` is the fast path,
/// proven pop-for-pop identical by the differential suite. The knob
/// exists so the reference stays exercised and any future queue bug
/// bisects in one config flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Reference `BinaryHeap` queue ([`EventQueue`]).
    Heap,
    /// Monotone radix queue ([`RadixQueue`]), the default.
    #[default]
    Radix,
}

/// An event queue of either kind behind one static dispatch point.
pub enum SimQueue<E> {
    /// The reference heap queue.
    Heap(EventQueue<E>),
    /// The monotone radix queue.
    Radix(RadixQueue<E>),
}

impl<E> SimQueue<E> {
    /// An empty queue of the requested kind.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => SimQueue::Heap(EventQueue::new()),
            QueueKind::Radix => SimQueue::Radix(RadixQueue::new()),
        }
    }

    /// Which implementation this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self {
            SimQueue::Heap(_) => QueueKind::Heap,
            SimQueue::Radix(_) => QueueKind::Radix,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        match self {
            SimQueue::Heap(q) => q.push(time, event),
            SimQueue::Radix(q) => q.push(time, event),
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        match self {
            SimQueue::Heap(q) => q.pop(),
            SimQueue::Radix(q) => q.pop(),
        }
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        match self {
            SimQueue::Heap(q) => q.peek_time(),
            SimQueue::Radix(q) => q.peek_time(),
        }
    }

    /// Count `k` more logical events as pending without queueing them
    /// (see [`EventQueue::hold`]).
    pub fn hold(&mut self, k: usize) {
        match self {
            SimQueue::Heap(q) => q.hold(k),
            SimQueue::Radix(q) => q.hold(k),
        }
    }

    /// Drain one held member.
    pub fn release(&mut self) {
        match self {
            SimQueue::Heap(q) => q.release(),
            SimQueue::Radix(q) => q.release(),
        }
    }

    /// Number of queued events (held batch members not included).
    pub fn len(&self) -> usize {
        match self {
            SimQueue::Heap(q) => q.len(),
            SimQueue::Radix(q) => q.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        match self {
            SimQueue::Heap(q) => q.is_empty(),
            SimQueue::Radix(q) => q.is_empty(),
        }
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        match self {
            SimQueue::Heap(q) => q.total_scheduled(),
            SimQueue::Radix(q) => q.total_scheduled(),
        }
    }

    /// Largest number of events ever pending at once, held batch
    /// members included.
    pub fn peak_len(&self) -> usize {
        match self {
            SimQueue::Heap(q) => q.peak_len(),
            SimQueue::Radix(q) => q.peak_len(),
        }
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        match self {
            SimQueue::Heap(q) => q.clear(),
            SimQueue::Radix(q) => q.clear(),
        }
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
        let mut q = RadixQueue::new();
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
        let mut q = RadixQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = RadixQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn past_time_push_pops_first() {
        let mut q = RadixQueue::new();
        for i in 0..10 {
            q.push(t(100 + i), i);
        }
        assert_eq!(q.pop(), Some((t(100), 0)));
        // A push earlier than `last` takes the rebase path.
        q.push(t(1), 99);
        assert_eq!(q.pop(), Some((t(1), 99)));
        assert_eq!(q.pop(), Some((t(101), 1)));
    }

    #[test]
    fn rebase_keeps_a_partly_popped_instant_in_seq_order() {
        let mut q = RadixQueue::new();
        for i in 0..6 {
            q.push(t(50), i);
        }
        q.push(t(80), 6);
        assert_eq!(q.pop(), Some((t(50), 0)));
        assert_eq!(q.pop(), Some((t(50), 1)));
        // Bucket 0 is half popped when the rebase moves it out.
        q.push(t(20), 7);
        q.push(t(50), 8);
        assert_eq!(q.pop(), Some((t(20), 7)));
        for i in [2, 3, 4, 5, 8] {
            assert_eq!(q.pop(), Some((t(50), i)));
        }
        assert_eq!(q.pop(), Some((t(80), 6)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_burst_after_pop() {
        let mut q = RadixQueue::new();
        q.push(t(10), 0);
        q.push(t(20), 1);
        assert_eq!(q.pop(), Some((t(10), 0)));
        // Burst at the instant just popped.
        for i in 2..20 {
            q.push(t(10), i);
        }
        for i in 2..20 {
            assert_eq!(q.pop(), Some((t(10), i)));
        }
        assert_eq!(q.pop(), Some((t(20), 1)));
    }

    #[test]
    fn equal_times_keep_seq_order_across_refills() {
        let mut q = RadixQueue::new();
        q.push(t(0), 0);
        // Both land in one bucket relative to `last = 0`.
        q.push(t(6), 1);
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(0), 0)));
        // `last` moves to 6 and the key at 7 drops a bucket; a direct
        // push at 7 joins it and must still pop after it.
        assert_eq!(q.pop(), Some((t(6), 1)));
        q.push(t(7), 3);
        q.push(t(6), 4);
        assert_eq!(q.pop(), Some((t(6), 4)));
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(7), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn survives_many_refills() {
        let mut q = RadixQueue::new();
        let n = 6_000u64;
        for i in 0..n {
            // Deterministic shuffle of the time axis.
            let time = (i * 2_654_435_761) % 100_000;
            q.push(t(time), i);
        }
        let mut prev = VirtualTime::ZERO;
        let mut popped = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= prev);
            prev = time;
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = RadixQueue::new();
        for round in 0..100 {
            for i in 0..8 {
                q.push(t(round * 10 + i), i);
            }
            for _ in 0..8 {
                q.pop();
            }
        }
        assert_eq!(q.slab.len(), 8, "the slab grows only to the peak depth");
    }

    #[test]
    fn max_time_sentinel_orders_after_everything() {
        let mut q = RadixQueue::new();
        q.push(VirtualTime::MAX, "idle-forever");
        q.push(t(1), "real");
        assert_eq!(q.pop(), Some((t(1), "real")));
        // A second MAX push while the first is pending: seq order.
        q.push(VirtualTime::MAX, "idle-later");
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-forever")));
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_axis_span_uses_the_top_bucket() {
        // t = 0 and a MAX sentinel differ in bit 63: bucket 64.
        let mut q = RadixQueue::new();
        q.push(VirtualTime::ZERO, "now");
        q.push(VirtualTime::MAX, "idle-forever");
        assert_eq!(q.pop(), Some((VirtualTime::ZERO, "now")));
        q.push(t(5), "late");
        assert_eq!(q.pop(), Some((t(5), "late")));
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-forever")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_len_clear_and_counters() {
        let mut q = RadixQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.peak_len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.peak_len(), 2);
        // Still usable after clear.
        q.push(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
    }

    #[test]
    fn hold_counts_toward_peak_like_pushes() {
        // Two queued events, then a batch of four: one push, three held.
        let mut pushes = RadixQueue::new();
        let mut batch = RadixQueue::new();
        for q in [&mut pushes, &mut batch] {
            q.push(t(1), 0);
            q.push(t(2), 0);
        }
        for _ in 0..4 {
            pushes.push(t(3), 0);
        }
        batch.push(t(3), 0);
        batch.hold(3);
        assert_eq!(batch.peak_len(), 6);
        assert_eq!(batch.peak_len(), pushes.peak_len());
        assert_eq!(batch.len(), 3, "held members are not queued");
    }

    #[test]
    fn hold_members_count_until_released() {
        let mut q = RadixQueue::new();
        q.push(t(1), "batch");
        q.hold(2);
        assert_eq!(q.pop(), Some((t(1), "batch")));
        // Two members still undrained: a push now sees depth 3.
        q.push(t(2), "a");
        q.push(t(2), "b");
        assert_eq!(q.peak_len(), 4);
        q.release();
        q.release();
        q.push(t(3), "c");
        assert_eq!(q.peak_len(), 4, "released members no longer count");
        q.hold(5);
        assert_eq!(q.peak_len(), 8);
        q.clear();
        for _ in 0..8 {
            q.push(t(4), "d");
        }
        assert_eq!(q.peak_len(), 8, "clear drops held members, keeps the peak");
        q.push(t(4), "e");
        assert_eq!(q.peak_len(), 9);
    }

    #[test]
    #[should_panic(expected = "release without a held member")]
    fn release_without_hold_panics() {
        RadixQueue::<()>::new().release();
    }

    #[test]
    fn simqueue_dispatches_both_kinds() {
        for kind in [QueueKind::Heap, QueueKind::Radix] {
            let mut q = SimQueue::new(kind);
            assert_eq!(q.kind(), kind);
            q.push(t(2), "b");
            q.push(t(1), "a");
            assert_eq!(q.peek_time(), Some(t(1)));
            assert_eq!(q.len(), 2);
            assert_eq!(q.peak_len(), 2);
            assert_eq!(q.pop(), Some((t(1), "a")));
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
            assert_eq!(q.total_scheduled(), 2);
        }
    }

    #[test]
    fn default_kind_is_radix() {
        assert_eq!(QueueKind::default(), QueueKind::Radix);
    }
}
