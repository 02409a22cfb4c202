//! Differential property suite: `RadixQueue` must pop in *exactly* the
//! order of the reference `EventQueue` on generated `(time, seq)`
//! workloads — heavy ties, same-instant bursts, interleaved push/pop,
//! past-time pushes, far-future sentinels, and keys on every radix
//! bucket boundary. The radix queue is only allowed to be fast, never
//! different.

use earth_sim::{EventQueue, QueueKind, RadixQueue, Rng, SimQueue, VirtualTime};

fn t(ns: u64) -> VirtualTime {
    VirtualTime::from_ns(ns)
}

/// One generated operation of a queue workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u64),
    Pop,
}

/// Run the same op sequence against both queues, asserting pop-for-pop
/// and observable-state equality at every step.
fn check_equivalent(label: &str, ops: &[Op]) {
    let mut reference = EventQueue::new();
    let mut radix = RadixQueue::new();
    let mut payload = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(ns) => {
                reference.push(t(ns), payload);
                radix.push(t(ns), payload);
                payload += 1;
            }
            Op::Pop => {
                let want = reference.pop();
                let got = radix.pop();
                assert_eq!(
                    got,
                    want,
                    "{label}: divergent pop at step {step} of {}",
                    ops.len()
                );
            }
        }
        assert_eq!(radix.len(), reference.len(), "{label}: len at step {step}");
        assert_eq!(
            radix.peek_time(),
            reference.peek_time(),
            "{label}: peek at step {step}"
        );
    }
    // Drain whatever is left; the tails must match too.
    loop {
        let want = reference.pop();
        let got = radix.pop();
        assert_eq!(got, want, "{label}: divergent pop in final drain");
        if want.is_none() {
            break;
        }
    }
    assert_eq!(radix.total_scheduled(), reference.total_scheduled());
    assert_eq!(radix.peak_len(), reference.peak_len(), "{label}: peak");
}

/// Builds an op sequence while mirroring it on a reference queue, so a
/// generator can aim pushes relative to the last popped time.
struct Script {
    ops: Vec<Op>,
    model: EventQueue<()>,
    now: u64,
}

impl Script {
    fn new() -> Self {
        Script {
            ops: Vec::new(),
            model: EventQueue::new(),
            now: 0,
        }
    }

    fn push(&mut self, ns: u64) {
        self.ops.push(Op::Push(ns));
        self.model.push(t(ns), ());
    }

    fn pop(&mut self) {
        self.ops.push(Op::Pop);
        if let Some((time, ())) = self.model.pop() {
            self.now = time.as_ns();
        }
    }
}

#[test]
fn heavy_ties_pop_identically() {
    // 2000 events over just 7 distinct instants.
    let mut rng = Rng::new(0x7135);
    let instants = [0u64, 1, 5, 5, 100, 10_000, u64::MAX];
    let mut ops = Vec::new();
    for _ in 0..2000 {
        let ns = instants[rng.gen_range(instants.len() as u64) as usize];
        ops.push(Op::Push(ns));
    }
    for _ in 0..2000 {
        ops.push(Op::Pop);
    }
    check_equivalent("heavy_ties", &ops);
}

#[test]
fn same_instant_bursts_after_partial_drain() {
    // Drain into an instant, then burst more events at that instant —
    // they must pop after the instant's older events, in seq order.
    let mut ops = Vec::new();
    for i in 0..50 {
        ops.push(Op::Push(10 * i));
    }
    for _ in 0..25 {
        ops.push(Op::Pop);
    }
    for _ in 0..40 {
        ops.push(Op::Push(240)); // exactly the frontier instant
    }
    for _ in 0..30 {
        ops.push(Op::Pop);
    }
    for _ in 0..20 {
        ops.push(Op::Push(240));
        ops.push(Op::Pop);
    }
    check_equivalent("same_instant_bursts", &ops);
}

#[test]
fn interleaved_push_pop_random_walk() {
    // A simulator-shaped workload: times drift forward from a moving
    // "now", with occasional far-future and past-time pushes.
    let mut rng = Rng::new(0xEA12_7001);
    let mut ops = Vec::new();
    let mut now = 0u64;
    for _ in 0..30_000 {
        match rng.gen_range(10) {
            0..=5 => {
                let ahead = rng.gen_range(5_000);
                ops.push(Op::Push(now + ahead));
            }
            6 => {
                let far = rng.gen_range(10_000_000);
                ops.push(Op::Push(now + 1_000_000 + far));
            }
            7 => {
                let back = rng.gen_range(now.max(1));
                ops.push(Op::Push(now - back.min(now)));
            }
            _ => {
                ops.push(Op::Pop);
                now += rng.gen_range(200);
            }
        }
    }
    check_equivalent("random_walk", &ops);
}

#[test]
fn multi_respan_wide_spread() {
    // Thousands of events spread over a huge time range, popped in
    // large batches so every pop round refills across many buckets.
    let mut rng = Rng::new(42);
    let mut ops = Vec::new();
    for round in 0..6 {
        for _ in 0..3000 {
            ops.push(Op::Push(rng.gen_range(1 << 40)));
        }
        for _ in 0..(1500 + round * 300) {
            ops.push(Op::Pop);
        }
    }
    check_equivalent("multi_respan", &ops);
}

#[test]
fn pop_from_empty_then_refill() {
    let mut ops = vec![Op::Pop, Op::Pop];
    for i in 0..10 {
        ops.push(Op::Push(i * 100));
    }
    for _ in 0..12 {
        ops.push(Op::Pop);
    }
    for i in 0..10 {
        ops.push(Op::Push(i * 7));
    }
    for _ in 0..10 {
        ops.push(Op::Pop);
    }
    check_equivalent("empty_refill", &ops);
}

#[test]
fn idle_forever_sentinels_mix_with_real_events() {
    // VirtualTime::MAX sentinels are part of the queue's supported
    // input domain (today only tests exercise them); sentinels and
    // real events must interleave identically.
    let mut rng = Rng::new(99);
    let mut ops = Vec::new();
    for _ in 0..500 {
        if rng.gen_range(4) == 0 {
            ops.push(Op::Push(u64::MAX));
        } else {
            ops.push(Op::Push(rng.gen_range(1000)));
        }
        if rng.gen_range(3) == 0 {
            ops.push(Op::Pop);
        }
    }
    check_equivalent("idle_sentinels", &ops);
}

#[test]
fn full_axis_window_with_max_sentinel() {
    // A near-zero event and a MAX sentinel pending together span the
    // whole time axis, so the sentinel sits in the top bucket.
    // Deterministic ops — no RNG — so the span is always built.
    let ops = [
        Op::Push(0),
        Op::Push(u64::MAX),
        Op::Pop,
        Op::Push(62), // in-window push after the first activation
        Op::Pop,
        Op::Pop,
        Op::Push(u64::MAX), // sentinel alone, then refill near zero
        Op::Pop,
        Op::Push(1),
        Op::Pop,
        Op::Pop,
    ];
    check_equivalent("full_axis_window", &ops);
}

#[test]
fn simqueue_kinds_agree_on_random_workload() {
    // The dispatch wrapper itself, driven under both kinds.
    let mut rng = Rng::new(0xD1FF);
    let mut heap = SimQueue::new(QueueKind::Heap);
    let mut radix = SimQueue::new(QueueKind::Radix);
    let mut payload = 0u32;
    for _ in 0..10_000 {
        if rng.gen_range(3) < 2 {
            let time = t(rng.gen_range(1 << 30));
            heap.push(time, payload);
            radix.push(time, payload);
            payload += 1;
        } else {
            assert_eq!(heap.pop(), radix.pop());
        }
        assert_eq!(heap.len(), radix.len());
    }
    loop {
        let a = heap.pop();
        assert_eq!(a, radix.pop());
        if a.is_none() {
            break;
        }
    }
    assert_eq!(heap.peak_len(), radix.peak_len());
}

#[test]
fn poke_bursts_on_a_monotone_clock() {
    // The serving path's shape: the idle-node poll pushes runs of 10–60
    // equal-time wakes 2–8 µs ahead of a clock that never runs
    // backwards, interleaved with pops and self-wakes at `now`.
    let mut rng = Rng::new(0x90CE);
    let mut s = Script::new();
    for _ in 0..400 {
        let at = s.now + 2_000 + rng.gen_range(6_001);
        for _ in 0..10 + rng.gen_range(51) {
            s.push(at);
            match rng.gen_range(6) {
                0 => s.pop(),
                1 => s.push(s.now),
                _ => {}
            }
        }
        for _ in 0..rng.gen_range(80) {
            s.pop();
        }
    }
    assert!(
        s.ops.len() > 10_000,
        "workload too small to exercise refills"
    );
    check_equivalent("poke_bursts", &s.ops);
}

#[test]
fn keys_straddle_every_radix_bucket_boundary() {
    // A key's bucket is the bit length of `t ^ last`; XOR-ing `last`
    // with 2^k − 1, 2^k and 2^k + 1 for every k (plus all ones) lands
    // keys on both sides of each bucket boundary. Every key is pushed
    // twice so equal-time pairs must keep seq order through refills.
    // Later rounds pivot on a moved `last`; keys below it take the
    // rebase path.
    let offsets: Vec<u64> = (0..64)
        .flat_map(|k| {
            let p = 1u64 << k;
            [p - 1, p, p + 1]
        })
        .chain([u64::MAX])
        .collect();
    let mut rng = Rng::new(0xB0DA);
    let mut s = Script::new();
    for _ in 0..4 {
        let last = s.now;
        let mut keys: Vec<u64> = offsets.iter().flat_map(|&o| [last ^ o; 2]).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        for ns in keys {
            s.push(ns);
            if rng.gen_range(4) == 0 {
                s.pop();
            }
        }
        for _ in 0..offsets.len() {
            s.pop();
        }
    }
    check_equivalent("bucket_boundaries", &s.ops);
}

#[test]
fn hold_after_one_push_peaks_like_k_pushes() {
    // A batch event standing for `k` same-instant events is one push
    // plus `hold(k - 1)`; its logical depth must peak exactly where `k`
    // separate pushes would, whatever is already queued.
    for kind in [QueueKind::Heap, QueueKind::Radix] {
        for base in [0u64, 1, 7] {
            for k in 1..=70usize {
                let mut pushes = SimQueue::new(kind);
                let mut batch = SimQueue::new(kind);
                for i in 0..base {
                    pushes.push(t(100 + i), ());
                    batch.push(t(100 + i), ());
                }
                for _ in 0..k {
                    pushes.push(t(50), ());
                }
                batch.push(t(50), ());
                batch.hold(k - 1);
                assert_eq!(
                    batch.peak_len(),
                    pushes.peak_len(),
                    "{kind:?} base {base} k {k}"
                );
                assert_eq!(
                    batch.len(),
                    base as usize + 1,
                    "held members are not queued"
                );
            }
        }
    }
}

#[test]
fn hold_release_interleavings_agree() {
    // Random push / pop / hold / release sequences, releasing only what
    // is held: both kinds report the same `len` at every step and the
    // same `peak_len` throughout, and pops stay in lockstep.
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x401D ^ seed);
        let mut heap = SimQueue::new(QueueKind::Heap);
        let mut radix = SimQueue::new(QueueKind::Radix);
        let mut held = 0usize;
        let mut now = 0u64;
        let mut payload = 0u32;
        for step in 0..4_000 {
            match rng.gen_range(8) {
                0..=2 => {
                    let time = t(now + rng.gen_range(3_000));
                    heap.push(time, payload);
                    radix.push(time, payload);
                    payload += 1;
                }
                3 | 4 => {
                    let a = heap.pop();
                    assert_eq!(a, radix.pop(), "seed {seed} step {step}: pop");
                    if let Some((time, _)) = a {
                        now = time.as_ns();
                    }
                }
                5 => {
                    let k = rng.gen_range(60) as usize;
                    heap.hold(k);
                    radix.hold(k);
                    held += k;
                }
                _ if held > 0 => {
                    heap.release();
                    radix.release();
                    held -= 1;
                }
                _ => {}
            }
            assert_eq!(heap.len(), radix.len(), "seed {seed} step {step}: len");
            assert_eq!(
                heap.peak_len(),
                radix.peak_len(),
                "seed {seed} step {step}: peak"
            );
        }
    }
}
