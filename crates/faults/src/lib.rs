//! # earth-faults
//!
//! A declarative, seeded fault plane over the simulated MANNA network.
//!
//! The paper's Fig. 5 methodology stresses communication *cost* — every
//! message still arrives exactly once. This crate extends the same
//! deterministic machinery to communication *failure*: a [`FaultPlan`]
//! describes per-link message drop / duplicate / reorder probabilities,
//! latency-spike and link-brownout windows, and per-node pause (stall)
//! intervals. `earth-machine` compiles the plan into a [`FaultState`]
//! and consults it on every remote send; `earth-rt` layers sequence
//! numbers, receiver-side dedup, and ack/timeout/retransmit on top so
//! applications still complete with bit-identical results.
//!
//! ## Determinism
//!
//! Every probabilistic decision is drawn from a *counter-based*
//! SplitMix64 stream: the fate of the `k`-th message on link
//! `src → dst` is a pure function of `(seed, src, dst, k)`. No shared
//! generator state exists, so the fate of one link's traffic can never
//! perturb another link's draws, and the fault schedule is independent
//! of cross-link event interleaving. The same `(seed, plan)` therefore
//! always yields the same fault schedule — byte-identical reports,
//! rerun forever.
//!
//! A trivial plan ([`FaultPlan::none`], or any plan whose probabilities
//! and windows are all empty) is normalized away at install time
//! (`MachineConfig::with_faults`), so the hook is provably free when
//! unused: not a single extra branch, draw, or byte differs from a run
//! with no fault plane at all.

use earth_sim::{VirtualDuration, VirtualTime};

/// SplitMix64 finalizer (Steele, Lea & Flood): one round of the standard
/// mixer. Used both to seed the counter-based draws and to expand one
/// key into several independent decision words.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` with 53 bits of precision from one raw word.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-link fault probabilities. All probabilities are per-message and
/// must lie in `[0, 1)` — a probability of exactly 1 would make
/// reliable delivery impossible and the simulation non-terminating.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProbs {
    /// Probability a message is silently lost in the fabric.
    pub drop: f64,
    /// Probability the fabric delivers a second copy of a message.
    pub duplicate: f64,
    /// Probability a message is held back by an extra uniform delay in
    /// `(0, reorder_window]`, letting later traffic overtake it.
    pub reorder: f64,
}

impl LinkProbs {
    /// No faults on this link.
    pub const NONE: LinkProbs = LinkProbs {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
    };

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "{name} probability {p} outside [0, 1)"
            );
        }
    }

    fn is_trivial(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }
}

/// A latency-spike window: while `start <= now < end`, every message's
/// flight latency is multiplied by `factor` (≥ 1.0). Models transient
/// fabric congestion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpikeWindow {
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// Flight-latency multiplier (≥ 1.0).
    pub factor: f64,
}

/// A link-brownout window: while `start <= now < end`, every message
/// injected on the affected link (or on all links when `link` is
/// `None`) is dropped. Models a transiently dead cable or switch port.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownoutWindow {
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// Affected `(src, dst)` link, or `None` for every link.
    pub link: Option<(u16, u16)>,
}

/// A per-node pause (stall) interval: while `start <= now < end` the
/// node schedules no work — no polling, no threads, no retransmits.
/// Delivered messages queue at its NIC until the pause ends. Models a
/// node lost to an OS hiccup or checkpoint stall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauseWindow {
    /// The stalled node.
    pub node: u16,
    /// Stall start (inclusive).
    pub start: VirtualTime,
    /// Stall end (exclusive).
    pub end: VirtualTime,
}

/// A crash-stop window: `node` fail-stops at `down` (its NIC drops
/// every arriving message before acking, its scheduler runs nothing)
/// and — when `up` is set — restarts at `up`, replaying its last
/// checkpoint. When `up` is `None` the node stays down until the
/// failure detector declares it and triggers failover-restart at the
/// detection instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: u16,
    /// Crash instant (inclusive: the node is down from here on).
    pub down: VirtualTime,
    /// Scheduled restart instant, or `None` for detector-driven
    /// failover-restart.
    pub up: Option<VirtualTime>,
}

/// A fail-slow window: while `start <= now < end`, node `node` runs
/// *degraded* — every EU/SU cost it schedules and the flight latency of
/// every message departing it are multiplied by `factor` (≥ 1.0). The
/// node stays alive and keeps acking, so the crash detector must not
/// fire; this is the gray failure the straggler defenses exist for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowdownWindow {
    /// The degraded node.
    pub node: u16,
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// EU/SU and outbound-flight multiplier (≥ 1.0).
    pub factor: f64,
}

/// A degraded-link window: while `start <= now < end`, flight latency
/// on the directed link `src → dst` is multiplied by `factor` (≥ 1.0).
/// Directed on purpose: degrading `a → b` without `b → a` models the
/// asymmetric link faults real fabrics produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedLink {
    /// Source node of the degraded direction.
    pub src: u16,
    /// Destination node of the degraded direction.
    pub dst: u16,
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// Flight-latency multiplier (≥ 1.0).
    pub factor: f64,
}

/// A jitter-storm window: while `start <= now < end`, every delivered
/// message picks up an extra uniform delay in `(0, max_extra]`, drawn
/// from a dedicated counter lane (so arming a storm never shifts the
/// drop/duplicate/reorder fate stream). Models fabric-wide noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitterStorm {
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// Upper bound of the extra per-message delay.
    pub max_extra: VirtualDuration,
}

/// Knobs for the runtime's deterministic latency-outlier detector: a
/// node whose ack-RTT EWMA exceeds `threshold ×` the nearest-rank
/// median EWMA (with at least `min_samples` observations) is marked
/// *Suspected-Slow* — a state deliberately distinct from the crash
/// detector's *Suspected-Dead*, so a straggler is quarantined, never
/// failover-restarted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowDetector {
    /// EWMA-vs-median multiplier above which a node is suspected slow
    /// (must be > 1.0).
    pub threshold: f64,
    /// Minimum RTT observations of a node before it can be suspected.
    pub min_samples: u32,
}

/// Declarative description of every fault the network should inject.
///
/// Built with the `with_*` methods; installed with
/// `MachineConfig::with_faults`. A plan where nothing can ever fire
/// ([`FaultPlan::is_trivial`]) is normalized to "no fault plane" at
/// install time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Fault probabilities applied to every link without an override.
    pub default_probs: LinkProbs,
    /// Per-link `(src, dst, probs)` overrides (first match wins).
    pub link_overrides: Vec<(u16, u16, LinkProbs)>,
    /// Upper bound of the extra delay drawn for reordered messages and
    /// of the skew between duplicate copies.
    pub reorder_window: VirtualDuration,
    /// Latency-spike windows.
    pub spikes: Vec<SpikeWindow>,
    /// Link-brownout windows.
    pub brownouts: Vec<BrownoutWindow>,
    /// Per-node pause intervals.
    pub pauses: Vec<PauseWindow>,
    /// Crash-stop windows (fail-stop with checkpoint/recovery).
    pub crashes: Vec<CrashWindow>,
    /// Fail-slow windows (per-node EU/SU + outbound-flight multiplier).
    pub slowdowns: Vec<SlowdownWindow>,
    /// Degraded-link windows (per-direction flight multiplier).
    pub degraded_links: Vec<DegradedLink>,
    /// Jitter-storm windows (extra uniform delay on every delivery).
    pub jitter_storms: Vec<JitterStorm>,
    /// Latency-outlier detector knobs; `None` leaves detection off.
    pub slow_detector: Option<SlowDetector>,
    /// Hedged-retransmit delay factor: after `factor ×` the expected
    /// (or EWMA-observed) round trip with no ack, re-send once to the
    /// same destination; dedup rides the existing watermark path.
    /// `None` leaves hedging off.
    pub hedge: Option<f64>,
    /// How long a Suspected-Slow node stays quarantined (skipped by
    /// steal-victim selection and traffic home-routing) after its last
    /// slow observation before normal traffic probes it again. `None`
    /// leaves quarantine off.
    pub quarantine: Option<VirtualDuration>,
    /// Speculatively re-home queued tokens off a node the moment it is
    /// quarantined, reusing the crash plane's orphan re-homing.
    pub speculative_rehoming: bool,
    /// Base retransmission timeout margin used by the runtime's
    /// reliability layer (added on top of the expected round trip,
    /// doubling per attempt).
    pub rto: VirtualDuration,
    /// Hard cap on the backed-off retransmission timeout, or `None`
    /// for the default of `64 × rto` (the value the shift cap alone
    /// used to enforce, so existing plans are unchanged).
    pub rto_max: Option<VirtualDuration>,
    /// Failure-detector probe period: each node probes its ring
    /// successor this often while crash windows are armed.
    pub heartbeat_every: VirtualDuration,
    /// Suspicion timeout: a monitor declares its target crashed when no
    /// ack has arrived for a probe sent this long ago.
    pub suspect_after: VirtualDuration,
    /// Checkpoint period: every live node snapshots its frames, sync
    /// slots, memory segments, and queued tokens this often while crash
    /// windows are armed.
    pub checkpoint_every: VirtualDuration,
    /// EU time one checkpoint costs a node.
    pub checkpoint_cost: VirtualDuration,
    /// EU time restoring a checkpoint costs a recovering node (on top
    /// of re-executing the work lost since the last checkpoint).
    pub restore_cost: VirtualDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing. Installing it is byte-identical
    /// to installing no plan at all.
    pub fn none() -> Self {
        FaultPlan {
            default_probs: LinkProbs::NONE,
            link_overrides: Vec::new(),
            reorder_window: VirtualDuration::from_us(20),
            spikes: Vec::new(),
            brownouts: Vec::new(),
            pauses: Vec::new(),
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            degraded_links: Vec::new(),
            jitter_storms: Vec::new(),
            slow_detector: None,
            hedge: None,
            quarantine: None,
            speculative_rehoming: false,
            rto: VirtualDuration::from_us(250),
            rto_max: None,
            heartbeat_every: VirtualDuration::from_us(1_000),
            suspect_after: VirtualDuration::from_us(4_000),
            checkpoint_every: VirtualDuration::from_us(5_000),
            checkpoint_cost: VirtualDuration::from_us(20),
            restore_cost: VirtualDuration::from_us(200),
        }
    }

    /// The acceptance lossy network used across the workspace's tests
    /// and sweeps: 1% drop and 0.5% duplication on every link.
    pub fn lossy() -> Self {
        FaultPlan::none().with_drop(0.01).with_duplicate(0.005)
    }

    /// Alias for [`FaultPlan::none`] reading better as a builder seed.
    pub fn new() -> Self {
        FaultPlan::none()
    }

    /// Set the default per-message drop probability on every link.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.default_probs.drop = p;
        self.default_probs.validate();
        self
    }

    /// Set the default per-message duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.default_probs.duplicate = p;
        self.default_probs.validate();
        self
    }

    /// Set the default per-message reorder probability (an extra delay
    /// drawn uniformly from `(0, reorder_window]`).
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.default_probs.reorder = p;
        self.default_probs.validate();
        self
    }

    /// Set the reorder/duplicate-skew window.
    pub fn with_reorder_window(mut self, w: VirtualDuration) -> Self {
        assert!(!w.is_zero(), "reorder window must be positive");
        self.reorder_window = w;
        self
    }

    /// Override the fault probabilities of one `src → dst` link.
    pub fn with_link(mut self, src: u16, dst: u16, probs: LinkProbs) -> Self {
        probs.validate();
        self.link_overrides.push((src, dst, probs));
        self
    }

    /// Add a latency-spike window multiplying flight latency by `factor`.
    pub fn with_latency_spike(mut self, start: VirtualTime, end: VirtualTime, factor: f64) -> Self {
        assert!(end > start, "spike window must be non-empty");
        assert!(factor >= 1.0, "spike factor must be at least 1.0");
        self.spikes.push(SpikeWindow { start, end, factor });
        self
    }

    /// Add a brownout window dropping every message on every link.
    pub fn with_brownout(mut self, start: VirtualTime, end: VirtualTime) -> Self {
        assert!(end > start, "brownout window must be non-empty");
        self.brownouts.push(BrownoutWindow {
            start,
            end,
            link: None,
        });
        self
    }

    /// Add a brownout window dropping every message on one link.
    pub fn with_link_brownout(
        mut self,
        src: u16,
        dst: u16,
        start: VirtualTime,
        end: VirtualTime,
    ) -> Self {
        assert!(end > start, "brownout window must be non-empty");
        self.brownouts.push(BrownoutWindow {
            start,
            end,
            link: Some((src, dst)),
        });
        self
    }

    /// Add a pause (stall) interval for one node.
    pub fn with_node_pause(mut self, node: u16, start: VirtualTime, end: VirtualTime) -> Self {
        assert!(end > start, "pause window must be non-empty");
        self.pauses.push(PauseWindow { node, start, end });
        self
    }

    /// Crash `node` at `t` and leave it down until the failure detector
    /// declares it (failover-restart at the detection instant).
    pub fn with_node_crash(mut self, node: u16, t: VirtualTime) -> Self {
        self.crashes.push(CrashWindow {
            node,
            down: t,
            up: None,
        });
        self
    }

    /// Crash `node` at `t_down` and restart it at `t_up`, replaying its
    /// last checkpoint.
    pub fn with_crash_restart(mut self, node: u16, t_down: VirtualTime, t_up: VirtualTime) -> Self {
        assert!(t_up > t_down, "crash window must be non-empty");
        self.crashes.push(CrashWindow {
            node,
            down: t_down,
            up: Some(t_up),
        });
        self
    }

    /// Add a fail-slow window: `node`'s EU/SU costs and outbound flight
    /// latencies are multiplied by `factor` while `start <= now < end`.
    pub fn with_node_slowdown(
        mut self,
        node: u16,
        start: VirtualTime,
        end: VirtualTime,
        factor: f64,
    ) -> Self {
        assert!(end > start, "slowdown window must be non-empty");
        assert!(factor >= 1.0, "slowdown factor must be at least 1.0");
        self.slowdowns.push(SlowdownWindow {
            node,
            start,
            end,
            factor,
        });
        self
    }

    /// Add a degraded-link window multiplying flight latency on the
    /// directed link `src → dst` by `factor`. Degrade only one
    /// direction for an asymmetric link fault.
    pub fn with_link_degradation(
        mut self,
        src: u16,
        dst: u16,
        start: VirtualTime,
        end: VirtualTime,
        factor: f64,
    ) -> Self {
        assert!(end > start, "degraded-link window must be non-empty");
        assert!(factor >= 1.0, "degradation factor must be at least 1.0");
        self.degraded_links.push(DegradedLink {
            src,
            dst,
            start,
            end,
            factor,
        });
        self
    }

    /// Add a jitter-storm window: every delivery inside it picks up an
    /// extra uniform delay in `(0, max_extra]` from a dedicated counter
    /// lane (existing fate draws are untouched).
    pub fn with_jitter_storm(
        mut self,
        start: VirtualTime,
        end: VirtualTime,
        max_extra: VirtualDuration,
    ) -> Self {
        assert!(end > start, "jitter-storm window must be non-empty");
        assert!(!max_extra.is_zero(), "jitter-storm extra must be positive");
        self.jitter_storms.push(JitterStorm {
            start,
            end,
            max_extra,
        });
        self
    }

    /// Arm the latency-outlier detector: suspect a node slow when its
    /// ack-RTT EWMA exceeds `threshold ×` the median EWMA after at
    /// least `min_samples` observations.
    pub fn with_slow_detector(mut self, threshold: f64, min_samples: u32) -> Self {
        assert!(threshold > 1.0, "outlier threshold must exceed 1.0");
        assert!(min_samples >= 1, "detector needs at least one sample");
        self.slow_detector = Some(SlowDetector {
            threshold,
            min_samples,
        });
        self
    }

    /// Arm hedged retransmits: with no ack after `factor ×` the
    /// expected (or observed-EWMA) round trip, re-send once to the same
    /// destination; receiver-side dedup makes the hedge safe.
    pub fn with_hedging(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "hedge delay factor must be positive");
        self.hedge = Some(factor);
        self
    }

    /// Arm quarantine: keep a Suspected-Slow node off the steal-victim
    /// and traffic home-routing paths until `d` after its last slow
    /// observation, then let normal traffic probe it half-open.
    pub fn with_quarantine(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "quarantine duration must be positive");
        self.quarantine = Some(d);
        self
    }

    /// Arm speculative re-homing: drain a node's queued tokens to
    /// healthy homes the moment it is quarantined.
    pub fn with_speculative_rehoming(mut self) -> Self {
        self.speculative_rehoming = true;
        self
    }

    /// Set the failure-detector probe period.
    pub fn with_heartbeat_every(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "heartbeat period must be positive");
        self.heartbeat_every = d;
        self
    }

    /// Set the failure-detector suspicion timeout.
    pub fn with_suspect_after(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "suspicion timeout must be positive");
        self.suspect_after = d;
        self
    }

    /// Set the checkpoint period.
    pub fn with_checkpoint_every(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "checkpoint period must be positive");
        self.checkpoint_every = d;
        self
    }

    /// Set the EU cost of taking one checkpoint.
    pub fn with_checkpoint_cost(mut self, d: VirtualDuration) -> Self {
        self.checkpoint_cost = d;
        self
    }

    /// Set the EU cost of restoring a checkpoint on recovery.
    pub fn with_restore_cost(mut self, d: VirtualDuration) -> Self {
        self.restore_cost = d;
        self
    }

    /// Set the base retransmission timeout margin.
    pub fn with_rto(mut self, rto: VirtualDuration) -> Self {
        assert!(!rto.is_zero(), "rto must be positive");
        self.rto = rto;
        self
    }

    /// Cap the backed-off retransmission timeout at `max` so long
    /// outages can't double it into absurd virtual times.
    pub fn with_rto_cap(mut self, max: VirtualDuration) -> Self {
        assert!(!max.is_zero(), "rto cap must be positive");
        self.rto_max = Some(max);
        self
    }

    /// The effective retransmission-timeout ceiling: the configured cap,
    /// or `64 × rto` — exactly what the attempt-shift cap alone used to
    /// enforce, so plans without an explicit cap are byte-identical.
    pub fn rto_cap(&self) -> VirtualDuration {
        self.rto_max.unwrap_or_else(|| self.rto.times(64))
    }

    /// True when the plan schedules at least one crash-stop window (the
    /// runtime arms the detector/checkpoint plane only then).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// True when the plan arms any straggler defense (outlier detector
    /// or hedged retransmits — quarantine and speculative re-homing
    /// only act on detector verdicts). The runtime allocates its slow
    /// state only then.
    pub fn has_straggler_defenses(&self) -> bool {
        self.slow_detector.is_some() || self.hedge.is_some()
    }

    /// True when the plan can never inject anything: no probability is
    /// positive and no window exists. Trivial plans are normalized to
    /// "no fault plane installed" so the hook stays provably free.
    pub fn is_trivial(&self) -> bool {
        self.default_probs.is_trivial()
            && self.link_overrides.iter().all(|(_, _, p)| p.is_trivial())
            && self.spikes.is_empty()
            && self.brownouts.is_empty()
            && self.pauses.is_empty()
            && self.crashes.is_empty()
            && self.slowdowns.is_empty()
            && self.degraded_links.is_empty()
            && self.jitter_storms.is_empty()
            // Defense knobs install real behavior (the reliability
            // envelope layer, hedge events, quarantine routing), so a
            // defense-only plan is *not* trivial.
            && self.slow_detector.is_none()
            && self.hedge.is_none()
            && self.quarantine.is_none()
            && !self.speculative_rehoming
    }

    /// Effective probabilities for one link.
    pub fn link_probs(&self, src: u16, dst: u16) -> LinkProbs {
        self.link_overrides
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, p)| *p)
            .unwrap_or(self.default_probs)
    }

    fn in_brownout(&self, now: VirtualTime, src: u16, dst: u16) -> bool {
        self.brownouts.iter().any(|b| {
            now >= b.start && now < b.end && b.link.map(|l| l == (src, dst)).unwrap_or(true)
        })
    }
}

/// What the fault plane decided for one injected message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message and a second copy `skew` later.
    Duplicate {
        /// Extra delay of the duplicate copy relative to the original.
        skew: VirtualDuration,
    },
    /// Deliver the message `extra` later than its natural arrival.
    Delay {
        /// The extra holding delay.
        extra: VirtualDuration,
    },
}

/// What kind of fault fired (the fault-event log / Chrome faults lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped (probability or brownout).
    Drop,
    /// A message was duplicated.
    Duplicate,
    /// A message was held back (reorder delay).
    Delay,
}

/// A [`FaultPlan`] compiled against a seed and a node count: the object
/// the network consults on every remote send.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    seed: u64,
    nodes: u16,
    /// Per-link message counters indexing the counter-based stream.
    counters: Vec<u64>,
    /// Per-node pause step function: disjoint `(start, end, resume)`
    /// segments sorted by start, where `resume` is the instant
    /// `pause_until` reports anywhere inside the segment. Compiled once
    /// at construction so the per-event query never rescans the plan.
    pause_segs: Vec<Vec<(VirtualTime, VirtualTime, VirtualTime)>>,
    /// Per-node cursor into `pause_segs`: event times are globally
    /// non-decreasing, so each node's queries only ever move forward and
    /// the lookup is O(1) amortized.
    pause_cursor: Vec<usize>,
    /// Per-link counters for the jitter-storm lane. Dedicated so arming
    /// a storm never shifts the drop/duplicate/reorder fate stream —
    /// fates stay pure functions of `(seed, src, dst, k)` per lane.
    storm_counters: Vec<u64>,
    /// Per-node slowdown step function: disjoint `(start, end, factor)`
    /// segments sorted by start (overlap takes the max factor), same
    /// compile-once shape as `pause_segs`.
    slow_segs: Vec<Vec<(VirtualTime, VirtualTime, f64)>>,
    /// Per-node forward-only cursor into `slow_segs`. Only the
    /// runtime's event-loop queries (which ride globally non-decreasing
    /// pop times) may use the cursor; network send-path queries can
    /// regress and must use [`FaultState::slow_factor_scan`].
    slow_cursor: Vec<usize>,
}

/// Compile one node's pause windows into the disjoint segments of
/// `max { end : start <= t < end }` — the exact step function the
/// linear scan computes, including the "overlap takes the furthest
/// end *among covering windows*" shape (a window starting later than
/// `t` must not contribute even when it overlaps an active one).
fn pause_segments(
    windows: &[PauseWindow],
    node: u16,
) -> Vec<(VirtualTime, VirtualTime, VirtualTime)> {
    let mine: Vec<&PauseWindow> = windows.iter().filter(|w| w.node == node).collect();
    if mine.is_empty() {
        return Vec::new();
    }
    let mut cuts: Vec<VirtualTime> = mine.iter().flat_map(|w| [w.start, w.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut segs: Vec<(VirtualTime, VirtualTime, VirtualTime)> = Vec::new();
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let resume = mine
            .iter()
            .filter(|w| w.start <= a && a < w.end)
            .map(|w| w.end)
            .max();
        if let Some(r) = resume {
            match segs.last_mut() {
                // Coalesce abutting segments with the same resume so the
                // cursor skips fewer pieces; different resumes must stay
                // split to preserve the scan's exact answers.
                Some(last) if last.1 == a && last.2 == r => last.1 = b,
                _ => segs.push((a, b, r)),
            }
        }
    }
    segs
}

/// Compile one node's fail-slow windows into disjoint
/// `(start, end, factor)` segments — the step function of
/// `max { factor : start <= t < end }`, mirroring [`pause_segments`].
fn slow_segments(windows: &[SlowdownWindow], node: u16) -> Vec<(VirtualTime, VirtualTime, f64)> {
    let mine: Vec<&SlowdownWindow> = windows.iter().filter(|w| w.node == node).collect();
    if mine.is_empty() {
        return Vec::new();
    }
    let mut cuts: Vec<VirtualTime> = mine.iter().flat_map(|w| [w.start, w.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut segs: Vec<(VirtualTime, VirtualTime, f64)> = Vec::new();
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let factor = mine
            .iter()
            .filter(|w| w.start <= a && a < w.end)
            .map(|w| w.factor)
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |m| m.max(f)))
            });
        if let Some(f) = factor {
            match segs.last_mut() {
                // Coalesce abutting equal-factor segments; different
                // factors must stay split to preserve scan answers.
                Some(last) if last.1 == a && last.2 == f => last.1 = b,
                _ => segs.push((a, b, f)),
            }
        }
    }
    segs
}

impl FaultState {
    /// Compile `plan` for a `nodes`-node machine. `seed` should come
    /// from the machine's master seed through a dedicated salt so fault
    /// draws never overlap the latency-jitter stream.
    pub fn new(plan: FaultPlan, seed: u64, nodes: u16) -> Self {
        let n = nodes as usize;
        let pause_segs = (0..nodes)
            .map(|i| pause_segments(&plan.pauses, i))
            .collect();
        let slow_segs = (0..nodes)
            .map(|i| slow_segments(&plan.slowdowns, i))
            .collect();
        FaultState {
            plan,
            seed,
            nodes,
            counters: vec![0; n * n],
            pause_segs,
            pause_cursor: vec![0; n],
            storm_counters: vec![0; n * n],
            slow_segs,
            slow_cursor: vec![0; n],
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of the next message on `src → dst` injected at
    /// `now`. Advances the link's message counter; every decision is a
    /// pure function of `(seed, src, dst, counter)`.
    pub fn fate(&mut self, now: VirtualTime, src: u16, dst: u16) -> Fate {
        let idx = src as usize * self.nodes as usize + dst as usize;
        let k = self.counters[idx];
        self.counters[idx] += 1;
        if self.plan.in_brownout(now, src, dst) {
            return Fate::Drop;
        }
        let probs = self.plan.link_probs(src, dst);
        if probs.is_trivial() {
            return Fate::Deliver;
        }
        // Counter-based stream: expand (seed, link, k) into independent
        // decision words with the SplitMix64 finalizer.
        let mut s = self.seed
            ^ (src as u64) << 48
            ^ (dst as u64) << 32
            ^ k.wrapping_mul(0xA24B_AED4_963E_E407);
        let d_drop = splitmix64(&mut s);
        let d_dup = splitmix64(&mut s);
        let d_reorder = splitmix64(&mut s);
        let d_mag = splitmix64(&mut s);
        if unit(d_drop) < probs.drop {
            return Fate::Drop;
        }
        // Magnitude draw in (0, reorder_window]: never zero, so a
        // duplicate copy always lands strictly after the original.
        let mag_ns = 1 + (unit(d_mag) * self.plan.reorder_window.as_ns() as f64) as u64;
        let mag = VirtualDuration::from_ns(mag_ns);
        if unit(d_dup) < probs.duplicate {
            return Fate::Duplicate { skew: mag };
        }
        if unit(d_reorder) < probs.reorder {
            return Fate::Delay { extra: mag };
        }
        Fate::Deliver
    }

    /// Flight-latency multiplier in force at `now` (latency-spike
    /// windows; overlapping windows take the largest factor).
    pub fn latency_factor(&self, now: VirtualTime) -> f64 {
        self.plan
            .spikes
            .iter()
            .filter(|w| now >= w.start && now < w.end)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// If `node` is paused at `t`, the instant its stall ends (the
    /// furthest end among windows covering `t`); `None` when running.
    ///
    /// Queries ride the event loop, whose times never decrease, so each
    /// node's cursor into its precompiled segments only moves forward:
    /// O(1) amortized instead of a scan over the plan per event.
    pub fn pause_until(&mut self, node: u16, t: VirtualTime) -> Option<VirtualTime> {
        let segs = &self.pause_segs[node as usize];
        let cur = &mut self.pause_cursor[node as usize];
        while *cur < segs.len() && segs[*cur].1 <= t {
            *cur += 1;
        }
        match segs.get(*cur) {
            Some(&(start, _, resume)) if start <= t => Some(resume),
            _ => None,
        }
    }

    /// Reference implementation of [`FaultState::pause_until`]: the
    /// original linear scan over the raw plan windows. Kept so tests can
    /// assert the segment/cursor fast path never changes an answer (and
    /// therefore never changes a schedule byte).
    pub fn pause_until_scan(&self, node: u16, t: VirtualTime) -> Option<VirtualTime> {
        self.plan
            .pauses
            .iter()
            .filter(|w| w.node == node && t >= w.start && t < w.end)
            .map(|w| w.end)
            .max()
    }

    /// Fail-slow multiplier for `node`'s EU/SU costs at `t`, via the
    /// precompiled segments and a forward-only cursor.
    ///
    /// Only safe for the runtime's event-loop queries, whose times ride
    /// the globally non-decreasing pop order; the network's send path
    /// can query backwards (an ack transmit triggered by a delivery can
    /// precede an already-computed in-round send instant) and must use
    /// [`FaultState::slow_factor_scan`].
    pub fn slow_factor(&mut self, node: u16, t: VirtualTime) -> f64 {
        let segs = &self.slow_segs[node as usize];
        if segs.is_empty() {
            return 1.0;
        }
        let cur = &mut self.slow_cursor[node as usize];
        while *cur < segs.len() && segs[*cur].1 <= t {
            *cur += 1;
        }
        match segs.get(*cur) {
            Some(&(start, _, f)) if start <= t => f,
            _ => 1.0,
        }
    }

    /// Reference (and send-path) implementation of
    /// [`FaultState::slow_factor`]: a linear scan over the raw windows,
    /// valid for queries in any time order.
    pub fn slow_factor_scan(&self, node: u16, t: VirtualTime) -> f64 {
        self.plan
            .slowdowns
            .iter()
            .filter(|w| w.node == node && t >= w.start && t < w.end)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Flight-latency multiplier from degraded-link windows covering
    /// `now` on the directed link `src → dst` (overlap takes the max).
    pub fn degrade_factor(&self, now: VirtualTime, src: u16, dst: u16) -> f64 {
        self.plan
            .degraded_links
            .iter()
            .filter(|w| w.src == src && w.dst == dst && now >= w.start && now < w.end)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Extra delivery delay from a jitter storm covering `now`, drawn
    /// uniformly from `(0, max_extra]` on a dedicated per-link counter
    /// lane (the lane only advances inside storm windows, so the
    /// drop/duplicate/reorder stream never shifts). `None` outside any
    /// storm.
    pub fn storm_extra(&mut self, now: VirtualTime, src: u16, dst: u16) -> Option<VirtualDuration> {
        let max_extra = self
            .plan
            .jitter_storms
            .iter()
            .filter(|w| now >= w.start && now < w.end)
            .map(|w| w.max_extra)
            .max()?;
        let idx = src as usize * self.nodes as usize + dst as usize;
        let k = self.storm_counters[idx];
        self.storm_counters[idx] += 1;
        let mut s = self.seed
            ^ 0x73_746F_726Du64 // lane salt ("storm") keeping storm draws off the fate words
            ^ (src as u64) << 48
            ^ (dst as u64) << 32
            ^ k.wrapping_mul(0xA24B_AED4_963E_E407);
        let extra_ns = 1 + (unit(splitmix64(&mut s)) * max_extra.as_ns() as f64) as u64;
        Some(VirtualDuration::from_ns(extra_ns))
    }

    /// Base retransmission timeout margin from the plan.
    pub fn rto(&self) -> VirtualDuration {
        self.plan.rto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_ns(us * 1000)
    }

    #[test]
    fn none_is_trivial_and_default() {
        assert!(FaultPlan::none().is_trivial());
        assert!(FaultPlan::default().is_trivial());
        assert!(FaultPlan::new().with_drop(0.0).is_trivial());
        assert!(!FaultPlan::new().with_drop(0.01).is_trivial());
        assert!(!FaultPlan::new()
            .with_node_pause(3, t(0), t(10))
            .is_trivial());
        assert!(!FaultPlan::new()
            .with_latency_spike(t(0), t(10), 4.0)
            .is_trivial());
    }

    #[test]
    fn lossy_drops_one_percent_and_duplicates_half_a_percent() {
        let p = FaultPlan::lossy();
        assert_eq!(p.default_probs.drop, 0.01);
        assert_eq!(p.default_probs.duplicate, 0.005);
        assert_eq!(p.default_probs.reorder, 0.0);
        assert!(!p.is_trivial());
    }

    #[test]
    fn trivial_link_overrides_stay_trivial() {
        let p = FaultPlan::new().with_link(0, 1, LinkProbs::NONE);
        assert!(p.is_trivial());
        let q = FaultPlan::new().with_link(
            0,
            1,
            LinkProbs {
                drop: 0.5,
                ..LinkProbs::NONE
            },
        );
        assert!(!q.is_trivial());
    }

    #[test]
    fn same_seed_plan_same_schedule() {
        let plan = FaultPlan::new()
            .with_drop(0.2)
            .with_duplicate(0.1)
            .with_reorder(0.1);
        let mut a = FaultState::new(plan.clone(), 99, 4);
        let mut b = FaultState::new(plan, 99, 4);
        for i in 0..500u64 {
            let src = (i % 4) as u16;
            let dst = ((i + 1) % 4) as u16;
            assert_eq!(a.fate(t(i), src, dst), b.fate(t(i), src, dst));
        }
    }

    #[test]
    fn schedule_is_independent_of_link_interleaving() {
        // The k-th message on link 0->1 gets the same fate whether or
        // not other links carried traffic in between.
        let plan = FaultPlan::new().with_drop(0.3).with_duplicate(0.2);
        let mut alone = FaultState::new(plan.clone(), 7, 4);
        let solo: Vec<Fate> = (0..100).map(|i| alone.fate(t(i), 0, 1)).collect();
        let mut mixed = FaultState::new(plan, 7, 4);
        let mut interleaved = Vec::new();
        for i in 0..100u64 {
            let _ = mixed.fate(t(i), 2, 3);
            interleaved.push(mixed.fate(t(i), 0, 1));
            let _ = mixed.fate(t(i), 1, 0);
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn fates_actually_vary() {
        let plan = FaultPlan::new()
            .with_drop(0.25)
            .with_duplicate(0.25)
            .with_reorder(0.25);
        let mut st = FaultState::new(plan, 3, 2);
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        let mut ok = 0;
        for i in 0..2000u64 {
            match st.fate(t(i), 0, 1) {
                Fate::Drop => drops += 1,
                Fate::Duplicate { skew } => {
                    assert!(!skew.is_zero());
                    dups += 1;
                }
                Fate::Delay { extra } => {
                    assert!(!extra.is_zero());
                    delays += 1;
                }
                Fate::Deliver => ok += 1,
            }
        }
        // Draws are conditional (drop, then duplicate, then reorder), so
        // later fates fire at 0.25 of the remaining mass: expected
        // ~500 / ~375 / ~281 out of 2000.
        for (name, n, lo, hi) in [
            ("drop", drops, 400, 620),
            ("dup", dups, 280, 480),
            ("delay", delays, 190, 380),
        ] {
            assert!((lo..hi).contains(&n), "{name} fired {n}/2000");
        }
        assert!(ok > 500, "deliver fired {ok}/2000");
    }

    #[test]
    fn link_overrides_take_precedence() {
        let plan = FaultPlan::new().with_link(
            0,
            1,
            LinkProbs {
                drop: 0.9,
                ..LinkProbs::NONE
            },
        );
        let mut st = FaultState::new(plan, 5, 4);
        let dropped_01 = (0..200)
            .filter(|&i| st.fate(t(i), 0, 1) == Fate::Drop)
            .count();
        let dropped_23 = (0..200)
            .filter(|&i| st.fate(t(i), 2, 3) == Fate::Drop)
            .count();
        assert!(dropped_01 > 150, "override link dropped {dropped_01}/200");
        assert_eq!(dropped_23, 0, "default link must stay clean");
    }

    #[test]
    fn brownout_drops_everything_in_window() {
        let plan = FaultPlan::new().with_brownout(t(10), t(20));
        let mut st = FaultState::new(plan, 1, 2);
        assert_eq!(st.fate(t(9), 0, 1), Fate::Deliver);
        assert_eq!(st.fate(t(10), 0, 1), Fate::Drop);
        assert_eq!(st.fate(t(19), 0, 1), Fate::Drop);
        assert_eq!(st.fate(t(20), 0, 1), Fate::Deliver);
    }

    #[test]
    fn link_brownout_scopes_to_one_link() {
        let plan = FaultPlan::new().with_link_brownout(0, 1, t(0), t(100));
        let mut st = FaultState::new(plan, 1, 2);
        assert_eq!(st.fate(t(5), 0, 1), Fate::Drop);
        assert_eq!(st.fate(t(5), 1, 0), Fate::Deliver);
    }

    #[test]
    fn spikes_scale_latency_in_window_only() {
        let plan = FaultPlan::new()
            .with_latency_spike(t(10), t(20), 3.0)
            .with_latency_spike(t(15), t(30), 5.0);
        let st = FaultState::new(plan, 1, 2);
        assert_eq!(st.latency_factor(t(5)), 1.0);
        assert_eq!(st.latency_factor(t(12)), 3.0);
        assert_eq!(st.latency_factor(t(17)), 5.0, "overlap takes the max");
        assert_eq!(st.latency_factor(t(25)), 5.0);
        assert_eq!(st.latency_factor(t(30)), 1.0);
    }

    #[test]
    fn pause_windows_report_resume_instant() {
        let plan = FaultPlan::new()
            .with_node_pause(2, t(10), t(20))
            .with_node_pause(2, t(15), t(40));
        let mut st = FaultState::new(plan, 1, 4);
        assert_eq!(st.pause_until(2, t(5)), None);
        assert_eq!(st.pause_until(2, t(12)), Some(t(20)));
        assert_eq!(
            st.pause_until(2, t(16)),
            Some(t(40)),
            "overlap takes the max"
        );
        assert_eq!(st.pause_until(1, t(12)), None, "other nodes unaffected");
        assert_eq!(st.pause_until(2, t(40)), None, "end is exclusive");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn probability_of_one_is_rejected() {
        let _ = FaultPlan::new().with_drop(1.0);
    }

    #[test]
    fn crash_windows_arm_the_plan() {
        let p = FaultPlan::new().with_node_crash(3, t(500));
        assert!(!p.is_trivial(), "a crash-only plan must install");
        assert!(p.has_crashes());
        assert_eq!(p.crashes[0].up, None, "crash-stop waits for failover");
        let q = FaultPlan::new().with_crash_restart(1, t(100), t(900));
        assert_eq!(q.crashes[0].up, Some(t(900)));
        assert!(!FaultPlan::new().has_crashes());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_crash_window_is_rejected() {
        let _ = FaultPlan::new().with_crash_restart(0, t(10), t(10));
    }

    #[test]
    fn rto_cap_defaults_to_the_old_shift_ceiling() {
        let p = FaultPlan::new().with_rto(VirtualDuration::from_us(250));
        assert_eq!(p.rto_cap(), VirtualDuration::from_us(250).times(64));
        let q = p.with_rto_cap(VirtualDuration::from_us(2_000));
        assert_eq!(q.rto_cap(), VirtualDuration::from_us(2_000));
    }

    #[test]
    fn pause_cursor_matches_linear_scan_on_monotone_queries() {
        // Messy overlapping / nested / abutting windows across nodes,
        // probed at every microsecond in event order: the precompiled
        // segments must reproduce the scan answer exactly.
        let plan = FaultPlan::new()
            .with_node_pause(0, t(10), t(20))
            .with_node_pause(0, t(15), t(40))
            .with_node_pause(0, t(40), t(45))
            .with_node_pause(1, t(5), t(50))
            .with_node_pause(1, t(8), t(12))
            .with_node_pause(2, t(30), t(31));
        let mut fast = FaultState::new(plan, 11, 4);
        let slow = fast.clone();
        for us in 0..60u64 {
            for node in 0..4u16 {
                assert_eq!(
                    fast.pause_until(node, t(us)),
                    slow.pause_until_scan(node, t(us)),
                    "node {node} at {us}us"
                );
            }
        }
    }

    #[test]
    fn pause_cursor_is_exact_at_window_edges() {
        let plan = FaultPlan::new()
            .with_node_pause(2, t(10), t(20))
            .with_node_pause(2, t(20), t(30));
        let mut st = FaultState::new(plan, 1, 4);
        // Abutting windows must not merge into one resume instant: at
        // t=19 only the first window covers, so the node wakes at 20 and
        // re-queries — exactly what the linear scan reported.
        assert_eq!(st.pause_until(2, t(19)), Some(t(20)));
        assert_eq!(st.pause_until(2, t(20)), Some(t(30)));
        assert_eq!(st.pause_until(2, t(30)), None);
    }

    #[test]
    fn gray_failure_knobs_make_a_plan_non_trivial() {
        assert!(!FaultPlan::new()
            .with_node_slowdown(1, t(0), t(10), 4.0)
            .is_trivial());
        assert!(!FaultPlan::new()
            .with_link_degradation(0, 1, t(0), t(10), 2.0)
            .is_trivial());
        assert!(!FaultPlan::new()
            .with_jitter_storm(t(0), t(10), VirtualDuration::from_us(5))
            .is_trivial());
        // Defense-only plans install real behavior (envelopes, hedges,
        // quarantine routing), so they are not trivial either.
        assert!(!FaultPlan::new().with_slow_detector(3.0, 4).is_trivial());
        assert!(!FaultPlan::new().with_hedging(1.5).is_trivial());
        assert!(!FaultPlan::new()
            .with_quarantine(VirtualDuration::from_us(500))
            .is_trivial());
        assert!(!FaultPlan::new().with_speculative_rehoming().is_trivial());
        assert!(!FaultPlan::new().has_straggler_defenses());
        assert!(FaultPlan::new().with_hedging(1.5).has_straggler_defenses());
        assert!(FaultPlan::new()
            .with_slow_detector(3.0, 4)
            .has_straggler_defenses());
    }

    #[test]
    fn slow_factor_cursor_matches_linear_scan_on_monotone_queries() {
        // Overlapping / nested / abutting slowdown windows, probed in
        // event order: precompiled segments must reproduce the scan.
        let plan = FaultPlan::new()
            .with_node_slowdown(0, t(10), t(20), 2.0)
            .with_node_slowdown(0, t(15), t(40), 8.0)
            .with_node_slowdown(0, t(40), t(45), 3.0)
            .with_node_slowdown(1, t(5), t(50), 4.0)
            .with_node_slowdown(1, t(8), t(12), 2.0)
            .with_node_slowdown(2, t(30), t(31), 16.0);
        let mut fast = FaultState::new(plan, 11, 4);
        let slow = fast.clone();
        for us in 0..60u64 {
            for node in 0..4u16 {
                assert_eq!(
                    fast.slow_factor(node, t(us)),
                    slow.slow_factor_scan(node, t(us)),
                    "node {node} at {us}us"
                );
            }
        }
    }

    #[test]
    fn slow_factor_is_exact_at_window_edges() {
        let plan = FaultPlan::new()
            .with_node_slowdown(2, t(10), t(20), 2.0)
            .with_node_slowdown(2, t(20), t(30), 4.0);
        let mut st = FaultState::new(plan, 1, 4);
        assert_eq!(st.slow_factor(2, t(9)), 1.0);
        assert_eq!(st.slow_factor(2, t(19)), 2.0);
        assert_eq!(st.slow_factor(2, t(20)), 4.0, "abutting factors stay split");
        assert_eq!(st.slow_factor(2, t(30)), 1.0, "end is exclusive");
        assert_eq!(st.slow_factor(3, t(15)), 1.0, "other nodes unaffected");
    }

    #[test]
    fn degrade_factor_is_directional_and_windowed() {
        let plan = FaultPlan::new()
            .with_link_degradation(0, 1, t(10), t(20), 3.0)
            .with_link_degradation(0, 1, t(15), t(25), 5.0);
        let st = FaultState::new(plan, 1, 2);
        assert_eq!(st.degrade_factor(t(5), 0, 1), 1.0);
        assert_eq!(st.degrade_factor(t(12), 0, 1), 3.0);
        assert_eq!(st.degrade_factor(t(17), 0, 1), 5.0, "overlap takes max");
        assert_eq!(
            st.degrade_factor(t(12), 1, 0),
            1.0,
            "asymmetric: reverse clean"
        );
        assert_eq!(st.degrade_factor(t(25), 0, 1), 1.0);
    }

    #[test]
    fn storm_draws_ride_a_dedicated_lane() {
        // Arming a jitter storm must not shift the fate stream: the
        // k-th fate on a link is identical with and without the storm.
        let base = FaultPlan::new().with_drop(0.3).with_duplicate(0.2);
        let stormy = base
            .clone()
            .with_jitter_storm(t(0), t(1_000), VirtualDuration::from_us(10));
        let mut a = FaultState::new(base, 7, 4);
        let mut b = FaultState::new(stormy, 7, 4);
        for i in 0..200u64 {
            let _ = b.storm_extra(t(i), 0, 1);
            assert_eq!(a.fate(t(i), 0, 1), b.fate(t(i), 0, 1), "message {i}");
        }
    }

    #[test]
    fn storm_extra_is_bounded_windowed_and_deterministic() {
        let max = VirtualDuration::from_us(10);
        let plan = FaultPlan::new().with_jitter_storm(t(100), t(200), max);
        let mut a = FaultState::new(plan.clone(), 13, 2);
        let mut b = FaultState::new(plan, 13, 2);
        assert_eq!(a.storm_extra(t(50), 0, 1), None, "before the storm");
        assert_eq!(a.storm_extra(t(200), 0, 1), None, "end is exclusive");
        assert_eq!(b.storm_extra(t(50), 0, 1), None);
        assert_eq!(b.storm_extra(t(200), 0, 1), None);
        for i in 0..100u64 {
            let ea = a.storm_extra(t(100 + i), 0, 1).expect("inside the storm");
            let eb = b.storm_extra(t(100 + i), 0, 1).expect("inside the storm");
            assert_eq!(ea, eb, "draw {i} must replay");
            assert!(
                !ea.is_zero() && ea <= max,
                "draw {i} out of (0, max]: {ea:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn sub_unit_slowdown_factor_is_rejected() {
        let _ = FaultPlan::new().with_node_slowdown(0, t(0), t(10), 0.5);
    }

    #[test]
    #[should_panic(expected = "must exceed 1.0")]
    fn slow_detector_threshold_of_one_is_rejected() {
        let _ = FaultPlan::new().with_slow_detector(1.0, 4);
    }
}
