//! Deterministic discrete-event simulation core for the EARTH-MANNA
//! reproduction suite.
//!
//! Everything the runtime and machine model measure is expressed in
//! *virtual time*: the simulated nanoseconds elapsed on the modeled 1997
//! MANNA hardware, not host wall-clock time. This crate provides the three
//! deterministic building blocks the rest of the workspace is built on:
//!
//! * [`VirtualTime`] / [`VirtualDuration`] — a nanosecond-resolution clock
//!   with saturating/checked arithmetic and human-readable formatting;
//! * [`EventQueue`] — a priority queue of timestamped events with a total,
//!   reproducible ordering (ties broken by insertion sequence number), plus
//!   [`RadixQueue`], a pop-for-pop identical monotone radix queue with
//!   amortized O(1) push/pop over compact keys and slab-held events,
//!   selected per simulation via [`QueueKind`];
//! * [`Rng`] — a small, self-contained xoshiro256** PRNG seeded via
//!   SplitMix64, so simulations are bit-identical for a given seed
//!   regardless of dependency versions or platform.
//!
//! [`stats`] adds the summary helpers (mean / min / max / stddev, speedup
//! series) used by the benchmark harness to reproduce the paper's figures.

pub mod order;
pub mod queue;
pub mod radix;
pub mod rng;
pub mod stats;
pub mod time;

pub use order::MinEntry;
pub use queue::EventQueue;
pub use radix::{QueueKind, RadixQueue, SimQueue};
pub use rng::{bounded_pareto, stream_word, unit_f64, word_bounded, Rng};
pub use stats::{nearest_rank, Breakdown, Summary};
pub use time::{VirtualDuration, VirtualTime};
