//! Cross-build golden for the Gröbner application: FNV-1a hashes of full
//! run renderings, pinned to the values the allocation-based reduction
//! kernel produced.
//!
//! `determinism.rs` compares two runs of the *same* build, so a kernel
//! change that altered a `Work` count (and with it virtual time) would
//! still pass there. These hashes cover every `Work`-derived quantity:
//! the parallel runs' `RunReport`s (virtual times, events, messages) and
//! bases, and the sequential `BuchbergerStats` with its per-pair work.

use earth_manna::algebra::buchberger::{buchberger, SelectionStrategy};
use earth_manna::algebra::inputs::{katsura, lazard};
use earth_manna::apps::groebner::run_groebner;

/// FNV-1a over a rendering.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn parallel_katsura4_runs_match_pinned_hashes() {
    let (ring, input) = katsura(4);
    let got: Vec<String> = (1..=4)
        .map(|seed| {
            let run = run_groebner(&ring, &input, 20, seed, SelectionStrategy::Sugar, None);
            let h = fnv1a(&format!("{:?}{:?}", run.report, run.basis));
            format!("{h:016x}")
        })
        .collect();
    assert_eq!(
        got,
        [
            "48d1bc9d3a17b323",
            "dfbf56aa409b5f76",
            "c6a0fd2c4c0ad5ba",
            "fe23aa76cc4c4587"
        ]
    );
}

#[test]
fn sequential_buchberger_stats_match_pinned_hashes() {
    let got: Vec<String> = [katsura(4), lazard()]
        .into_iter()
        .map(|(ring, input)| {
            let (basis, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
            let h = fnv1a(&format!("{stats:?}{basis:?}"));
            format!("{h:016x}")
        })
        .collect();
    assert_eq!(got, ["f5c6b1265ff8e1b2", "3e4ec1543156ed7e"]);
}
