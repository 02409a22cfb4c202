//! Traffic smoke: push a mixed-class open-loop job stream through the
//! admission/queueing front-end — once clean, once with a node crashed
//! and restarted mid-stream — and panic unless every job completes with
//! exact accounting and sane tail-latency percentiles.
//!
//! ```text
//! cargo run --example traffic_smoke
//! ```
//!
//! This is the `scripts/ci.sh` traffic stage: a fast end-to-end proof
//! that the traffic plane drains its stream under failure, that the
//! crash degrades latency only (never job completion), and that the
//! whole thing replays byte-identically.

use earth_manna::machine::{FaultPlan, MachineConfig};
use earth_manna::sim::VirtualTime;
use earth_manna::traffic::{run_traffic, run_traffic_on, TrafficPlan};

const NODES: u16 = 16;
const SEED: u64 = 42;

fn main() {
    let plan = TrafficPlan::new(7).with_jobs(48).with_offered_load(3_000.0);

    println!(
        "traffic smoke: {} jobs at {:.0}/s on {NODES} nodes",
        plan.jobs, plan.offered_load
    );

    let clean = run_traffic(&plan, NODES, SEED);
    let crash = FaultPlan::new().with_crash_restart(
        3,
        VirtualTime::from_ns(3_000_000),
        VirtualTime::from_ns(8_000_000),
    );
    let crashed = run_traffic_on(&plan, MachineConfig::manna(NODES).with_faults(crash), SEED);

    for (label, run) in [("clean", &clean), ("crashed", &crashed)] {
        let t = run.traffic();
        assert_eq!(
            t.completed, plan.jobs as u64,
            "{label}: stream did not drain"
        );
        assert!(t.is_conserved(), "{label}: job accounting leak");
        assert!(run.report.traffic_drained(), "{label}: jobs left in flight");
        assert!(
            run.report.is_clean(),
            "{label}: work leaked: {}",
            run.report
        );
        let sums = run.summaries();
        assert_eq!(
            sums.len(),
            4,
            "{label}: every class must see jobs: {sums:?}"
        );
        println!("  {label}: drained in {}", run.report.elapsed);
        for s in &sums {
            assert!(
                s.p50_us > 0.0 && s.p50_us <= s.p95_us && s.p95_us <= s.p99_us,
                "{label}: non-monotone percentiles: {s:?}"
            );
            println!(
                "    {:>9} x{:<3} p50 {:>8.0}us  p95 {:>8.0}us  p99 {:>8.0}us",
                s.name, s.jobs, s.p50_us, s.p95_us, s.p99_us
            );
        }
    }

    let crashes: u64 = crashed.report.nodes.iter().map(|n| n.crashes).sum();
    assert_eq!(crashes, 1, "the crash never fired");
    assert!(
        crashed.report.elapsed >= clean.report.elapsed,
        "a mid-stream crash cannot speed the stream up"
    );

    // Replay determinism, end to end.
    let again = run_traffic(&plan, NODES, SEED);
    assert_eq!(
        clean.report.traffic, again.report.traffic,
        "replay diverged"
    );

    println!("traffic smoke: OK");
}
