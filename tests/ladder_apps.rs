//! Queue-equivalence acceptance tests: every application must produce a
//! byte-identical `RunReport` whether the scheduler runs on the radix
//! queue or on the reference binary heap. The event core is the one
//! component every feature sits on, so these run the full stack —
//! including the fault plane and crash windows — under both
//! [`QueueKind`]s and diff the complete debug rendering of the reports
//! (every counter, every per-node stat, every mark).

use earth_manna::algebra::buchberger::SelectionStrategy;
use earth_manna::algebra::inputs::katsura;
use earth_manna::apps::eigen::{run_eigen_on, FetchMode};
use earth_manna::apps::groebner::run_groebner_on;
use earth_manna::apps::neural::{run_neural_on, CommsShape, PassMode};
use earth_manna::linalg::SymTridiagonal;
use earth_manna::machine::{FaultPlan, MachineConfig, QueueKind};
use earth_manna::rt::RunOpts;
use earth_manna::sim::VirtualTime;
use earth_manna::traffic::{run_traffic_on, TrafficPlan};

/// Two configurations that differ only in the event-queue implementation.
fn cfg_pair(nodes: u16) -> (MachineConfig, MachineConfig) {
    (
        MachineConfig::manna(nodes).with_queue(QueueKind::Heap),
        MachineConfig::manna(nodes).with_queue(QueueKind::Radix),
    )
}

#[test]
fn eigen_reports_identical_across_queue_kinds() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, radix_cfg) = cfg_pair(20);
    let heap = run_eigen_on(&m, 1e-6, FetchMode::Block, RunOpts::new(heap_cfg, 42));
    let radix = run_eigen_on(&m, 1e-6, FetchMode::Block, RunOpts::new(radix_cfg, 42));
    assert_eq!(heap.eigenvalues, radix.eigenvalues);
    assert_eq!(
        format!("{:?}", heap.report),
        format!("{:?}", radix.report),
        "radix queue must replay the heap schedule byte-for-byte"
    );
}

#[test]
fn eigen_reports_identical_across_queue_kinds_under_faults() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, radix_cfg) = cfg_pair(20);
    let run = |cfg: MachineConfig| {
        let opts = RunOpts::new(cfg.with_faults(FaultPlan::lossy()), 42);
        run_eigen_on(&m, 1e-6, FetchMode::Individual, opts)
    };
    let (heap, radix) = (run(heap_cfg), run(radix_cfg));
    assert!(
        heap.report.net_dropped > 0,
        "plan never fired; equivalence run is vacuous"
    );
    assert_eq!(format!("{:?}", heap.report), format!("{:?}", radix.report));
}

#[test]
fn eigen_reports_identical_across_queue_kinds_with_crash() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    // Failover crash: heartbeats, detection, recovery replay — the
    // densest event traffic the runtime generates.
    let plan = FaultPlan::new().with_node_crash(3, VirtualTime::from_ns(400_000_000));
    let (heap_cfg, radix_cfg) = cfg_pair(20);
    let run = |cfg: MachineConfig| {
        let opts = RunOpts::new(cfg.with_faults(plan.clone()), 42);
        run_eigen_on(&m, 1e-6, FetchMode::Block, opts)
    };
    let (heap, radix) = (run(heap_cfg), run(radix_cfg));
    assert_eq!(heap.report.total_crashes(), 1, "the crash never fired");
    assert_eq!(format!("{:?}", heap.report), format!("{:?}", radix.report));
}

#[test]
fn groebner_reports_identical_across_queue_kinds() {
    let (ring, input) = katsura(3);
    for plan in [FaultPlan::none(), FaultPlan::lossy()] {
        let run = |queue| {
            let cfg = MachineConfig::manna(20).with_queue(queue);
            let opts = RunOpts::new(cfg.with_faults(plan.clone()), 1);
            run_groebner_on(&ring, &input, SelectionStrategy::Sugar, opts)
        };
        let (heap, radix) = (run(QueueKind::Heap), run(QueueKind::Radix));
        assert_eq!(heap.basis, radix.basis);
        assert_eq!(
            format!("{:?}", heap.report),
            format!("{:?}", radix.report),
            "plan {:?} diverged across queue kinds",
            !plan.is_trivial()
        );
    }
}

#[test]
fn neural_reports_identical_across_queue_kinds() {
    for shape in [CommsShape::Sequential, CommsShape::Tree] {
        let run = |cfg: MachineConfig| {
            let opts = RunOpts::new(cfg.with_faults(FaultPlan::lossy()), 21);
            run_neural_on(24, 24, 24, 2, PassMode::ForwardBackward, shape, opts)
        };
        let (heap_cfg, radix_cfg) = cfg_pair(20);
        let (heap, radix) = (run(heap_cfg), run(radix_cfg));
        assert_eq!(heap.outputs, radix.outputs);
        assert_eq!(format!("{:?}", heap.report), format!("{:?}", radix.report));
    }
}

#[test]
fn serving_reports_identical_across_queue_kinds_at_128_nodes() {
    // At 128 nodes each idle poll wakes dozens of nodes at one instant:
    // the same-time bursts the radix queue pops FIFO from bucket 0.
    let plan = TrafficPlan::new(1997)
        .with_jobs(400)
        .with_offered_load(50_000.0);
    let chaos = FaultPlan::lossy().with_crash_restart(
        3,
        VirtualTime::from_ns(2_000_000),
        VirtualTime::from_ns(5_000_000),
    );
    for faults in [None, Some(chaos)] {
        let run = |queue| {
            let cfg = MachineConfig::manna(128).with_queue(queue);
            let cfg = match &faults {
                Some(plan) => cfg.with_faults(plan.clone()),
                None => cfg,
            };
            run_traffic_on(&plan, cfg, 42)
        };
        let heap = run(QueueKind::Heap);
        let radix = run(QueueKind::Radix);
        if faults.is_some() {
            assert!(heap.report.net_dropped > 0, "loss never fired");
            assert_eq!(heap.report.total_crashes(), 1, "the crash never fired");
        }
        assert!(heap.report.traffic_drained(), "stream did not drain");
        assert_eq!(
            format!("{:?}", heap.report),
            format!("{:?}", radix.report),
            "faults {:?}: serving run diverged across queue kinds",
            faults.is_some()
        );
    }
}

/// Manual throughput probe (not a correctness test): prints wall time
/// per queue kind so the radix queue's contribution can be isolated
/// from the rest of the runtime inside one binary. Run with
/// `cargo test --release --test ladder_apps -- --ignored --nocapture`.
#[test]
#[ignore]
fn queue_throughput_probe() {
    let m = SymTridiagonal::random_clustered(240, 6, 1997);
    let (ring, input) = earth_manna::algebra::inputs::katsura(4);
    // The serving path at 256 nodes: ~3M events, most in poll bursts.
    let serve = TrafficPlan::new(11)
        .with_jobs(3000)
        .with_offered_load(100_000.0);
    for kind in [QueueKind::Heap, QueueKind::Radix] {
        let reps = 5;
        let mut eigen_best = f64::INFINITY;
        let mut grob_best = f64::INFINITY;
        let mut serve_best = f64::INFINITY;
        for _ in 0..reps {
            let cfg = MachineConfig::manna(20).with_queue(kind);
            let t = std::time::Instant::now();
            let r = run_eigen_on(&m, 1e-6, FetchMode::Block, RunOpts::new(cfg, 42));
            eigen_best = eigen_best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(r.report.events > 0);
            let t = std::time::Instant::now();
            let opts = RunOpts::new(MachineConfig::manna(20).with_queue(kind), 1);
            let g = run_groebner_on(&ring, &input, SelectionStrategy::Sugar, opts);
            grob_best = grob_best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(g.report.events > 0);
            let cfg = MachineConfig::manna(256).with_queue(kind);
            let t = std::time::Instant::now();
            let s = run_traffic_on(&serve, cfg, 42);
            serve_best = serve_best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(s.report.traffic_drained());
        }
        println!(
            "{kind:?}: eigen {eigen_best:.3} ms, groebner {grob_best:.3} ms, \
             serve_256 {serve_best:.3} ms (best of {reps})"
        );
    }
}

#[test]
fn peak_queue_depth_is_populated_and_queue_invariant() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, radix_cfg) = cfg_pair(20);
    let heap = run_eigen_on(&m, 1e-6, FetchMode::Block, RunOpts::new(heap_cfg, 42));
    let radix = run_eigen_on(&m, 1e-6, FetchMode::Block, RunOpts::new(radix_cfg, 42));
    assert!(heap.report.peak_queue_depth > 0, "depth never observed");
    assert_eq!(heap.report.peak_queue_depth, radix.report.peak_queue_depth);
    // The depth is an observation, not part of the stable textual report.
    assert!(!format!("{}", heap.report).contains("peak"));
}
