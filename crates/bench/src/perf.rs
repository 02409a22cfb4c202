//! The committed performance baseline: `repro bench`.
//!
//! Runs every repro application — including the faulted, crashed, and
//! profiled variants — as a fixed-size sweep on the host, measuring real
//! wall time and the simulator's own event counters, and emits one
//! machine-readable JSON document (`BENCH_<date>.json` when committed).
//!
//! Two rules keep the baseline useful:
//!
//! * **Fixed moderate sizes.** Sweep inputs never scale with
//!   [`Scale`](crate::workloads::Scale); regenerating the baseline takes
//!   seconds, and a number in an old `BENCH_*.json` is always comparable
//!   to the same sweep in a new one (same machine assumed — values are
//!   machine-dependent and never golden-tested; only the schema is).
//! * **Schema-stable output.** [`schema_signature`] reduces a document
//!   to its structural shape (keys, string values, and the *types* of
//!   everything else). CI checks the committed baseline's signature
//!   against a fresh smoke run, so the file on disk can never drift from
//!   what the emitter produces.

use earth_algebra::buchberger::SelectionStrategy;
use earth_algebra::inputs::katsura;
use earth_apps::eigen::{run_eigen, run_eigen_on, FetchMode};
use earth_apps::groebner::{run_groebner, run_groebner_on};
use earth_apps::neural::{run_neural, run_neural_on, CommsShape, PassMode};
use earth_linalg::SymTridiagonal;
use earth_machine::{FaultPlan, MachineConfig};
use earth_rt::{RunOpts, RunReport};
use earth_sim::{VirtualDuration, VirtualTime};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured sweep: a named workload with its wall-clock cost and the
/// simulator-side load counters.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Sweep name (stable; part of the baseline schema).
    pub name: &'static str,
    /// Simulated machine size.
    pub nodes: u16,
    /// Discrete events the run processed.
    pub events: u64,
    /// Best-of-reps host wall time for one run, in milliseconds.
    pub wall_ms: f64,
    /// Simulation throughput: events per host second.
    pub events_per_sec: f64,
    /// High-water mark of the scheduler's pending-event queue.
    pub peak_queue_depth: u64,
}

/// Repetitions per sweep at full size; the best (minimum) wall time is
/// kept, the usual convention for wall-clock baselines.
const FULL_REPS: usize = 3;

/// An unprofiled run on a `nodes`-node MANNA under `plan`.
fn faulted(nodes: u16, seed: u64, plan: FaultPlan) -> RunOpts {
    RunOpts::new(MachineConfig::manna(nodes).with_faults(plan), seed)
}

fn measure(
    name: &'static str,
    nodes: u16,
    reps: usize,
    mut run: impl FnMut() -> RunReport,
) -> SweepResult {
    let mut best_ns = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = run();
        let ns = t.elapsed().as_nanos() as f64;
        if ns < best_ns {
            best_ns = ns;
        }
        report = Some(r);
    }
    let report = report.expect("at least one rep");
    SweepResult {
        name,
        nodes,
        events: report.events,
        wall_ms: best_ns / 1e6,
        events_per_sec: report.events as f64 / (best_ns / 1e9),
        peak_queue_depth: report.peak_queue_depth,
    }
}

/// Run the full baseline sweep set. `smoke` shrinks every workload to CI
/// size (same sweep names, same schema, one rep) so tests and the CI
/// schema check stay cheap.
pub fn run_sweeps(smoke: bool) -> Vec<SweepResult> {
    let reps = if smoke { 1 } else { FULL_REPS };
    let mut out = Vec::new();

    // -- Eigenvalue bisection -------------------------------------------
    let (m, tol, en) = if smoke {
        (SymTridiagonal::random_clustered(30, 2, 3), 1e-6, 8)
    } else {
        (SymTridiagonal::random_clustered(240, 6, 1997), 1e-6, 20)
    };
    let eigen = |opts| run_eigen_on(&m, tol, FetchMode::Block, opts).report;
    out.push(measure("eigen", en, reps, || {
        run_eigen(&m, tol, en, 42, FetchMode::Block).report
    }));
    out.push(measure("eigen_faulted", en, reps, || {
        eigen(faulted(en, 42, FaultPlan::lossy()))
    }));
    let clean = run_eigen(&m, tol, en, 42, FetchMode::Block);
    let down = VirtualTime::ZERO + clean.report.elapsed / 2;
    let up = down + VirtualDuration::from_us(3_000);
    out.push(measure("eigen_crashed", en, reps, || {
        let crash = FaultPlan::new().with_crash_restart(3, down, up);
        eigen(faulted(en, 42, crash))
    }));
    out.push(measure("eigen_profiled", en, reps, || {
        eigen(RunOpts::manna(en, 42).profiled())
    }));

    // -- Groebner basis completion --------------------------------------
    let ((ring, input), gn) = if smoke {
        (katsura(3), 8)
    } else {
        (katsura(4), 20)
    };
    out.push(measure("groebner", gn, reps, || {
        run_groebner(&ring, &input, gn, 1, SelectionStrategy::Sugar, None).report
    }));
    let groebner = |opts| run_groebner_on(&ring, &input, SelectionStrategy::Sugar, opts).report;
    out.push(measure("groebner_faulted", gn, reps, || {
        groebner(faulted(gn, 1, FaultPlan::lossy()))
    }));
    let gclean = run_groebner(&ring, &input, gn, 1, SelectionStrategy::Sugar, None);
    let gdown = VirtualTime::ZERO + gclean.report.elapsed / 2;
    let gup = gdown + VirtualDuration::from_us(3_000);
    out.push(measure("groebner_crashed", gn, reps, || {
        let crash = FaultPlan::new().with_crash_restart(2, gdown, gup);
        groebner(faulted(gn, 1, crash))
    }));
    out.push(measure("groebner_profiled", gn, reps, || {
        groebner(RunOpts::manna(gn, 1).profiled())
    }));

    // -- Neural network training ----------------------------------------
    let (units, samples, nn) = if smoke { (24, 1, 8) } else { (200, 3, 20) };
    let mode = PassMode::ForwardBackward;
    let shape = CommsShape::Tree;
    out.push(measure("neural", nn, reps, || {
        run_neural(units, nn, samples, 21, mode, shape).report
    }));
    let neural = |opts| run_neural_on(units, units, units, samples, mode, shape, opts).report;
    out.push(measure("neural_faulted", nn, reps, || {
        neural(faulted(nn, 21, FaultPlan::lossy()))
    }));
    let nclean = run_neural(units, nn, samples, 21, mode, shape);
    let ndown = VirtualTime::ZERO + nclean.report.elapsed / 2;
    let nup = ndown + VirtualDuration::from_us(2_000);
    out.push(measure("neural_crashed", nn, reps, || {
        let crash = FaultPlan::new().with_crash_restart(5, ndown, nup);
        neural(faulted(nn, 21, crash))
    }));
    out.push(measure("neural_profiled", nn, reps, || {
        neural(RunOpts::manna(nn, 21).profiled())
    }));

    // -- Traffic plane ---------------------------------------------------
    // A 20-node mixed-class open-loop stream at low and high offered
    // load, plus the high-load stream with a mid-run crash + restart:
    // the admission front-end, the class bodies, and recovery replay
    // all sit on this wall-clock path.
    let (tjobs, tn) = if smoke { (24, 8) } else { (96, 20) };
    let t_low = earth_traffic::TrafficPlan::new(11)
        .with_jobs(tjobs)
        .with_offered_load(1_000.0);
    let t_high = t_low.clone().with_offered_load(8_000.0);
    out.push(measure("traffic_low", tn, reps, || {
        earth_traffic::run_traffic(&t_low, tn, 42).report
    }));
    out.push(measure("traffic_high", tn, reps, || {
        earth_traffic::run_traffic(&t_high, tn, 42).report
    }));
    let tdown = VirtualTime::from_ns(2_000_000);
    let tup = tdown + VirtualDuration::from_us(3_000);
    out.push(measure("traffic_crashed", tn, reps, || {
        let crash = FaultPlan::new().with_crash_restart(3, tdown, tup);
        earth_traffic::run_traffic_on(&t_high, MachineConfig::manna(tn).with_faults(crash), 42)
            .report
    }));

    // -- Overload control -------------------------------------------------
    // The same stream saturated past what the machine absorbs, with the
    // full defenses on: deadline draws, bounded-queue rejections, retry
    // scheduling, queue shedding sweeps, and breaker bookkeeping are
    // all extra work on the admission hot path, so their cost shows up
    // here first.
    let t_over = t_high
        .clone()
        .with_offered_load(32_000.0)
        .with_deadlines(1_500, 5_000)
        .with_queue_cap(16)
        .with_retries(3, 200, 1_600)
        .with_deadline_shedding()
        .with_breaker(8, 5, 400);
    out.push(measure("overload_defended", tn, reps, || {
        earth_traffic::run_traffic(&t_over, tn, 42).report
    }));

    // -- Gray-failure defenses --------------------------------------------
    // The high-load stream with one node 8× fail-slow for the whole run
    // and the full straggler plane armed: RTT-EWMA updates on every
    // first-transmission ack, hedge scheduling on every fresh send, and
    // the quarantine checks on the steal and home-routing paths are the
    // new hot-path work, so a regression there lands on this number.
    let straggled = FaultPlan::new()
        .with_node_slowdown(
            tn / 2,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000),
            8.0,
        )
        .with_slow_detector(3.0, 3)
        .with_hedging(6.0)
        .with_quarantine(VirtualDuration::from_us(20_000))
        .with_speculative_rehoming();
    out.push(measure("stragglers_defended", tn, reps, || {
        let cfg = MachineConfig::manna(tn).with_faults(straggled.clone());
        earth_traffic::run_traffic_on(&t_high, cfg, 42).report
    }));

    // -- Topology scale points ------------------------------------------
    // One 256-node Gröbner run per interconnect: the scan-free hot paths
    // are what make this size affordable, so a regression shows up here
    // as a wall-time cliff long before the full `repro scale` sweep.
    let (sring, sinput) = if smoke { katsura(3) } else { katsura(4) };
    let sn = 256;
    for (name, kind) in [
        ("scale_crossbar", earth_machine::TopologyKind::Crossbar),
        ("scale_hypercube", earth_machine::TopologyKind::Hypercube),
        ("scale_torus3d", earth_machine::TopologyKind::Torus3D),
        ("scale_fattree", earth_machine::TopologyKind::fat_tree()),
    ] {
        out.push(measure(name, sn, reps, || {
            let opts = RunOpts::new(MachineConfig::manna(sn).with_topology(kind), 1);
            run_groebner_on(&sring, &sinput, SelectionStrategy::Sugar, opts).report
        }));
    }

    out
}

/// Serialize sweeps as the baseline document (one line, schema v1).
pub fn sweeps_to_json(sweeps: &[SweepResult]) -> String {
    let mut s = String::from("{\"bench_schema\":1,\"sweeps\":[");
    for (i, sw) in sweeps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"nodes\":{},\"events\":{},\"wall_ms\":{:.3},\"events_per_sec\":{:.0},\"peak_queue_depth\":{}}}",
            sw.name, sw.nodes, sw.events, sw.wall_ms, sw.events_per_sec, sw.peak_queue_depth
        );
    }
    s.push_str("]}");
    s
}

/// Reduce a JSON document to its structural signature: object/array
/// shape and keys are kept verbatim, string values are kept (they are
/// part of the schema — sweep names must not drift), and every number,
/// boolean, or null is replaced by a type tag (`#`, `?`, `~`). Two
/// documents with equal signatures have the same schema even when every
/// measured value differs.
pub fn schema_signature(json: &str) -> Result<String, String> {
    let mut sig = String::with_capacity(json.len());
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'}' | b'[' | b']' | b':' | b',' => {
                sig.push(bytes[i] as char);
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    // The emitter never writes escapes, but skip them
                    // defensively so a hand-edited file still parses.
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if i >= bytes.len() {
                    return Err("unterminated string".into());
                }
                i += 1;
                sig.push_str(&json[start..i]);
            }
            b'0'..=b'9' | b'-' => {
                // Strict JSON number grammar:
                // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
                // a loose "any run of number-ish bytes" scanner would
                // let corrupt values like `1-2` or `1e+` collapse to
                // `#` and slip past the CI schema check.
                let start = i;
                if bytes[i] == b'-' {
                    i += 1;
                }
                let int_start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i == int_start {
                    return Err(format!("bad number at byte {start}: missing digits"));
                }
                if bytes[int_start] == b'0' && i - int_start > 1 {
                    return Err(format!("bad number at byte {start}: leading zero"));
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    let frac_start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i == frac_start {
                        return Err(format!("bad number at byte {start}: empty fraction"));
                    }
                }
                if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
                    i += 1;
                    if i < bytes.len() && matches!(bytes[i], b'+' | b'-') {
                        i += 1;
                    }
                    let exp_start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i == exp_start {
                        return Err(format!("bad number at byte {start}: empty exponent"));
                    }
                }
                // A number may only be followed by a structural byte or
                // whitespace; this rejects run-on garbage like `1-2`.
                if i < bytes.len()
                    && !matches!(bytes[i], b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
                {
                    return Err(format!("trailing garbage after number at byte {i}"));
                }
                sig.push('#');
            }
            b't' | b'f' => {
                let lit: &[u8] = if bytes[i] == b't' { b"true" } else { b"false" };
                if !bytes[i..].starts_with(lit) {
                    return Err(format!("bad literal at byte {i}"));
                }
                i += lit.len();
                sig.push('?');
            }
            b'n' => {
                if !bytes[i..].starts_with(b"null") {
                    return Err(format!("bad literal at byte {i}"));
                }
                i += 4;
                sig.push('~');
            }
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            other => return Err(format!("unexpected byte {other:#x} at {i}")),
        }
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_ignores_values_but_keeps_shape_and_names() {
        let a = r#"{"bench_schema":1,"sweeps":[{"name":"eigen","wall_ms":12.5}]}"#;
        let b = r#"{"bench_schema":1,"sweeps":[{"name":"eigen","wall_ms":9000.1}]}"#;
        assert_eq!(schema_signature(a).unwrap(), schema_signature(b).unwrap());
        // A renamed sweep is a schema change...
        let c = r#"{"bench_schema":1,"sweeps":[{"name":"laplace","wall_ms":12.5}]}"#;
        assert_ne!(schema_signature(a).unwrap(), schema_signature(c).unwrap());
        // ...and so are a missing key and a retyped value.
        let d = r#"{"bench_schema":1,"sweeps":[{"name":"eigen"}]}"#;
        assert_ne!(schema_signature(a).unwrap(), schema_signature(d).unwrap());
        let e = r#"{"bench_schema":1,"sweeps":[{"name":"eigen","wall_ms":null}]}"#;
        assert_ne!(schema_signature(a).unwrap(), schema_signature(e).unwrap());
    }

    #[test]
    fn signature_rejects_malformed_documents() {
        assert!(schema_signature("{\"open").is_err());
        assert!(schema_signature("{\"k\":nul}").is_err());
        assert!(schema_signature("{\"k\":@}").is_err());
    }

    #[test]
    fn signature_rejects_malformed_numbers() {
        for bad in [
            r#"{"k":1-2}"#,
            r#"{"k":1e+}"#,
            r#"{"k":1e}"#,
            r#"{"k":-}"#,
            r#"{"k":1.}"#,
            r#"{"k":.5}"#,
            r#"{"k":01}"#,
            r#"{"k":1x}"#,
        ] {
            assert!(schema_signature(bad).is_err(), "accepted {bad}");
        }
        for good in [
            r#"{"k":0}"#,
            r#"{"k":-0.5e+10}"#,
            r#"{"k":12.25}"#,
            r#"{"k":3E-7}"#,
            r#"[1, 2 ,3]"#,
        ] {
            assert!(schema_signature(good).is_ok(), "rejected {good}");
        }
    }

    /// The committed baseline must always have the schema the current
    /// emitter produces — values are machine-dependent and free to
    /// differ, but a key, sweep, or type drift fails here.
    #[test]
    fn committed_baseline_schema_matches_emitter() {
        let committed = include_str!("../../../BENCH_2026-08-07.json");
        let fresh = sweeps_to_json(&run_sweeps(true));
        assert_eq!(
            schema_signature(committed.trim()).unwrap(),
            schema_signature(&fresh).unwrap(),
            "BENCH_2026-08-07.json drifted from the emitter; regenerate with `repro --json bench`"
        );
    }
}
